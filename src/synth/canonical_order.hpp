// Canonical, graph-independent ordering of an arc subset by endpoint
// geometry.
//
// Subset pricing (merging_pricer, chain_pricer, tree_pricer) is sensitive
// to the order its input arcs arrive in: leg costs are summed in sequence
// (floating-point addition does not associate) and equal-cost structures
// tie-break by evaluation order. Sorting by raw ArcId -- the historical
// normalization -- bakes the graph's id assignment into the priced result,
// so the same physical subset prices differently after arcs are renumbered
// (e.g. a remove + re-add in an incremental session) or in a graph built in
// a different insertion order. Sorting by the per-arc GEOMETRY RECORD
//
//     (source.x, source.y, target.x, target.y, bandwidth)
//
// instead makes the priced plan a pure function of the subset's geometry:
// the invariant both the pricing cache ("a hit is bit-identical to the
// fresh solve it replaces", synth/pricing_cache.hpp) and the incremental
// engine's oracle ("apply() is bit-identical to from-scratch synthesis",
// synth/engine.hpp) are built on.
//
// Ties (arcs with identical records) keep their relative input order;
// such arcs are geometrically indistinguishable, so either assignment
// prices the same.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "model/constraint_graph.hpp"

namespace cdcs::synth {

/// The 5-double geometry record canonical ordering (and the pricing-cache
/// key) is defined over.
std::array<double, 5> arc_geometry_record(const model::ConstraintGraph& cg,
                                          model::ArcId a);

/// Canonical ordering of `subset`: positions into the caller's subset such
/// that visiting subset[order[0]], subset[order[1]], ... yields the per-arc
/// geometry records in sorted (lexicographic) order, stable on ties. Two
/// geometrically identical subsets produce the same record sequence through
/// their own canonical orders, REGARDLESS of how their graphs' arc ids are
/// permuted relative to each other.
std::vector<std::uint32_t> canonical_subset_order(
    const model::ConstraintGraph& cg, const std::vector<model::ArcId>& subset);

/// Permutes `subset` in place into canonical order: the order
/// canonical_subset_order gives. Allocates nothing for subsets of up to 16
/// arcs.
void canonicalize_subset(const model::ConstraintGraph& cg,
                         std::span<model::ArcId> subset);

}  // namespace cdcs::synth
