// Pricing of a candidate K-way arc merging (Sec. 3: "the exact structures
// (i.e. the exact topology, communication node position, number of links,
// ...) are later obtained solving a simple nonlinear optimization problem,
// which computes also their costs").
//
// A K-way merging of arcs a_i = (u_i, v_i) is realized by the generic
// hub--trunk--split structure:
//
//     chi(u_i) --ingress_i--> [hub H] ==== common trunk ==== [split S]
//                                                     --egress_i--> chi(v_i)
//
// * When all sources coincide, the trunk starts directly at the (unique)
//   computational vertex: no hub node, no ingress legs. Symmetrically for a
//   common target. (The WAN example's winning merging {a4,a5,a6} has the
//   common source D, so its structure is trunk-from-D plus a split near the
//   A/B/C cluster -- Figure 4.)
// * The trunk carries the *sum* of the merged bandwidths under
//   CapacityPolicy::kSharedSum (physical mux semantics) or the max under
//   kMaxPerConstraint (Def 2.8 literal).
// * Every leg and the trunk are themselves priced by the point-to-point
//   optimizer, so a merging may internally use segmentation or duplication.
//
// The positions of H and S are the decision variables of the paper's
// "minimize C(x) subject to K x = d" program; the objective is a nonnegative
// sum of library-priced leg costs, each a non-decreasing function of a
// norm-distance to H or S. It is minimized by Weiszfeld-seeded alternating
// 2-D derivative-free descent (exact for the linear per-length cost models of
// the paper's domains, where the subproblem is weighted Fermat-Weber).
//
// Stars are priced in batches: price_mergings keeps up to
// geom::kWeiszfeldLanes stars in flight and hands each star's next
// Euclidean placement solve to the Weiszfeld lane engine as soon as its
// previous one returns, so independent subsets share the engine's lanes.
// Every star runs the same sequence of solves it would run alone, and the
// engine's lanes give the bits of the scalar solve, so a batched star is
// bit-identical to price_merging on the same subset.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "model/validator.hpp"
#include "support/deadline.hpp"
#include "synth/ptp.hpp"

namespace cdcs::synth {

struct MergingPlan {
  std::vector<model::ArcId> arcs;  ///< merged constraint arcs, sorted, k >= 2

  bool has_hub{false};    ///< sources differ -> hub communication vertex
  bool has_split{false};  ///< targets differ -> split communication vertex
  geom::Point2D hub_pos;    ///< trunk start (== common source when !has_hub)
  geom::Point2D split_pos;  ///< trunk end (== common target when !has_split)
  std::optional<commlib::NodeIndex> hub_node;    ///< mux-capable, iff has_hub
  std::optional<commlib::NodeIndex> split_node;  ///< demux-capable, iff has_split

  double trunk_bandwidth{0.0};
  std::optional<PtpPlan> trunk;  ///< nullopt iff hub_pos == split_pos exactly

  /// Per merged arc (parallel to `arcs`): plan for chi(u_i) -> hub. Present
  /// iff has_hub (zero-span legs keep a plan so the path reaches the hub
  /// vertex); absent when the trunk starts at the common source.
  std::vector<std::optional<PtpPlan>> ingress;
  std::vector<std::optional<PtpPlan>> egress;

  double cost{0.0};  ///< trunk + all legs + hub/split node costs
  friend bool operator==(const MergingPlan&, const MergingPlan&) = default;
};

/// Prices the best hub--trunk--split realization of `subset` (|subset| >= 2).
/// Returns nullopt when the library lacks a required element (no mux-capable
/// node while sources differ, no demux-capable node while targets differ, or
/// some leg/trunk has no feasible point-to-point plan). A non-null `deadline`
/// that has expired makes the pricer bail out immediately with nullopt, so
/// candidate generation degrades to the already-priced structures.
/// A batch of one: price_mergings on {subset}.
std::optional<MergingPlan> price_merging(
    const model::ConstraintGraph& cg, const commlib::Library& library,
    std::vector<model::ArcId> subset,
    model::CapacityPolicy policy = model::CapacityPolicy::kSharedSum,
    const support::Deadline* deadline = nullptr);

/// Prices every subset of `subsets`; element i of the result is bit for bit
/// price_merging(cg, library, subsets[i], policy, deadline). Each star polls
/// the deadline once, when it starts, and stars start in `subsets` order.
std::vector<std::optional<MergingPlan>> price_mergings(
    const model::ConstraintGraph& cg, const commlib::Library& library,
    std::span<const std::span<const model::ArcId>> subsets,
    model::CapacityPolicy policy = model::CapacityPolicy::kSharedSum,
    const support::Deadline* deadline = nullptr);

}  // namespace cdcs::synth
