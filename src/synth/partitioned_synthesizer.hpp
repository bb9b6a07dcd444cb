// Hierarchical partitioned synthesis: the scale path for instances far
// beyond the paper's 20-arc corpus (docs/performance.md).
//
// partition_graph (synth/partition.hpp) clusters the instance; each cluster
// becomes an independent subgraph synthesized by the UNMODIFIED pipeline
// (generate -> cover -> ladder), the boundary-repair groups re-price and
// re-cover exactly the border-crossing arcs, and the per-cluster covers are
// stitched into one SynthesisResult:
//   * candidate arcs and plan arc lists are remapped from cluster-local to
//     global ArcIds (the remap is monotone, so sortedness is preserved);
//   * chosen column indices are offset into the concatenated candidate set;
//   * cover cost / nodes / generation stats are summed, and lower_bound is
//     the SUM of the cluster Lagrangian root bounds. Each cluster's bound
//     is proven over its own candidate set, so the sum bounds only the
//     clustered (restricted) problem, NOT the instance: the cross-cluster
//     merges the decomposition forgoes can make the true optimum cheaper.
//     On geo_wan(60, 1) with 8-arc clusters the sum reads 5,942,160 while
//     a validated monolithic cover costs 4,637,841, so the reported gap is
//     relative to the restricted problem.
//   * assembly and Def 2.4 validation run ONCE over the whole graph.
//
// Clusters fan out across a support::ThreadPool via parallel_map_ordered:
// each cluster is priced serially (threads=1) and the stitch folds results
// in cluster order, so the output is BIT-IDENTICAL for every thread count.
// The stitched result reports stage kIncumbent (global optimality across
// clusters is not proven even when every cluster solved exactly) with the
// summed restricted bound and its gap in the degradation report. That stage
// alone does not count as a degraded run; only degraded clusters do.
#pragma once

#include "commlib/library.hpp"
#include "model/constraint_graph.hpp"
#include "support/status.hpp"
#include "synth/options.hpp"
#include "synth/result.hpp"

namespace cdcs::synth {

/// True when synthesize() should take the partitioned path: partitioning is
/// enabled AND the instance is at least arc_threshold arcs (the exact
/// fallback below the threshold keeps every pinned corpus result
/// bit-identical).
bool partitioning_applies(const model::ConstraintGraph& cg,
                          const SynthesisOptions& options);

/// Partitioned synthesis end to end (see file comment). Called by
/// synthesize() behind its input gate and catch-all; callers outside the
/// synthesizer must apply their own. Delegates to the plain pipeline when
/// the partition degenerates to at most one cluster. A caller-provided
/// `options.solver.warm_start` is instance-specific and therefore dropped
/// for the per-cluster solves.
support::Expected<SynthesisResult> synthesize_partitioned(
    const model::ConstraintGraph& cg, const commlib::Library& library,
    const SynthesisOptions& options);

}  // namespace cdcs::synth
