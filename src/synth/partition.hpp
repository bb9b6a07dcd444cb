// Deterministic geometric partitioning of the constraint graph for
// hierarchical synthesis (docs/performance.md, "Partitioned synthesis").
//
// The paper's algorithm is exact but super-linear: candidate enumeration
// visits O(C(n,k)) subsets per k and the Gamma/Delta matrices are O(n^2),
// so the 20-arc corpus does not extrapolate to thousands of arcs. Following
// the decomposition line of work (Ogras & Marculescu, PAPERS.md), we split
// the instance into geometrically tight clusters, synthesize each with the
// unmodified pipeline, and stitch. The partition is driven by the SAME
// geometry the pruning lemmas use: a pair (a, b) can only survive Lemma 3.1
// when 2*||m_a - m_b|| < d(a) + d(b) (midpoint distance lower-bounds the
// Delta detour, see synth/mergeability.hpp and the grid pre-filter in
// candidate_generator.cpp), so arcs whose midpoints are far apart relative
// to their lengths cannot be merged profitably and belong in different
// clusters for free.
//
// Pipeline:
//   1. k-d median split over arc MIDPOINTS (not endpoints: a hotspot
//      pattern routes every arc into one port, and endpoint clustering
//      would glue the whole instance together) until every leaf holds at
//      most max_cluster_arcs arcs. Splits choose the wider bbox axis
//      (tie -> x) and order ties by arc index, so the leaf sequence is a
//      deterministic function of the instance alone.
//   2. Lossless connected-component refinement inside each leaf: arcs
//      sharing an endpoint are grouped, and two groups are kept separate
//      only when the bbox separation test PROVES every cross pair is
//      Lemma 3.1-pruned (2*dist(bbox_m(C1), bbox_m(C2)) >= maxlen(C1) +
//      maxlen(C2)); otherwise they stay one cluster. Splitting is therefore
//      only applied where it provably cannot lose a 2-way merge.
//   3. Boundary extraction: an interior arc close enough to ANOTHER
//      cluster's midpoint box that a cross-cluster merge could survive the
//      geometric pruning is pulled out as a boundary arc (capped at
//      max_boundary_fraction, highest violation first). Boundary arcs are
//      re-grouped by the same k-d split into repair clusters, appended
//      after the interior clusters -- the boundary-repair pass re-prices
//      and re-covers exactly the border-crossing arcs.
//
// Every arc lands in exactly one cluster; cluster arc lists are ascending;
// the cluster sequence (interior leaves in DFS order, then repair groups)
// is stable. partitioned_synthesizer.cpp builds one subgraph per cluster
// and fans them out across a thread pool.
//
// What carries over from a decomposition in the style of Ogras &
// Marculescu, and what does not:
//   * carries over -- feasibility and local exactness: every arc is
//     covered by exactly one cluster's cover, the stitched implementation
//     is validated once over the whole graph, and a cluster that reaches
//     stage exact is optimal over its own candidate set, with a Lagrangian
//     bound valid for that cluster;
//   * does not carry over -- global optimality (the cross-cluster merges
//     the split forgoes are lost, and step 3's boundary extraction is
//     capped, so only step 2's separations are provably lossless for
//     2-way merges) and any instance-wide lower bound: the summed cluster
//     bounds bound only the clustered (restricted) problem. On
//     geo_wan(60, 1) with 8-arc clusters the sum is 5,942,160 while a
//     validated monolithic cover costs 4,637,841.
#pragma once

#include <cstddef>
#include <vector>

#include "geom/bbox.hpp"
#include "model/constraint_graph.hpp"
#include "synth/options.hpp"

namespace cdcs::synth {

/// One cluster of the partition: a set of constraint arcs synthesized as an
/// independent subinstance.
struct Cluster {
  std::vector<model::ArcId> arcs;  ///< global arc ids, ascending
  geom::BBox midpoint_bbox;        ///< bbox of the member arcs' midpoints
  double max_arc_length{0.0};      ///< max d(a) over the members
  bool repair{false};  ///< boundary-repair group (not an interior cluster)
};

struct Partition {
  /// Interior clusters (k-d leaves after refinement and boundary
  /// extraction) first, then the boundary-repair groups. Every arc of the
  /// graph appears in exactly one cluster.
  std::vector<Cluster> clusters;
  /// Arcs extracted into repair groups, ascending. Empty when no arc sits
  /// close enough to a foreign cluster to threaten a cross-cluster merge.
  std::vector<model::ArcId> boundary_arcs;
  /// clusters[0..num_interior) are interior; the rest are repair groups.
  std::size_t num_interior{0};

  std::size_t num_repair() const { return clusters.size() - num_interior; }
};

/// Deterministically partitions `cg` per `opts` (see file comment). A graph
/// with at most opts.max_cluster_arcs arcs yields interior clusters only
/// (no boundary); an arcless graph yields no clusters at all.
Partition partition_graph(const model::ConstraintGraph& cg,
                          const PartitioningOptions& opts);

/// The cluster's arcs as an independent constraint graph. Ports keep their
/// global names and positions (ascending global vertex order), channels
/// keep their global names and bandwidths (ascending global arc order), so
/// every derived quantity -- distances, Gamma/Delta, pricing -- is computed
/// from the exact same doubles as in the full graph.
model::ConstraintGraph cluster_subgraph(const model::ConstraintGraph& cg,
                                        const Cluster& cluster);

}  // namespace cdcs::synth
