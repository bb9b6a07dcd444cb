// Steiner-tree merging structures.
//
// The most general realization of a common-endpoint merging: a tree rooted
// at the common port whose leaves are the other endpoints, with demux (or
// mux, when target-rooted) nodes at every branching/drop vertex and each
// tree edge carrying exactly the demand of the subtree behind it. The star
// (one junction) and the daisy chain (a path of junctions) are special
// cases; on 2-D spreads the Steiner topology dominates both whenever
// per-channel demand prices spokes at trunk rates.
//
// Topology: the exact Dreyfus-Wagner optimum on the terminals' Hanan grid
// (geom/steiner.hpp) -- the true rectilinear Steiner minimal tree under the
// Manhattan norm, a strong topology heuristic under other norms. Degree-2
// pass-through junctions are contracted away (a bend in a route is free;
// segmentation inside an edge is the point-to-point optimizer's job), so
// every surviving junction is a genuine branch or drop point that pays for
// its library node.
//
// Note the Hanan topology is computed from terminal geometry alone; edge
// *costs* are then priced per-edge with the bandwidth actually flowing
// through (sum or max per CapacityPolicy), so a cost-optimal topology under
// strongly bandwidth-dependent pricing may differ. The candidate generator
// prices star, chain and tree and keeps the cheapest, so the tree only ever
// improves the candidate set.
#pragma once

#include "synth/merging_pricer.hpp"

namespace cdcs::synth {

struct TreePlan {
  std::vector<model::ArcId> arcs;  ///< merged arcs, sorted by index
  bool source_rooted{true};

  /// Tree vertices; vertex 0 is the root (the common port's position).
  std::vector<geom::Point2D> vertices;
  /// Per merged arc (parallel to `arcs`): the tree vertex of its own port.
  std::vector<std::size_t> spoke_vertex;
  /// True for tree vertices that are junctions (materialized as library
  /// nodes); false for the root and pure-leaf spokes (computational ports).
  std::vector<bool> is_junction;
  std::optional<commlib::NodeIndex> junction_node;  ///< demux / mux

  struct Edge {
    std::size_t parent{0};
    std::size_t child{0};
    double bandwidth{0.0};  ///< demand flowing over this edge
    PtpPlan plan;
    friend bool operator==(const Edge&, const Edge&) = default;
  };
  /// Directed away from the root, in topological (BFS) order.
  std::vector<Edge> edges;

  /// Per merged arc: the zero-span drop link plan used when its port sits
  /// at an internal junction (traffic continues past the drop).
  std::vector<std::optional<PtpPlan>> drop;

  double cost{0.0};
  friend bool operator==(const TreePlan&, const TreePlan&) = default;
};

/// Prices the Steiner-tree realization of `subset` (common source or common
/// target required; both-common and mixed subsets return nullopt, as do
/// subsets whose library lacks the junction node or a feasible edge plan).
/// An expired `deadline` (when non-null) makes the pricer return nullopt
/// before starting the Hanan-grid search.
std::optional<TreePlan> price_tree_merging(
    const model::ConstraintGraph& cg, const commlib::Library& library,
    std::vector<model::ArcId> subset,
    model::CapacityPolicy policy = model::CapacityPolicy::kSharedSum,
    const support::Deadline* deadline = nullptr);

}  // namespace cdcs::synth
