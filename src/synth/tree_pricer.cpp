#include "synth/tree_pricer.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>

#include "geom/steiner.hpp"
#include "synth/canonical_order.hpp"

namespace cdcs::synth {
namespace {

constexpr double kCoincideEps = 1e-9;

/// Oriented tree scaffolding built from the undirected Steiner result.
struct Oriented {
  std::vector<geom::Point2D> pos;
  std::vector<std::size_t> parent;             // SIZE_MAX for the root
  std::vector<std::vector<std::size_t>> kids;  // children per vertex
  std::vector<std::size_t> bfs;                // root first
};

/// BFS-orients the tree from `root`. Returns false on a disconnected or
/// cyclic edge set (never produced by the Steiner solver; defensive).
bool orient(const geom::PlanarSteinerTree& tree, std::size_t root,
            Oriented& out) {
  const std::size_t n = tree.vertices.size();
  std::vector<std::vector<std::size_t>> adj(n);
  for (const auto& e : tree.edges) {
    adj[e.a].push_back(e.b);
    adj[e.b].push_back(e.a);
  }
  out.pos = tree.vertices;
  out.parent.assign(n, SIZE_MAX);
  out.kids.assign(n, {});
  out.bfs.clear();
  std::vector<bool> seen(n, false);
  seen[root] = true;
  out.bfs.push_back(root);
  for (std::size_t i = 0; i < out.bfs.size(); ++i) {
    const std::size_t v = out.bfs[i];
    for (std::size_t w : adj[v]) {
      if (seen[w]) continue;
      seen[w] = true;
      out.parent[w] = v;
      out.kids[v].push_back(w);
      out.bfs.push_back(w);
    }
  }
  return out.bfs.size() == n;
}

/// Splices out non-terminal degree-2 vertices (one parent, one child):
/// bends are free, and per-edge pricing handles long spans internally.
void contract_passthrough(Oriented& t, const std::vector<bool>& is_terminal,
                          std::size_t root) {
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t v = 0; v < t.pos.size(); ++v) {
      if (v == root || is_terminal[v]) continue;
      if (t.parent[v] == SIZE_MAX || t.kids[v].size() != 1) continue;
      const std::size_t p = t.parent[v];
      const std::size_t c = t.kids[v].front();
      // Splice: p adopts c.
      auto& siblings = t.kids[p];
      *std::find(siblings.begin(), siblings.end(), v) = c;
      t.parent[c] = p;
      t.parent[v] = SIZE_MAX;
      t.kids[v].clear();
      changed = true;
    }
  }
  // Rebuild BFS order over the contracted tree.
  t.bfs.clear();
  t.bfs.push_back(root);
  for (std::size_t i = 0; i < t.bfs.size(); ++i) {
    for (std::size_t w : t.kids[t.bfs[i]]) t.bfs.push_back(w);
  }
}

}  // namespace

std::optional<TreePlan> price_tree_merging(const model::ConstraintGraph& cg,
                                           const commlib::Library& library,
                                           std::vector<model::ArcId> subset,
                                           model::CapacityPolicy policy,
                                           const support::Deadline* deadline) {
  if (deadline && deadline->expired()) return std::nullopt;
  if (subset.size() < 2 || subset.size() > 9) return std::nullopt;
  // Canonical geometry order, NOT ArcId order: the priced plan must be
  // a pure function of the subset's geometry (synth/canonical_order.hpp)
  // so renumbered or reordered arc ids price bit-identically.
  canonicalize_subset(cg, subset);
  const geom::Norm norm = cg.norm();

  const geom::Point2D first_src = cg.position(cg.source(subset.front()));
  const geom::Point2D first_dst = cg.position(cg.target(subset.front()));
  bool common_source = true;
  bool common_target = true;
  for (model::ArcId a : subset) {
    if (!geom::almost_equal(cg.position(cg.source(a)), first_src,
                            kCoincideEps)) {
      common_source = false;
    }
    if (!geom::almost_equal(cg.position(cg.target(a)), first_dst,
                            kCoincideEps)) {
      common_target = false;
    }
  }
  if (common_source == common_target) return std::nullopt;

  TreePlan plan;
  plan.arcs = subset;
  plan.source_rooted = common_source;
  const geom::Point2D root_pos = common_source ? first_src : first_dst;
  plan.junction_node = library.cheapest_node(
      common_source ? commlib::NodeKind::kDemux : commlib::NodeKind::kMux);
  if (!plan.junction_node) return std::nullopt;

  // Terminals: root first, then the spokes (arc order).
  std::vector<geom::Point2D> terminals{root_pos};
  std::vector<double> demand;
  for (model::ArcId a : subset) {
    terminals.push_back(common_source ? cg.position(cg.target(a))
                                      : cg.position(cg.source(a)));
    demand.push_back(cg.bandwidth(a));
  }

  const geom::PlanarSteinerTree steiner =
      geom::steiner_tree_on_hanan_grid(terminals, norm);
  const std::size_t root = steiner.terminal_vertex.front();

  Oriented tree;
  if (!orient(steiner, root, tree)) return std::nullopt;

  std::vector<bool> is_terminal(tree.pos.size(), false);
  for (std::size_t tv : steiner.terminal_vertex) is_terminal[tv] = true;
  contract_passthrough(tree, is_terminal, root);

  // Demand pulled through each vertex = combine over spokes in its subtree;
  // accumulate bottom-up over the BFS order.
  std::vector<double> pulled(tree.pos.size(), 0.0);
  plan.spoke_vertex.resize(subset.size());
  for (std::size_t i = 0; i < subset.size(); ++i) {
    plan.spoke_vertex[i] = steiner.terminal_vertex[i + 1];
  }
  auto combine = [&](double a, double b) {
    return policy == model::CapacityPolicy::kSharedSum ? a + b
                                                       : std::max(a, b);
  };
  for (std::size_t i = 0; i < subset.size(); ++i) {
    pulled[plan.spoke_vertex[i]] =
        combine(pulled[plan.spoke_vertex[i]], demand[i]);
  }
  for (std::size_t i = tree.bfs.size(); i-- > 1;) {
    const std::size_t v = tree.bfs[i];
    pulled[tree.parent[v]] = combine(pulled[tree.parent[v]], pulled[v]);
  }

  // Price the edges.
  const PtpCostModel ptp(library);
  double cost = 0.0;
  for (std::size_t i = 1; i < tree.bfs.size(); ++i) {
    const std::size_t v = tree.bfs[i];
    const std::size_t p = tree.parent[v];
    const auto edge_plan =
        ptp.plan(geom::distance(tree.pos[p], tree.pos[v], norm), pulled[v]);
    if (!edge_plan) return std::nullopt;
    cost += edge_plan->cost;
    plan.edges.push_back(TreePlan::Edge{p, v, pulled[v], *edge_plan});
  }

  // Junction nodes: every non-root vertex with children, plus any vertex
  // serving several coincident spokes (distinct ports at one position must
  // each receive their own drop link from a shared junction).
  plan.vertices = tree.pos;
  plan.is_junction.assign(tree.pos.size(), false);
  std::vector<int> spokes_at(tree.pos.size(), 0);
  for (std::size_t sv : plan.spoke_vertex) ++spokes_at[sv];
  for (std::size_t i = 1; i < tree.bfs.size(); ++i) {
    const std::size_t v = tree.bfs[i];
    if (!tree.kids[v].empty() || spokes_at[v] > 1) {
      plan.is_junction[v] = true;
      cost += library.node(*plan.junction_node).cost;
    }
  }
  plan.drop.resize(subset.size());
  for (std::size_t i = 0; i < subset.size(); ++i) {
    if (plan.is_junction[plan.spoke_vertex[i]]) {
      const auto drop_plan = ptp.plan(0.0, demand[i]);
      if (!drop_plan) return std::nullopt;
      cost += drop_plan->cost;
      plan.drop[i] = drop_plan;
    }
  }
  plan.cost = cost;
  return plan;
}

}  // namespace cdcs::synth
