#include "synth/tree_pricer.hpp"

#include <algorithm>
#include <span>
#include <stdexcept>

#include "geom/steiner.hpp"
#include "synth/canonical_order.hpp"

namespace cdcs::synth {
namespace {

constexpr double kCoincideEps = 1e-9;

/// Oriented tree scaffolding built from the undirected Steiner result.
/// Children are stored flat: vertex v's are kids[kid_begin[v] ..
/// kid_begin[v] + kid_count[v]), one contiguous block per vertex because
/// the BFS appends all of a vertex's children at once.
struct Oriented {
  std::vector<std::size_t> parent;     // SIZE_MAX for the root
  std::vector<std::size_t> kids;
  std::vector<std::size_t> kid_begin;
  std::vector<std::size_t> kid_count;
  std::vector<std::size_t> bfs;        // root first

  std::span<std::size_t> kids_of(std::size_t v) {
    return {kids.data() + kid_begin[v], kid_count[v]};
  }
};

/// BFS-orients the tree from `root`. Returns false on a disconnected or
/// cyclic edge set (never produced by the Steiner solver; defensive).
bool orient(const geom::PlanarSteinerTree& tree, std::size_t root,
            Oriented& out) {
  const std::size_t n = tree.vertices.size();
  // Flat adjacency: vertex v's neighbours are adj[adj_begin[v] ..
  // adj_begin[v + 1]), in edge order.
  std::vector<std::size_t> adj_begin(n + 1, 0);
  for (const auto& e : tree.edges) {
    ++adj_begin[e.a + 1];
    ++adj_begin[e.b + 1];
  }
  for (std::size_t v = 0; v < n; ++v) adj_begin[v + 1] += adj_begin[v];
  std::vector<std::size_t> adj(adj_begin[n]);
  {
    std::vector<std::size_t> fill(adj_begin.begin(), adj_begin.end() - 1);
    for (const auto& e : tree.edges) {
      adj[fill[e.a]++] = e.b;
      adj[fill[e.b]++] = e.a;
    }
  }
  out.parent.assign(n, SIZE_MAX);
  out.kids.clear();
  out.kids.reserve(n);
  out.kid_begin.assign(n, 0);
  out.kid_count.assign(n, 0);
  out.bfs.clear();
  out.bfs.reserve(n);
  out.bfs.push_back(root);
  for (std::size_t i = 0; i < out.bfs.size(); ++i) {
    const std::size_t v = out.bfs[i];
    out.kid_begin[v] = out.kids.size();
    for (std::size_t a = adj_begin[v]; a < adj_begin[v + 1]; ++a) {
      const std::size_t w = adj[a];
      if (w == root || out.parent[w] != SIZE_MAX) continue;  // seen
      out.parent[w] = v;
      out.kids.push_back(w);
      out.bfs.push_back(w);
    }
    out.kid_count[v] = out.kids.size() - out.kid_begin[v];
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
    for (std::size_t v = 0; v < t.parent.size(); ++v) {
      if (v == root || is_terminal[v]) continue;
      if (t.parent[v] == SIZE_MAX || t.kid_count[v] != 1) continue;
      const std::size_t p = t.parent[v];
      const std::size_t c = t.kids[t.kid_begin[v]];
      // Splice: p adopts c.
      const std::span<std::size_t> siblings = t.kids_of(p);
      *std::find(siblings.begin(), siblings.end(), v) = c;
      t.parent[c] = p;
      t.parent[v] = SIZE_MAX;
      t.kid_count[v] = 0;
      changed = true;
    }
  }
  // Rebuild BFS order over the contracted tree.
  t.bfs.clear();
  t.bfs.push_back(root);
  for (std::size_t i = 0; i < t.bfs.size(); ++i) {
    for (std::size_t w : t.kids_of(t.bfs[i])) t.bfs.push_back(w);
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
  plan.source_rooted = common_source;
  const geom::Point2D root_pos = common_source ? first_src : first_dst;
  plan.junction_node = library.cheapest_node(
      common_source ? commlib::NodeKind::kDemux : commlib::NodeKind::kMux);
  if (!plan.junction_node) return std::nullopt;

  // Terminals: root first, then the spokes (arc order).
  const std::size_t k = subset.size();
  std::vector<geom::Point2D> terminals(k + 1);
  std::vector<double> demand(k);
  terminals[0] = root_pos;
  for (std::size_t i = 0; i < k; ++i) {
    const model::ArcId a = subset[i];
    terminals[i + 1] = common_source ? cg.position(cg.target(a))
                                     : cg.position(cg.source(a));
    demand[i] = cg.bandwidth(a);
  }
  plan.arcs = std::move(subset);

  geom::PlanarSteinerTree steiner =
      geom::steiner_tree_on_hanan_grid(terminals, norm);
  const std::size_t root = steiner.terminal_vertex.front();

  Oriented tree;
  if (!orient(steiner, root, tree)) return std::nullopt;

  const std::size_t n = steiner.vertices.size();
  std::vector<bool> is_terminal(n, false);
  for (std::size_t tv : steiner.terminal_vertex) is_terminal[tv] = true;
  contract_passthrough(tree, is_terminal, root);

  // Demand pulled through each vertex = combine over spokes in its subtree;
  // accumulate bottom-up over the BFS order.
  std::vector<double> pulled(n, 0.0);
  plan.spoke_vertex.resize(k);
  for (std::size_t i = 0; i < k; ++i) {
    plan.spoke_vertex[i] = steiner.terminal_vertex[i + 1];
  }
  auto combine = [&](double a, double b) {
    return policy == model::CapacityPolicy::kSharedSum ? a + b
                                                       : std::max(a, b);
  };
  for (std::size_t i = 0; i < k; ++i) {
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
  plan.edges.reserve(tree.bfs.size() - 1);
  for (std::size_t i = 1; i < tree.bfs.size(); ++i) {
    const std::size_t v = tree.bfs[i];
    const std::size_t p = tree.parent[v];
    const auto edge_plan = ptp.plan(
        geom::distance(steiner.vertices[p], steiner.vertices[v], norm),
        pulled[v]);
    if (!edge_plan) return std::nullopt;
    cost += edge_plan->cost;
    plan.edges.push_back(TreePlan::Edge{p, v, pulled[v], *edge_plan});
  }

  // Junction nodes: every non-root vertex with children, plus any vertex
  // serving several coincident spokes (distinct ports at one position must
  // each receive their own drop link from a shared junction).
  plan.is_junction.assign(n, false);
  std::vector<int> spokes_at(n, 0);
  for (std::size_t sv : plan.spoke_vertex) ++spokes_at[sv];
  for (std::size_t i = 1; i < tree.bfs.size(); ++i) {
    const std::size_t v = tree.bfs[i];
    if (tree.kid_count[v] != 0 || spokes_at[v] > 1) {
      plan.is_junction[v] = true;
      cost += library.node(*plan.junction_node).cost;
    }
  }
  plan.drop.resize(k);
  for (std::size_t i = 0; i < k; ++i) {
    if (plan.is_junction[plan.spoke_vertex[i]]) {
      const auto drop_plan = ptp.plan(0.0, demand[i]);
      if (!drop_plan) return std::nullopt;
      cost += drop_plan->cost;
      plan.drop[i] = drop_plan;
    }
  }
  plan.vertices = std::move(steiner.vertices);
  plan.cost = cost;
  return plan;
}

}  // namespace cdcs::synth
