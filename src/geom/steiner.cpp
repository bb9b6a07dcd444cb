#include "geom/steiner.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <stdexcept>

namespace cdcs::geom {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// All-pairs shortest paths with edge recovery (Floyd-Warshall; Steiner
/// graphs here are Hanan grids of <= ~100 vertices).
struct AllPairs {
  std::vector<double> dist;          // n x n
  std::vector<std::size_t> via_edge; // edge entering j on the best i->j path
  std::size_t n{0};

  double d(std::size_t i, std::size_t j) const { return dist[i * n + j]; }
};

AllPairs all_pairs(const SteinerGraph& g) {
  AllPairs ap;
  ap.n = g.num_vertices;
  ap.dist.assign(ap.n * ap.n, kInf);
  ap.via_edge.assign(ap.n * ap.n, SIZE_MAX);
  for (std::size_t v = 0; v < ap.n; ++v) ap.dist[v * ap.n + v] = 0.0;
  for (std::size_t e = 0; e < g.edges.size(); ++e) {
    const auto& edge = g.edges[e];
    if (edge.weight < ap.dist[edge.a * ap.n + edge.b]) {
      ap.dist[edge.a * ap.n + edge.b] = edge.weight;
      ap.dist[edge.b * ap.n + edge.a] = edge.weight;
      ap.via_edge[edge.a * ap.n + edge.b] = e;
      ap.via_edge[edge.b * ap.n + edge.a] = e;
    }
  }
  // Row k is skipped in pass k: 0 + d[k][j] is never below d[k][j]. The
  // relaxation is two selects rather than a branch.
  for (std::size_t k = 0; k < ap.n; ++k) {
    const double* dk = &ap.dist[k * ap.n];
    const std::size_t* vk = &ap.via_edge[k * ap.n];
    for (std::size_t i = 0; i < ap.n; ++i) {
      const double dik = ap.dist[i * ap.n + k];
      if (i == k || dik == kInf) continue;
      double* di = &ap.dist[i * ap.n];
      std::size_t* vi = &ap.via_edge[i * ap.n];
      for (std::size_t j = 0; j < ap.n; ++j) {
        const double alt = dik + dk[j];
        const bool lt = alt < di[j];
        di[j] = lt ? alt : di[j];
        vi[j] = lt ? vk[j] : vi[j];
      }
    }
  }
  return ap;
}

/// Appends the edges of the shortest path i -> j to `out` (repeats
/// allowed; the caller de-duplicates).
void collect_path(const SteinerGraph& g, const AllPairs& ap, std::size_t i,
                  std::size_t j, std::vector<std::size_t>& out) {
  while (j != i) {
    const std::size_t e = ap.via_edge[i * ap.n + j];
    if (e == SIZE_MAX) {
      throw std::runtime_error("steiner: terminals are not connected");
    }
    out.push_back(e);
    j = (g.edges[e].a == j) ? g.edges[e].b : g.edges[e].a;
  }
}

}  // namespace

SteinerTree steiner_in_graph(const SteinerGraph& g,
                             const std::vector<std::size_t>& terminals) {
  const std::size_t t = terminals.size();
  if (t == 0 || t > 16) {
    throw std::invalid_argument("steiner_in_graph: need 1..16 terminals");
  }
  for (std::size_t v : terminals) {
    if (v >= g.num_vertices) {
      throw std::invalid_argument("steiner_in_graph: terminal out of range");
    }
  }
  for (std::size_t i = 0; i < t; ++i) {
    for (std::size_t j = i + 1; j < t; ++j) {
      if (terminals[i] == terminals[j]) {
        throw std::invalid_argument("steiner_in_graph: duplicate terminals");
      }
    }
  }
  for (const auto& e : g.edges) {
    if (e.weight < 0.0) {
      throw std::invalid_argument("steiner_in_graph: negative edge weight");
    }
    if (e.a >= g.num_vertices || e.b >= g.num_vertices) {
      throw std::invalid_argument("steiner_in_graph: edge endpoint range");
    }
  }

  const AllPairs ap = all_pairs(g);
  const std::size_t n = g.num_vertices;
  SteinerTree tree;
  if (t == 1) {
    tree.cost = 0.0;
    return tree;
  }

  // Dreyfus-Wagner over terminals[0..t-2]; the last terminal is the root
  // the final tree is read off at.
  const std::size_t sets = std::size_t{1} << (t - 1);
  // dp[mask * n + v]; split_choice stores the submask when the value came
  // from a merge at v, walk_from the vertex u the value was walked in from.
  // Flat sets x n tables: three allocations, whatever the terminal count.
  std::vector<double> dp(sets * n, kInf);
  std::vector<std::uint32_t> split_choice(sets * n, 0);
  std::vector<std::size_t> walk_from(sets * n, SIZE_MAX);

  for (std::size_t i = 0; i + 1 < t; ++i) {
    double* const row = &dp[(std::size_t{1} << i) * n];
    for (std::size_t v = 0; v < n; ++v) row[v] = ap.d(terminals[i], v);
  }

  std::vector<double> merged(n);
  std::vector<std::uint32_t> merged_split(n);
  for (std::size_t mask = 1; mask < sets; ++mask) {
    if ((mask & (mask - 1)) == 0) continue;  // singleton: base case done
    // Merge: best split of `mask` at every vertex. Every vertex sees the
    // submasks in the same order, so sweeping them outermost keeps each
    // vertex's comparisons (and ties) while reading whole table rows.
    std::fill(merged.begin(), merged.end(), kInf);
    std::fill(merged_split.begin(), merged_split.end(), 0);
    // Enumerate submasks containing the lowest set bit (canonical halves).
    const std::size_t low = mask & (~mask + 1);
    for (std::size_t sub = (mask - 1) & mask; sub != 0;
         sub = (sub - 1) & mask) {
      if (!(sub & low)) continue;
      const double* const half = &dp[sub * n];
      const double* const rest = &dp[(mask ^ sub) * n];
      for (std::size_t v = 0; v < n; ++v) {
        const double c = half[v] + rest[v];
        if (c < merged[v]) {
          merged[v] = c;
          merged_split[v] = static_cast<std::uint32_t>(sub);
        }
      }
    }
    // Walk: propagate merged values along shortest paths.
    for (std::size_t v = 0; v < n; ++v) {
      double best = merged[v];
      std::size_t from = SIZE_MAX;  // SIZE_MAX = took the merge at v itself
      for (std::size_t u = 0; u < n; ++u) {
        const double c = merged[u] + ap.d(u, v);
        if (c < best) {
          best = c;
          from = u;
        }
      }
      dp[mask * n + v] = best;
      walk_from[mask * n + v] = from;
      split_choice[mask * n + v] =
          from == SIZE_MAX ? merged_split[v] : merged_split[from];
    }
  }

  const std::size_t root = terminals[t - 1];
  const std::size_t full = sets - 1;
  tree.cost = dp[full * n + root];
  if (tree.cost == kInf) {
    throw std::runtime_error("steiner_in_graph: terminals are not connected");
  }

  // Edge recovery, into a vector sorted and de-duplicated at the end.
  std::vector<std::size_t> edges;
  edges.reserve(n);
  struct Todo {
    std::size_t mask;
    std::size_t v;
  };
  std::vector<Todo> stack;
  stack.reserve(t);
  stack.push_back({full, root});
  while (!stack.empty()) {
    const Todo todo = stack.back();
    stack.pop_back();
    if ((todo.mask & (todo.mask - 1)) == 0) {
      // Singleton: shortest path terminal -> v.
      int idx = std::countr_zero(todo.mask);
      collect_path(g, ap, terminals[static_cast<std::size_t>(idx)], todo.v,
                   edges);
      continue;
    }
    std::size_t merge_at = todo.v;
    const std::size_t from = walk_from[todo.mask * n + todo.v];
    if (from != SIZE_MAX) {
      collect_path(g, ap, from, todo.v, edges);
      merge_at = from;
    }
    const std::size_t sub = split_choice[todo.mask * n + todo.v];
    stack.push_back({sub, merge_at});
    stack.push_back({todo.mask ^ sub, merge_at});
  }
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  tree.edges = std::move(edges);
  return tree;
}

PlanarSteinerTree steiner_tree_on_hanan_grid(
    const std::vector<Point2D>& terminals, Norm norm) {
  if (terminals.empty() || terminals.size() > 10) {
    throw std::invalid_argument(
        "steiner_tree_on_hanan_grid: need 1..10 terminals");
  }
  std::vector<double> xs;
  std::vector<double> ys;
  xs.reserve(terminals.size());
  ys.reserve(terminals.size());
  for (const Point2D& p : terminals) {
    xs.push_back(p.x);
    ys.push_back(p.y);
  }
  std::sort(xs.begin(), xs.end());
  xs.erase(std::unique(xs.begin(), xs.end()), xs.end());
  std::sort(ys.begin(), ys.end());
  ys.erase(std::unique(ys.begin(), ys.end()), ys.end());

  const std::size_t nx = xs.size();
  const std::size_t ny = ys.size();
  auto grid_index = [&](std::size_t ix, std::size_t iy) {
    return iy * nx + ix;
  };

  SteinerGraph g;
  g.num_vertices = nx * ny;
  g.edges.reserve(2 * nx * ny);
  std::vector<Point2D> grid_pos(g.num_vertices);
  for (std::size_t iy = 0; iy < ny; ++iy) {
    for (std::size_t ix = 0; ix < nx; ++ix) {
      grid_pos[grid_index(ix, iy)] = {xs[ix], ys[iy]};
      if (ix + 1 < nx) {
        g.edges.push_back({grid_index(ix, iy), grid_index(ix + 1, iy),
                           distance({xs[ix], ys[iy]}, {xs[ix + 1], ys[iy]},
                                    norm)});
      }
      if (iy + 1 < ny) {
        g.edges.push_back({grid_index(ix, iy), grid_index(ix, iy + 1),
                           distance({xs[ix], ys[iy]}, {xs[ix], ys[iy + 1]},
                                    norm)});
      }
    }
  }

  // Map terminals to grid vertices; dedupe coincident terminals.
  std::vector<std::size_t> terminal_grid(terminals.size());
  std::vector<std::size_t> unique_terms;
  unique_terms.reserve(terminals.size());
  for (std::size_t i = 0; i < terminals.size(); ++i) {
    const std::size_t ix =
        std::lower_bound(xs.begin(), xs.end(), terminals[i].x) - xs.begin();
    const std::size_t iy =
        std::lower_bound(ys.begin(), ys.end(), terminals[i].y) - ys.begin();
    terminal_grid[i] = grid_index(ix, iy);
    if (std::find(unique_terms.begin(), unique_terms.end(),
                  terminal_grid[i]) == unique_terms.end()) {
      unique_terms.push_back(terminal_grid[i]);
    }
  }

  const SteinerTree raw = steiner_in_graph(g, unique_terms);

  // Compact to the used vertex set: remap[gv] is the tree vertex of grid
  // vertex gv, SIZE_MAX until first use.
  PlanarSteinerTree out;
  out.cost = raw.cost;
  std::vector<std::size_t> remap(g.num_vertices, SIZE_MAX);
  out.vertices.reserve(unique_terms.size() + raw.edges.size());
  out.edges.reserve(raw.edges.size());
  auto intern = [&](std::size_t gv) {
    if (remap[gv] == SIZE_MAX) {
      remap[gv] = out.vertices.size();
      out.vertices.push_back(grid_pos[gv]);
    }
    return remap[gv];
  };
  for (std::size_t gv : unique_terms) intern(gv);  // terminals first
  for (std::size_t e : raw.edges) {
    const auto& edge = g.edges[e];
    out.edges.push_back(
        {intern(edge.a), intern(edge.b), edge.weight});
  }
  out.terminal_vertex.resize(terminals.size());
  for (std::size_t i = 0; i < terminals.size(); ++i) {
    out.terminal_vertex[i] = remap[terminal_grid[i]];
  }
  return out;
}

}  // namespace cdcs::geom
