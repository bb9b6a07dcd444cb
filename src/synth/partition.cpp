#include "synth/partition.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>
#include <utility>

#include "geom/norm.hpp"

namespace cdcs::synth {
namespace {

/// Slack multiplier on the Lemma 3.1 mergeability radius used to flag
/// boundary arcs: arc `a` in cluster C is boundary when some other cluster
/// C' has 2*dist(m_a, bbox(C')) < margin*(d(a) + maxlen(C')). 1.0 = exactly
/// the radius within which a cross-cluster pair could survive the geometric
/// pruning.
constexpr double kBoundaryMargin = 1.0;

struct ArcGeom {
  geom::Point2D mid;
  double len{0.0};
};

/// Norm-distance from a point to an axis-aligned box (0 inside). A valid
/// lower bound on the distance to any point of the box for every supported
/// norm, because each norm is coordinate-wise monotone in |dx|, |dy|.
double point_box_distance(geom::Point2D p, const geom::BBox& box,
                          geom::Norm norm) {
  if (box.empty()) return std::numeric_limits<double>::infinity();
  return geom::distance(p, box.clamp(p), norm);
}

/// Norm-distance lower bound between two boxes: the per-axis gaps form a
/// displacement no pair of contained points can undercut.
double box_box_distance(const geom::BBox& a, const geom::BBox& b,
                        geom::Norm norm) {
  if (a.empty() || b.empty()) return std::numeric_limits<double>::infinity();
  const double dx =
      std::max({0.0, a.min_x - b.max_x, b.min_x - a.max_x});
  const double dy =
      std::max({0.0, a.min_y - b.max_y, b.min_y - a.max_y});
  return geom::length({dx, dy}, norm);
}

/// Recursive k-d median split of `idx` (arc indices) on midpoint
/// coordinates until every leaf holds at most `leaf_size` arcs. Leaves are
/// emitted in DFS order (low side first); ties in the split coordinate are
/// broken by arc index, so the output is a pure function of the geometry.
void kd_split(const std::vector<ArcGeom>& g, std::vector<std::size_t> idx,
              std::size_t leaf_size,
              std::vector<std::vector<std::size_t>>& leaves) {
  if (idx.size() <= leaf_size) {
    leaves.push_back(std::move(idx));
    return;
  }
  geom::BBox box;
  for (std::size_t i : idx) box.expand(g[i].mid);
  const bool split_x = box.width() >= box.height();
  std::sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
    const double ca = split_x ? g[a].mid.x : g[a].mid.y;
    const double cb = split_x ? g[b].mid.x : g[b].mid.y;
    if (ca != cb) return ca < cb;
    return a < b;
  });
  const std::size_t half = idx.size() / 2;
  std::vector<std::size_t> lo(idx.begin(), idx.begin() + half);
  std::vector<std::size_t> hi(idx.begin() + half, idx.end());
  kd_split(g, std::move(lo), leaf_size, leaves);
  kd_split(g, std::move(hi), leaf_size, leaves);
}

/// Plain union-find over a fixed universe [0, n).
struct UnionFind {
  std::vector<std::size_t> parent;
  explicit UnionFind(std::size_t n) : parent(n) {
    std::iota(parent.begin(), parent.end(), std::size_t{0});
  }
  std::size_t find(std::size_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  }
  void unite(std::size_t a, std::size_t b) {
    a = find(a);
    b = find(b);
    if (a != b) parent[std::max(a, b)] = std::min(a, b);
  }
};

Cluster make_cluster(std::vector<std::size_t> members,
                     const std::vector<ArcGeom>& g, bool repair) {
  std::sort(members.begin(), members.end());
  Cluster c;
  c.repair = repair;
  c.arcs.reserve(members.size());
  for (std::size_t i : members) {
    c.arcs.push_back(model::ArcId{static_cast<std::uint32_t>(i)});
    c.midpoint_bbox.expand(g[i].mid);
    c.max_arc_length = std::max(c.max_arc_length, g[i].len);
  }
  return c;
}

/// Splits one k-d leaf into endpoint-connected components, then re-merges
/// any two components the bbox separation test cannot PROVE unmergeable:
/// components C1, C2 stay apart only when for every a in C1, b in C2
///   2*||m_a - m_b|| >= 2*dist(bbox(C1), bbox(C2))
///                   >= maxlen(C1) + maxlen(C2) >= d(a) + d(b),
/// i.e. Lemma 3.1 prunes every cross pair (and with it every larger subset
/// spanning both: enumeration grows subsets from surviving pairs). The
/// refinement is therefore lossless for 2-way merges by construction.
std::vector<Cluster> refine_leaf(const std::vector<std::size_t>& leaf,
                                 const model::ConstraintGraph& cg,
                                 const std::vector<ArcGeom>& g) {
  std::vector<Cluster> out;
  if (leaf.empty()) return out;

  // Endpoint components within the leaf.
  UnionFind uf(leaf.size());
  std::vector<std::pair<std::uint32_t, std::size_t>> touch;  // (vertex, pos)
  touch.reserve(leaf.size() * 2);
  for (std::size_t p = 0; p < leaf.size(); ++p) {
    const model::ArcId a{static_cast<std::uint32_t>(leaf[p])};
    touch.emplace_back(static_cast<std::uint32_t>(cg.source(a).index()), p);
    touch.emplace_back(static_cast<std::uint32_t>(cg.target(a).index()), p);
  }
  std::sort(touch.begin(), touch.end());
  for (std::size_t i = 1; i < touch.size(); ++i) {
    if (touch[i].first == touch[i - 1].first) {
      uf.unite(touch[i].second, touch[i - 1].second);
    }
  }

  // Component geometry, keyed by root position (ascending -> stable order).
  std::vector<std::size_t> roots;
  for (std::size_t p = 0; p < leaf.size(); ++p) {
    if (uf.find(p) == p) roots.push_back(p);
  }
  std::vector<geom::BBox> boxes(roots.size());
  std::vector<double> maxlen(roots.size(), 0.0);
  std::vector<std::size_t> comp_of(leaf.size());
  for (std::size_t p = 0; p < leaf.size(); ++p) {
    const std::size_t r = uf.find(p);
    const std::size_t ci = static_cast<std::size_t>(
        std::lower_bound(roots.begin(), roots.end(), r) - roots.begin());
    comp_of[p] = ci;
    boxes[ci].expand(g[leaf[p]].mid);
    maxlen[ci] = std::max(maxlen[ci], g[leaf[p]].len);
  }

  // Re-merge components whose separation is NOT proven.
  UnionFind cf(roots.size());
  for (std::size_t i = 0; i < roots.size(); ++i) {
    for (std::size_t j = i + 1; j < roots.size(); ++j) {
      const double lb = box_box_distance(boxes[i], boxes[j], cg.norm());
      if (2.0 * lb < maxlen[i] + maxlen[j]) cf.unite(i, j);
    }
  }

  // Emit final groups ordered by their smallest member arc index (the leaf
  // is already index-sorted per group construction below).
  std::vector<std::vector<std::size_t>> groups(roots.size());
  for (std::size_t p = 0; p < leaf.size(); ++p) {
    groups[cf.find(comp_of[p])].push_back(leaf[p]);
  }
  std::vector<std::size_t> order;
  for (std::size_t gi = 0; gi < groups.size(); ++gi) {
    if (!groups[gi].empty()) order.push_back(gi);
  }
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return *std::min_element(groups[a].begin(), groups[a].end()) <
           *std::min_element(groups[b].begin(), groups[b].end());
  });
  for (std::size_t gi : order) {
    out.push_back(make_cluster(std::move(groups[gi]), g, /*repair=*/false));
  }
  return out;
}

void rebuild_geometry(Cluster& c, const std::vector<ArcGeom>& g) {
  c.midpoint_bbox = geom::BBox{};
  c.max_arc_length = 0.0;
  for (model::ArcId a : c.arcs) {
    c.midpoint_bbox.expand(g[a.index()].mid);
    c.max_arc_length = std::max(c.max_arc_length, g[a.index()].len);
  }
}

}  // namespace

Partition partition_graph(const model::ConstraintGraph& cg,
                          const PartitioningOptions& opts) {
  const std::size_t n = cg.num_channels();
  const std::size_t leaf_size = std::max<std::size_t>(1, opts.max_cluster_arcs);

  std::vector<ArcGeom> g(n);
  for (std::size_t i = 0; i < n; ++i) {
    const model::ArcId a{static_cast<std::uint32_t>(i)};
    const geom::Point2D u = cg.position(cg.source(a));
    const geom::Point2D v = cg.position(cg.target(a));
    g[i].mid = geom::lerp(u, v, 0.5);
    g[i].len = cg.distance(a);
  }

  Partition part;
  std::vector<std::size_t> all(n);
  std::iota(all.begin(), all.end(), std::size_t{0});

  std::vector<std::vector<std::size_t>> leaves;
  kd_split(g, std::move(all), leaf_size, leaves);
  for (const std::vector<std::size_t>& leaf : leaves) {
    std::vector<Cluster> refined = refine_leaf(leaf, cg, g);
    for (Cluster& c : refined) part.clusters.push_back(std::move(c));
  }

  // Boundary extraction (only meaningful with at least two clusters).
  if (part.clusters.size() > 1 && opts.max_boundary_fraction > 0.0) {
    struct Candidate {
      double score;       // violation margin; larger = more boundary-like
      std::size_t arc;    // global arc index
      std::size_t owner;  // owning cluster
    };
    std::vector<Candidate> cands;
    for (std::size_t ci = 0; ci < part.clusters.size(); ++ci) {
      for (model::ArcId a : part.clusters[ci].arcs) {
        double best = 0.0;
        for (std::size_t cj = 0; cj < part.clusters.size(); ++cj) {
          if (cj == ci) continue;
          const Cluster& other = part.clusters[cj];
          const double lb =
              point_box_distance(g[a.index()].mid, other.midpoint_bbox,
                                 cg.norm());
          const double radius = kBoundaryMargin *
                                (g[a.index()].len + other.max_arc_length);
          if (2.0 * lb < radius) best = std::max(best, radius - 2.0 * lb);
        }
        if (best > 0.0) cands.push_back({best, a.index(), ci});
      }
    }
    const std::size_t cap = static_cast<std::size_t>(
        opts.max_boundary_fraction * static_cast<double>(n));
    if (cands.size() > cap) {
      std::sort(cands.begin(), cands.end(),
                [](const Candidate& a, const Candidate& b) {
                  if (a.score != b.score) return a.score > b.score;
                  return a.arc < b.arc;
                });
      cands.resize(cap);
    }
    if (!cands.empty()) {
      std::vector<std::size_t> boundary;
      std::vector<char> is_boundary(n, 0);
      for (const Candidate& c : cands) {
        boundary.push_back(c.arc);
        is_boundary[c.arc] = 1;
      }
      std::sort(boundary.begin(), boundary.end());
      for (std::size_t b : boundary) {
        part.boundary_arcs.push_back(
            model::ArcId{static_cast<std::uint32_t>(b)});
      }
      // Strip boundary arcs out of their interior clusters.
      std::vector<Cluster> kept;
      for (Cluster& c : part.clusters) {
        std::vector<model::ArcId> rest;
        for (model::ArcId a : c.arcs) {
          if (!is_boundary[a.index()]) rest.push_back(a);
        }
        if (rest.empty()) continue;
        c.arcs = std::move(rest);
        rebuild_geometry(c, g);
        kept.push_back(std::move(c));
      }
      part.clusters = std::move(kept);
      part.num_interior = part.clusters.size();
      // Repair groups: k-d split of the boundary arcs (no further
      // refinement or extraction -- this IS the repair pass's scope).
      std::vector<std::vector<std::size_t>> repair_leaves;
      kd_split(g, std::move(boundary), leaf_size, repair_leaves);
      for (std::vector<std::size_t>& leaf : repair_leaves) {
        part.clusters.push_back(make_cluster(std::move(leaf), g,
                                             /*repair=*/true));
      }
      return part;
    }
  }
  part.num_interior = part.clusters.size();
  return part;
}

model::ConstraintGraph cluster_subgraph(const model::ConstraintGraph& cg,
                                        const Cluster& cluster) {
  std::vector<std::uint32_t> verts;
  verts.reserve(cluster.arcs.size() * 2);
  for (model::ArcId a : cluster.arcs) {
    verts.push_back(static_cast<std::uint32_t>(cg.source(a).index()));
    verts.push_back(static_cast<std::uint32_t>(cg.target(a).index()));
  }
  std::sort(verts.begin(), verts.end());
  verts.erase(std::unique(verts.begin(), verts.end()), verts.end());

  model::ConstraintGraph sub(cg.norm());
  std::vector<model::VertexId> local;
  local.reserve(verts.size());
  for (std::uint32_t v : verts) {
    const model::VertexId gv{v};
    local.push_back(sub.add_port(cg.port(gv).name, cg.position(gv)));
  }
  auto local_of = [&](model::VertexId gv) {
    const std::size_t pos = static_cast<std::size_t>(
        std::lower_bound(verts.begin(), verts.end(),
                         static_cast<std::uint32_t>(gv.index())) -
        verts.begin());
    return local[pos];
  };
  for (model::ArcId a : cluster.arcs) {
    sub.add_channel(local_of(cg.source(a)), local_of(cg.target(a)),
                    cg.bandwidth(a), cg.channel(a).name);
  }
  return sub;
}

}  // namespace cdcs::synth
