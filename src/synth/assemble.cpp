#include "synth/assemble.hpp"

#include <stdexcept>

namespace cdcs::synth {
namespace {

using model::ArcId;
using model::ImplementationGraph;
using model::Path;
using model::VertexId;

/// Realizes a PtpPlan between two existing vertices: `parallel` chains of
/// `segments` links each, repeaters along the way, mux/demux accounting
/// vertices for bundles. Returns one arc sequence per chain.
std::vector<std::vector<ArcId>> realize_chains(ImplementationGraph& impl,
                                               VertexId from, VertexId to,
                                               const PtpPlan& plan) {
  const geom::Point2D p_from = impl.position(from);
  const geom::Point2D p_to = impl.position(to);

  if (plan.parallel > 1) {
    // Cost accounting for the bundle's mux/demux pair (see header).
    impl.add_comm_vertex(*plan.mux, p_from);
    impl.add_comm_vertex(*plan.demux, p_to);
  }

  std::vector<std::vector<ArcId>> chains;
  chains.reserve(plan.parallel);
  for (int m = 0; m < plan.parallel; ++m) {
    std::vector<ArcId> chain;
    VertexId cur = from;
    for (int s = 1; s <= plan.segments; ++s) {
      VertexId next;
      if (s == plan.segments) {
        next = to;
      } else {
        next = impl.add_comm_vertex(
            *plan.repeater,
            geom::lerp(p_from, p_to,
                       static_cast<double>(s) / plan.segments));
      }
      chain.push_back(impl.add_link_arc(cur, next, plan.link));
      cur = next;
    }
    chains.push_back(std::move(chain));
  }
  return chains;
}

void realize_ptp(ImplementationGraph& impl, ArcId arc, const PtpPlan& plan) {
  const auto& cg = impl.constraints();
  const std::vector<std::vector<ArcId>> chains = realize_chains(
      impl, impl.chi(cg.source(arc)), impl.chi(cg.target(arc)), plan);
  for (const std::vector<ArcId>& chain : chains) {
    impl.register_path(arc, Path{chain});
  }
}

void realize(ImplementationGraph& impl, const MergingPlan& plan) {
  const auto& cg = impl.constraints();

  const VertexId hub = plan.has_hub
                           ? impl.add_comm_vertex(*plan.hub_node, plan.hub_pos)
                           : impl.chi(cg.source(plan.arcs.front()));
  const VertexId split =
      plan.has_split ? impl.add_comm_vertex(*plan.split_node, plan.split_pos)
                     : impl.chi(cg.target(plan.arcs.front()));

  if (!plan.trunk) {
    throw std::logic_error("assemble: merging plan without trunk");
  }
  const std::vector<std::vector<ArcId>> trunk_chains =
      realize_chains(impl, hub, split, *plan.trunk);

  for (std::size_t i = 0; i < plan.arcs.size(); ++i) {
    const ArcId arc = plan.arcs[i];
    std::vector<std::vector<ArcId>> ingress_chains{{}};
    if (plan.ingress[i]) {
      ingress_chains = realize_chains(impl, impl.chi(cg.source(arc)), hub,
                                      *plan.ingress[i]);
    }
    std::vector<std::vector<ArcId>> egress_chains{{}};
    if (plan.egress[i]) {
      egress_chains = realize_chains(impl, split, impl.chi(cg.target(arc)),
                                     *plan.egress[i]);
    }
    // One path per (ingress chain, trunk chain, egress chain) combination;
    // flows split across them as capacity allows.
    for (const auto& in : ingress_chains) {
      for (const auto& tr : trunk_chains) {
        for (const auto& eg : egress_chains) {
          Path path;
          path.arcs.reserve(in.size() + tr.size() + eg.size());
          path.arcs.insert(path.arcs.end(), in.begin(), in.end());
          path.arcs.insert(path.arcs.end(), tr.begin(), tr.end());
          path.arcs.insert(path.arcs.end(), eg.begin(), eg.end());
          impl.register_path(arc, std::move(path));
        }
      }
    }
  }
}

void realize(ImplementationGraph& impl, const ChainPlan& plan) {
  const auto& cg = impl.constraints();
  const std::size_t k = plan.arcs.size();

  // Chain vertex sequence: root, drop_1..drop_{k-1}, terminus. Root and
  // terminus are computational vertices; drops are library nodes.
  std::vector<VertexId> nodes;
  nodes.reserve(k + 1);
  const ArcId first = plan.arcs.front();
  const ArcId last = plan.arcs.back();
  nodes.push_back(plan.source_rooted ? impl.chi(cg.source(first))
                                     : impl.chi(cg.target(first)));
  for (const geom::Point2D& p : plan.drop_pos) {
    nodes.push_back(impl.add_comm_vertex(*plan.drop_node, p));
  }
  nodes.push_back(plan.source_rooted ? impl.chi(cg.target(last))
                                     : impl.chi(cg.source(last)));

  // Trunk segments run root -> terminus when source-rooted and terminus ->
  // root when target-rooted (flows travel toward the common target).
  std::vector<std::vector<std::vector<ArcId>>> seg_chains(k);
  for (std::size_t j = 0; j < k; ++j) {
    const VertexId from = plan.source_rooted ? nodes[j] : nodes[j + 1];
    const VertexId to = plan.source_rooted ? nodes[j + 1] : nodes[j];
    seg_chains[j] = realize_chains(impl, from, to, plan.segments[j]);
  }

  for (std::size_t i = 0; i < k; ++i) {
    const ArcId arc = plan.arcs[i];
    // Trunk portion: segments 0..i (arc i leaves/enters at drop i+1; the
    // last arc travels the whole trunk).
    const std::size_t used = std::min(i + 1, k);
    // Leg: drop node <-> the arc's own port (absent for the last arc).
    std::vector<std::vector<ArcId>> leg_chains{{}};
    if (i + 1 < k) {
      const VertexId drop = nodes[i + 1];
      if (plan.source_rooted) {
        leg_chains =
            realize_chains(impl, drop, impl.chi(cg.target(arc)), plan.legs[i]);
      } else {
        leg_chains =
            realize_chains(impl, impl.chi(cg.source(arc)), drop, plan.legs[i]);
      }
    }
    // One path per combination of per-segment parallel chains would explode
    // for duplicated trunks; paths are registered per parallel rank instead
    // (rank r uses the r-th chain of every segment, wrapping around), which
    // covers every link with at least one path and keeps path counts linear.
    std::size_t max_par = 1;
    for (std::size_t j = 0; j < used; ++j) {
      max_par = std::max(max_par, seg_chains[j].size());
    }
    max_par = std::max(max_par, leg_chains.size());
    for (std::size_t r = 0; r < max_par; ++r) {
      Path path;
      if (plan.source_rooted) {
        for (std::size_t j = 0; j < used; ++j) {
          const auto& chain = seg_chains[j][r % seg_chains[j].size()];
          path.arcs.insert(path.arcs.end(), chain.begin(), chain.end());
        }
        const auto& leg = leg_chains[r % leg_chains.size()];
        path.arcs.insert(path.arcs.end(), leg.begin(), leg.end());
      } else {
        const auto& leg = leg_chains[r % leg_chains.size()];
        path.arcs.insert(path.arcs.end(), leg.begin(), leg.end());
        // Toward the root: traverse used segments in reverse order.
        for (std::size_t j = used; j-- > 0;) {
          const auto& chain = seg_chains[j][r % seg_chains[j].size()];
          path.arcs.insert(path.arcs.end(), chain.begin(), chain.end());
        }
      }
      impl.register_path(arc, std::move(path));
    }
  }
}

void realize(ImplementationGraph& impl, const TreePlan& plan) {
  const auto& cg = impl.constraints();

  // Map tree vertices to implementation vertices: the root is the common
  // computational port; junctions become library-node vertices; pure-leaf
  // spokes resolve to their own ports (per arc, below).
  const ArcId first = plan.arcs.front();
  const VertexId root_v = plan.source_rooted ? impl.chi(cg.source(first))
                                             : impl.chi(cg.target(first));
  std::vector<VertexId> vertex_of(plan.vertices.size(), VertexId{});
  // Root index in the plan is edges' ultimate ancestor; find it as the
  // parent that never appears as a child.
  std::vector<bool> is_child(plan.vertices.size(), false);
  for (const auto& e : plan.edges) is_child[e.child] = true;
  std::size_t root_idx = SIZE_MAX;
  for (const auto& e : plan.edges) {
    if (!is_child[e.parent]) root_idx = e.parent;
  }
  if (root_idx == SIZE_MAX) {
    throw std::logic_error("assemble: tree plan without root");
  }
  vertex_of[root_idx] = root_v;
  for (std::size_t v = 0; v < plan.vertices.size(); ++v) {
    if (plan.is_junction[v]) {
      vertex_of[v] = impl.add_comm_vertex(*plan.junction_node,
                                          plan.vertices[v]);
    }
  }
  // Pure-leaf spokes: the arc's own port.
  for (std::size_t i = 0; i < plan.arcs.size(); ++i) {
    const std::size_t tv = plan.spoke_vertex[i];
    if (!plan.is_junction[tv] && tv != root_idx) {
      vertex_of[tv] = plan.source_rooted
                          ? impl.chi(cg.target(plan.arcs[i]))
                          : impl.chi(cg.source(plan.arcs[i]));
    }
  }

  // Realize the edges (direction follows traffic: away from the root when
  // source-rooted, toward it otherwise).
  std::vector<std::vector<std::vector<ArcId>>> edge_chains(plan.edges.size());
  std::vector<std::size_t> parent_edge(plan.vertices.size(), SIZE_MAX);
  for (std::size_t e = 0; e < plan.edges.size(); ++e) {
    const auto& edge = plan.edges[e];
    parent_edge[edge.child] = e;
    const VertexId from = plan.source_rooted ? vertex_of[edge.parent]
                                             : vertex_of[edge.child];
    const VertexId to = plan.source_rooted ? vertex_of[edge.child]
                                           : vertex_of[edge.parent];
    edge_chains[e] = realize_chains(impl, from, to, edge.plan);
  }

  for (std::size_t i = 0; i < plan.arcs.size(); ++i) {
    const ArcId arc = plan.arcs[i];
    // Edges on the root -> spoke path, root-side first.
    std::vector<std::size_t> route;
    for (std::size_t v = plan.spoke_vertex[i]; parent_edge[v] != SIZE_MAX;
         v = plan.edges[parent_edge[v]].parent) {
      route.push_back(parent_edge[v]);
    }
    std::reverse(route.begin(), route.end());

    // Drop link for spokes sitting at junctions.
    std::vector<std::vector<ArcId>> drop_chains{{}};
    if (plan.drop[i]) {
      const VertexId junction = vertex_of[plan.spoke_vertex[i]];
      if (plan.source_rooted) {
        drop_chains = realize_chains(impl, junction,
                                     impl.chi(cg.target(arc)), *plan.drop[i]);
      } else {
        drop_chains = realize_chains(impl, impl.chi(cg.source(arc)),
                                     junction, *plan.drop[i]);
      }
    }

    std::size_t max_par = drop_chains.size();
    for (std::size_t e : route) {
      max_par = std::max(max_par, edge_chains[e].size());
    }
    for (std::size_t r = 0; r < max_par; ++r) {
      Path path;
      if (plan.source_rooted) {
        for (std::size_t e : route) {
          const auto& chain = edge_chains[e][r % edge_chains[e].size()];
          path.arcs.insert(path.arcs.end(), chain.begin(), chain.end());
        }
        const auto& drop = drop_chains[r % drop_chains.size()];
        path.arcs.insert(path.arcs.end(), drop.begin(), drop.end());
      } else {
        const auto& drop = drop_chains[r % drop_chains.size()];
        path.arcs.insert(path.arcs.end(), drop.begin(), drop.end());
        for (std::size_t idx = route.size(); idx-- > 0;) {
          const auto& chain =
              edge_chains[route[idx]][r % edge_chains[route[idx]].size()];
          path.arcs.insert(path.arcs.end(), chain.begin(), chain.end());
        }
      }
      impl.register_path(arc, std::move(path));
    }
  }
}

}  // namespace

std::unique_ptr<model::ImplementationGraph> assemble(
    const model::ConstraintGraph& cg, const commlib::Library& library,
    const std::vector<Candidate>& candidates,
    const std::vector<std::size_t>& chosen) {
  std::vector<bool> covered(cg.num_channels(), false);
  for (std::size_t idx : chosen) {
    for (ArcId a : candidates.at(idx).arcs) covered[a.index()] = true;
  }
  for (std::size_t i = 0; i < covered.size(); ++i) {
    if (!covered[i]) {
      throw std::invalid_argument(
          "assemble: chosen candidates do not cover constraint arc #" +
          std::to_string(i + 1));
    }
  }

  auto impl = std::make_unique<ImplementationGraph>(cg, library);
  for (std::size_t idx : chosen) {
    const Candidate& c = candidates.at(idx);
    std::visit(Overloaded{[&](const PtpPlan& p) {
                            realize_ptp(*impl, c.arcs.front(), p);
                          },
                          [&](const auto& p) { realize(*impl, p); }},
               c.plan);
  }
  return impl;
}

}  // namespace cdcs::synth
