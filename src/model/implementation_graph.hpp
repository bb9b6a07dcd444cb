// The implementation graph G'(G, L) of Definition 2.4, together with paths
// (Def 2.3), arc implementations, their cost (Def 2.5) and their structural
// classification (Def 2.7 / 2.8).
//
// Vertices are either *computational* -- mirrors of constraint-graph vertices
// through the bijection chi, created eagerly by the constructor so that
// chi(v) has the same numeric index as v -- or *communication* vertices, each
// mapped (psi) to a library node. Arcs are mapped (phi) to library links and
// carry the concrete span they cover; an arc is legal only if its span does
// not exceed d(l) of its link.
//
// Arc implementations P(a) are stored as path lists per constraint arc.
// Paths may share implementation arcs across different constraint arcs --
// that sharing is exactly the K-way merging of Def 2.8 and is why
// C(G') <= sum_a C(P(a)) (Eq. 2): shared elements are counted once in
// Def 2.5's cost but once per arc in the per-implementation sum.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "commlib/library.hpp"
#include "model/constraint_graph.hpp"

namespace cdcs::model {

/// A path q in the implementation graph: the ordered arc sequence
/// (vertices are implied: source of first arc, then targets).
struct Path {
  std::vector<ArcId> arcs;
};

/// Structural shape of an arc implementation (Def 2.7) or of the union of
/// several (Def 2.8).
enum class ImplKind {
  kMatching,      ///< exactly one library link
  kSegmentation,  ///< one path, >= 2 links chained through repeaters
  kDuplication,   ///< >= 2 parallel single-link paths
  kCompound,      ///< one arc, several multi-link paths (seg x dup)
  kMergedShare,   ///< the implementation shares arcs with another constraint's
};

std::string_view to_string(ImplKind kind);

class ImplementationGraph {
 public:
  struct CommVertex {
    commlib::NodeIndex node;  ///< psi: which library node this instantiates
    geom::Point2D position;
  };

  struct LinkArc {
    commlib::LinkIndex link;  ///< phi: which library link this instantiates
    double span;              ///< concrete length covered by this instance
  };

  /// Mirrors every constraint vertex as a computational vertex; chi(v) is the
  /// implementation vertex with the same index() as v.
  ImplementationGraph(const ConstraintGraph& constraints,
                      const commlib::Library& library);
  /// The graph keeps pointers to both arguments; a temporary would dangle.
  ImplementationGraph(const ConstraintGraph& constraints,
                      const commlib::Library&& library) = delete;
  ImplementationGraph(const ConstraintGraph&& constraints,
                      const commlib::Library& library) = delete;

  const ConstraintGraph& constraints() const { return *constraints_; }
  const commlib::Library& library() const { return *library_; }

  /// chi: constraint vertex -> implementation vertex (same index).
  VertexId chi(VertexId constraint_vertex) const { return constraint_vertex; }

  bool is_computational(VertexId v) const {
    return v.index() < num_computational_;
  }
  bool is_communication(VertexId v) const { return !is_computational(v); }

  /// Adds a communication vertex mapped to library node `node` at `position`.
  VertexId add_comm_vertex(commlib::NodeIndex node, geom::Point2D position);

  /// Adds an arc u -> v mapped to library link `link`. The span is the
  /// geometric distance between the endpoints under the constraint graph's
  /// norm; throws std::invalid_argument when it exceeds the link's d(l)
  /// (beyond a tiny numeric tolerance).
  ArcId add_link_arc(VertexId u, VertexId v, commlib::LinkIndex link);

  /// Declares that `path` is one of the paths implementing `constraint_arc`.
  /// Checks Def 2.4 path-shape conditions eagerly: contiguity, endpoints
  /// chi(u)/chi(v), distinct vertices, intermediates all communication
  /// vertices.
  void register_path(ArcId constraint_arc, Path path);

  std::size_t num_vertices() const { return g_.num_vertices(); }
  std::size_t num_comm_vertices() const {
    return g_.num_vertices() - num_computational_;
  }
  std::size_t num_link_arcs() const { return g_.num_arcs(); }

  geom::Point2D position(VertexId v) const;
  const CommVertex& comm_vertex(VertexId v) const;
  const LinkArc& link_arc(ArcId a) const { return g_.arc(a).payload; }
  VertexId arc_source(ArcId a) const { return g_.source(a); }
  VertexId arc_target(ArcId a) const { return g_.target(a); }

  /// Arc properties inherited from the mapped link / concrete instance.
  double arc_cost(ArcId a) const;
  double arc_bandwidth(ArcId a) const;
  double arc_span(ArcId a) const { return link_arc(a).span; }

  /// Path properties of Def 2.3 over implementation arcs.
  double path_length(const Path& q) const;
  double path_bandwidth(const Path& q) const;  ///< min over arcs of b
  double path_cost(const Path& q) const;

  /// The arc implementation P(a) registered for a constraint arc.
  const std::vector<Path>& arc_implementation(ArcId constraint_arc) const;

  /// C(P(a)): cost of an arc implementation counting each element once per
  /// use (the per-candidate cost of Def 2.4, before sharing discounts).
  double arc_implementation_cost(ArcId constraint_arc) const;

  /// Def 2.5: total cost counting every comm vertex and link arc exactly once.
  double cost() const;

  /// Classifies P(a) per Def 2.7/2.8. kMergedShare when any of its arcs also
  /// appears in another constraint arc's implementation.
  ImplKind classify(ArcId constraint_arc) const;

  /// Number of comm vertices mapped to nodes acting as `kind` (by their
  /// library node's declared kind, not by graph degree).
  std::size_t count_nodes(commlib::NodeKind kind) const;

  const std::vector<ArcId>& out_arcs(VertexId v) const { return g_.out_arcs(v); }
  const std::vector<ArcId>& in_arcs(VertexId v) const { return g_.in_arcs(v); }

 private:
  const ConstraintGraph* constraints_;
  const commlib::Library* library_;
  std::size_t num_computational_{0};

  // Payloads: computational vertices carry no CommVertex; we store
  // optional to keep a single vertex sequence with stable ids.
  graph::Digraph<std::optional<CommVertex>, LinkArc> g_;

  // P(a) indexed by constraint-arc index.
  std::vector<std::vector<Path>> arc_impls_;
};

}  // namespace cdcs::model
