// Edit deltas over a constraint graph (the model half of incremental
// synthesis; synth/engine.hpp is the consumer).
//
// A Delta is an ordered batch of edit operations addressing ports and
// channels BY NAME -- names are the only identity that survives the dense
// arc renumbering a RemoveArc causes, and they are what edit scripts
// (io/edit_script.hpp, data/edits/) are written in. apply_delta() resolves
// the names, applies the operations in order through the revision-stamped
// ConstraintGraph mutation API, and reports which arcs the batch dirtied
// (post-apply ids) plus the old-id -> new-id remap when arcs were removed.
//
// Atomicity: apply_delta validates against a scratch copy first, so a
// rejected batch (unknown name, duplicate port, non-finite value, ...)
// leaves the input graph completely untouched.
#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "model/constraint_graph.hpp"

namespace cdcs::model {

struct AddPortOp {
  std::string port;  ///< must not collide with an existing port name
  geom::Point2D position;
};

struct AddArcOp {
  std::string channel;  ///< must not collide with an existing channel name
  std::string source;   ///< port name
  std::string target;   ///< port name
  double bandwidth{0.0};
};

struct RemoveArcOp {
  std::string channel;
};

struct SetBandwidthOp {
  std::string channel;
  double bandwidth{0.0};
};

struct MovePortOp {
  std::string port;
  geom::Point2D to;
};

using EditOp =
    std::variant<AddPortOp, AddArcOp, RemoveArcOp, SetBandwidthOp, MovePortOp>;

/// Human-readable op kind ("add-port", "move-port", ...) for diagnostics.
std::string_view op_kind(const EditOp& op);

/// One atomic batch of edits; synthesis happens between batches, never
/// between the ops of one batch.
struct Delta {
  std::vector<EditOp> ops;

  bool empty() const { return ops.empty(); }
};

/// What a successfully applied batch changed, in post-apply arc ids.
struct DeltaEffect {
  /// Arcs whose pricing inputs changed: added arcs, bandwidth edits, and
  /// every arc incident to a moved port. Sorted ascending, deduplicated.
  std::vector<ArcId> dirty_arcs;
  std::uint64_t revision_before{0};
  std::uint64_t revision_after{0};
};

/// Applies `delta` to `cg` in op order. On any failure the graph is left
/// unmodified and a kInvalidInput status names the offending op.
support::Expected<DeltaEffect> apply_delta(ConstraintGraph& cg,
                                           const Delta& delta);

}  // namespace cdcs::model
