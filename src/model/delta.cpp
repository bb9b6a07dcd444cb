#include "model/delta.hpp"

#include <algorithm>
#include <unordered_map>
#include <utility>

namespace cdcs::model {
namespace {

using support::Expected;
using support::Status;

/// Name -> id indexes over the CURRENT state of a graph being edited,
/// maintained incrementally across the ops of one batch.
struct NameIndex {
  std::unordered_map<std::string, VertexId> ports;
  std::unordered_map<std::string, ArcId> channels;

  explicit NameIndex(const ConstraintGraph& cg) {
    for (VertexId v : cg.ports()) ports.emplace(cg.port(v).name, v);
    for (ArcId a : cg.arcs()) channels.emplace(cg.channel(a).name, a);
  }

  void remap_channels(const std::vector<ArcId>& old_to_new) {
    for (auto it = channels.begin(); it != channels.end();) {
      const ArcId mapped = old_to_new[it->second.index()];
      if (!mapped.valid()) {
        it = channels.erase(it);
      } else {
        it->second = mapped;
        ++it;
      }
    }
  }
};

/// Applies one op; records dirtied channels by name (names survive the
/// renumbering that removals cause).
Status apply_op(ConstraintGraph& cg, const EditOp& op, NameIndex& names,
                std::vector<std::string>& dirty_names) {
  if (const auto* add = std::get_if<AddPortOp>(&op)) {
    if (names.ports.contains(add->port)) {
      return Status::InvalidInput("add-port: port '" + add->port +
                                  "' already exists");
    }
    Expected<VertexId> v = cg.try_add_port(add->port, add->position);
    if (!v.ok()) return std::move(v).take_status();
    names.ports.emplace(add->port, *v);
    return Status::Ok();
  }
  if (const auto* add = std::get_if<AddArcOp>(&op)) {
    if (names.channels.contains(add->channel)) {
      return Status::InvalidInput("add-arc: channel '" + add->channel +
                                  "' already exists");
    }
    const auto src = names.ports.find(add->source);
    const auto dst = names.ports.find(add->target);
    if (src == names.ports.end() || dst == names.ports.end()) {
      return Status::InvalidInput(
          "add-arc '" + add->channel + "': unknown port '" +
          (src == names.ports.end() ? add->source : add->target) + "'");
    }
    Expected<ArcId> a = cg.try_add_channel(src->second, dst->second,
                                           add->bandwidth, add->channel);
    if (!a.ok()) return std::move(a).take_status();
    names.channels.emplace(add->channel, *a);
    dirty_names.push_back(add->channel);
    return Status::Ok();
  }
  if (const auto* rm = std::get_if<RemoveArcOp>(&op)) {
    const auto it = names.channels.find(rm->channel);
    if (it == names.channels.end()) {
      return Status::InvalidInput("remove-arc: unknown channel '" +
                                  rm->channel + "'");
    }
    Expected<std::vector<ArcId>> old_to_new =
        cg.erase_channels({it->second});
    if (!old_to_new.ok()) return std::move(old_to_new).take_status();
    names.remap_channels(*old_to_new);
    return Status::Ok();
  }
  if (const auto* set = std::get_if<SetBandwidthOp>(&op)) {
    const auto it = names.channels.find(set->channel);
    if (it == names.channels.end()) {
      return Status::InvalidInput("set-bandwidth: unknown channel '" +
                                  set->channel + "'");
    }
    Status s = cg.set_bandwidth(it->second, set->bandwidth);
    if (!s.ok()) return s;
    dirty_names.push_back(set->channel);
    return Status::Ok();
  }
  const auto& move = std::get<MovePortOp>(op);
  const auto it = names.ports.find(move.port);
  if (it == names.ports.end()) {
    return Status::InvalidInput("move-port: unknown port '" + move.port + "'");
  }
  Status s = cg.move_port(it->second, move.to);
  if (!s.ok()) return s;
  for (ArcId a : cg.incident_arcs(it->second)) {
    dirty_names.push_back(cg.channel(a).name);
  }
  return Status::Ok();
}

}  // namespace

std::string_view op_kind(const EditOp& op) {
  struct Visitor {
    std::string_view operator()(const AddPortOp&) { return "add-port"; }
    std::string_view operator()(const AddArcOp&) { return "add-arc"; }
    std::string_view operator()(const RemoveArcOp&) { return "remove-arc"; }
    std::string_view operator()(const SetBandwidthOp&) {
      return "set-bandwidth";
    }
    std::string_view operator()(const MovePortOp&) { return "move-port"; }
  };
  return std::visit(Visitor{}, op);
}

support::Expected<DeltaEffect> apply_delta(ConstraintGraph& cg,
                                           const Delta& delta) {
  DeltaEffect effect;
  effect.revision_before = cg.revision();

  // Edit a scratch copy so a failing op leaves the caller's graph intact.
  ConstraintGraph scratch = cg;
  NameIndex names(scratch);
  std::vector<std::string> dirty_names;
  for (std::size_t i = 0; i < delta.ops.size(); ++i) {
    Status s = apply_op(scratch, delta.ops[i], names, dirty_names);
    if (!s.ok()) {
      return std::move(s).with_context(
          "delta op " + std::to_string(i + 1) + " (" +
          std::string(op_kind(delta.ops[i])) + ")");
    }
  }

  for (const std::string& name : dirty_names) {
    const auto it = names.channels.find(name);
    if (it != names.channels.end()) effect.dirty_arcs.push_back(it->second);
  }
  std::sort(effect.dirty_arcs.begin(), effect.dirty_arcs.end());
  effect.dirty_arcs.erase(
      std::unique(effect.dirty_arcs.begin(), effect.dirty_arcs.end()),
      effect.dirty_arcs.end());

  effect.revision_after = scratch.revision();
  cg = std::move(scratch);
  return effect;
}

}  // namespace cdcs::model
