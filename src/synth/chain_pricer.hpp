// Daisy-chain (bus-style) merging structures.
//
// The star pricer (merging_pricer.hpp) realizes a K-way merging with ONE
// split point. When the merged targets are spread along the trunk's
// direction, a chain is often cheaper: the trunk visits drop points in
// sequence, each drop peels one channel off, and the bandwidth carried by
// successive trunk segments shrinks as channels are dropped:
//
//   chi(u*) ====B1+..+Bk==== [drop 1] ====B2+..+Bk==== [drop 2] ... chi(v_k)
//                               |                         |
//                             leg 1                     leg 2
//                            chi(v_1)                  chi(v_2)
//
// The last channel terminates the trunk directly (no drop node). The
// mirrored structure handles a common TARGET (muxes joining flows on the
// way in). Chains require a common endpoint on one side; subsets with both
// sides heterogeneous fall back to the star structure alone.
//
// Drop order: for small k every permutation is priced (exact given the
// per-order placement); for larger k two natural orders are tried --
// nearest-first from the root and projection order along the root-to-
// centroid axis. Per order, drop positions start at their targets and are
// refined by a few rounds of weighted Fermat-Weber re-centering (exact
// subproblems under linear cost models). A drop whose two trunk pulls kept
// their bits since its last solve is not solved again, and Manhattan drops
// use the three-pull median kernel (geom::manhattan_median3). Orders are
// compared by cost alone: each is scored through PtpCostModel::cost,
// memoised per call on the (span, bandwidth) bits, in buffers allocated
// once per call and reused by every order, and only the winning order's
// segment and leg plans are built, once, from its stored drop positions.
//
// This module generalizes the paper's single-common-path merging in the
// direction its successor framework (COSI) explored; candidate generation
// prices both structures and keeps the cheaper, so the paper's experiments
// are unchanged wherever the star wins (it does on the WAN example).
#pragma once

#include "synth/merging_pricer.hpp"

namespace cdcs::synth {

struct ChainPlan {
  /// Merged arcs in DROP ORDER: arcs[i] is served by the i-th drop; the
  /// last arc terminates the trunk.
  std::vector<model::ArcId> arcs;
  bool source_rooted{true};  ///< true: common source; false: common target

  /// Drop positions, one per arcs[0..k-2] (the last arc has no drop node).
  std::vector<geom::Point2D> drop_pos;
  std::optional<commlib::NodeIndex> drop_node;  ///< demux (source-rooted) / mux

  /// Trunk segments: root->drop1, drop1->drop2, ..., drop_{k-1}->terminus.
  std::vector<PtpPlan> segments;
  std::vector<double> segment_bandwidth;
  /// Per drop (size k-1): plan for drop_i -> chi(v_i) (or chi(u_i) -> drop_i
  /// when target-rooted).
  std::vector<PtpPlan> legs;

  double cost{0.0};
  friend bool operator==(const ChainPlan&, const ChainPlan&) = default;
};

/// Subsets of up to this many arcs try every drop order; larger ones try
/// the two heuristic orders.
inline constexpr std::size_t kExhaustiveOrderMaxK = 5;
/// Fermat-Weber re-centering passes over the drops of each order.
inline constexpr int kRefineRounds = 3;

/// Prices the best daisy-chain realization of `subset` (|subset| >= 2).
/// Returns nullopt when the subset has no common endpoint side, when the
/// library lacks the required drop node, or when some segment/leg is
/// unimplementable. An expired `deadline` (when non-null) is also polled
/// between candidate drop orders, abandoning the remaining orders.
std::optional<ChainPlan> price_chain_merging(
    const model::ConstraintGraph& cg, const commlib::Library& library,
    std::vector<model::ArcId> subset,
    model::CapacityPolicy policy = model::CapacityPolicy::kSharedSum,
    const support::Deadline* deadline = nullptr);

}  // namespace cdcs::synth
