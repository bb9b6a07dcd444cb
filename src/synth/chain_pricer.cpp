#include "synth/chain_pricer.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>

#include "geom/weiszfeld.hpp"
#include "synth/canonical_order.hpp"

namespace cdcs::synth {
namespace {

constexpr double kCoincideEps = 1e-9;
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

bool same_bits(geom::Point2D a, geom::Point2D b) {
  return std::bit_cast<std::uint64_t>(a.x) ==
             std::bit_cast<std::uint64_t>(b.x) &&
         std::bit_cast<std::uint64_t>(a.y) == std::bit_cast<std::uint64_t>(b.y);
}

/// PtpCostModel::cost for one pricing call, memoised on the bits of (span,
/// bandwidth). The cost is a pure function of both, so a hit returns the
/// bits a fresh call would. The open-addressed table is fixed in size and
/// never allocates; once it is three quarters full, new keys are costed
/// directly. An empty slot holds a NaN cost, so a NaN cost is not stored.
class CostMemo {
 public:
  explicit CostMemo(const PtpCostModel& ptp) : ptp_(&ptp) {}

  double cost(double span, double bandwidth) {
    const auto s = std::bit_cast<std::uint64_t>(span);
    const auto b = std::bit_cast<std::uint64_t>(bandwidth);
    std::size_t i = ((s ^ std::rotl(b, 32)) * 0x9e3779b97f4a7c15ULL) >>
                    (64 - kSlotBits);
    for (;; i = (i + 1) % kSlots) {
      Entry& e = slots_[i];
      if (std::isnan(e.cost)) break;
      if (e.span == s && e.bandwidth == b) return e.cost;
    }
    const double c = ptp_->cost(span, bandwidth);
    if (used_ < kMaxUsed && !std::isnan(c)) {
      slots_[i] = Entry{s, b, c};
      ++used_;
    }
    return c;
  }

 private:
  static constexpr int kSlotBits = 8;
  static constexpr std::size_t kSlots = std::size_t{1} << kSlotBits;
  static constexpr std::size_t kMaxUsed = kSlots / 4 * 3;

  struct Entry {
    std::uint64_t span{0};
    std::uint64_t bandwidth{0};
    double cost{kNaN};
  };

  const PtpCostModel* ptp_;
  std::array<Entry, kSlots> slots_{};
  std::size_t used_{0};
};

/// Per-call buffers of the drop-order search, sized once for k arcs and
/// overwritten by every order, so scoring an order touches no heap.
struct OrderScratch {
  OrderScratch(std::size_t k, const PtpCostModel& ptp)
      : spokes(k), demand(k), leg_slope(k - 1), seg_bw(k), seg_slope(k),
        q(k + 1), moved(k + 1, 0), costs(ptp) {}

  // Laid out per order by the caller, in drop order.
  std::vector<geom::Point2D> spokes;
  std::vector<double> demand;
  std::vector<double> leg_slope;

  std::vector<double> seg_bw;
  /// seg_slope[j] = {bw, length_slope(bw)} for segment j, kept from earlier
  /// orders and recomputed only when segment j's bandwidth changes (the
  /// initial NaN bandwidth equals nothing).
  struct Slope {
    double bw{kNaN};
    double slope{0.0};
  };
  std::vector<Slope> seg_slope;
  /// Chain points q_0 = root, q_1..q_{k-1} = drops, q_k = terminus.
  std::vector<geom::Point2D> q;
  /// moved[j]: drop j's latest re-centering changed q_j's bits. The root
  /// and the terminus never move, so moved[0] and moved[k] stay 0.
  std::vector<char> moved;
  CostMemo costs;
};

/// Cumulative bandwidth carried by segment j (0-based: root->drop1 is 0):
/// everything not yet dropped.
void segment_bandwidths(const std::vector<double>& demand,
                        model::CapacityPolicy policy,
                        std::vector<double>& seg_bw) {
  const std::size_t k = demand.size();
  for (std::size_t j = 0; j < k; ++j) {
    double bw = 0.0;
    for (std::size_t i = j; i < k; ++i) {
      bw = policy == model::CapacityPolicy::kSharedSum
               ? bw + demand[i]
               : std::max(bw, demand[i]);
    }
    seg_bw[j] = bw;
  }
}

/// Cost of the drop order already laid out in `s.spokes`/`s.demand`, with
/// the refined chain points left in `s.q`; +infinity when some segment or
/// leg is unimplementable. Only costs are queried: the winning order's
/// plans are built once, after the search.
double score_order(const geom::Point2D root, OrderScratch& s,
                   const PtpCostModel& ptp, geom::Norm norm,
                   model::CapacityPolicy policy, double node_cost) {
  const std::size_t k = s.spokes.size();
  segment_bandwidths(s.demand, policy, s.seg_bw);

  // Drops start at their targets.
  s.q[0] = root;
  for (std::size_t i = 0; i + 1 < k; ++i) s.q[i + 1] = s.spokes[i];
  s.q[k] = s.spokes[k - 1];

  for (std::size_t j = 0; j < k; ++j) {
    if (s.seg_bw[j] != s.seg_slope[j].bw) {
      s.seg_slope[j] = {s.seg_bw[j], ptp.length_slope(s.seg_bw[j])};
    }
  }
  // Fermat-Weber re-centering of interior drops. Drop j is pulled by its
  // two trunk segments and its own leg, weighted by their length slopes.
  // Within an order only the trunk pulls q_{j-1} and q_{j+1} change: since
  // drop j's last solve, q_{j+1} was last written by drop j+1 in the
  // previous round and q_{j-1} by drop j-1 in this one. When neither write
  // changed a bit, the solve would return q_j's bits again, so it is
  // skipped.
  for (int round = 0; round < kRefineRounds; ++round) {
    for (std::size_t j = 1; j < k; ++j) {
      if (round > 0 && !s.moved[j - 1] && !s.moved[j + 1]) {
        s.moved[j] = 0;
        continue;
      }
      const geom::Point2D pts[] = {s.q[j - 1], s.q[j + 1], s.spokes[j - 1]};
      const double ws[] = {s.seg_slope[j - 1].slope, s.seg_slope[j].slope,
                           s.leg_slope[j - 1]};
      const geom::Point2D next =
          norm == geom::Norm::kManhattan
              ? geom::manhattan_median3(pts, ws)
              : geom::weighted_geometric_median(pts, ws, norm);
      s.moved[j] = !same_bits(next, s.q[j]);
      s.q[j] = next;
    }
  }

  // Segments, then legs, then the drop nodes: the order the plan's cost is
  // summed in.
  double cost = 0.0;
  for (std::size_t j = 0; j < k; ++j) {
    cost += s.costs.cost(geom::distance(s.q[j], s.q[j + 1], norm),
                         s.seg_bw[j]);
    if (cost == kInf) return kInf;
  }
  for (std::size_t i = 0; i + 1 < k; ++i) {
    cost += s.costs.cost(geom::distance(s.q[i + 1], s.spokes[i], norm),
                         s.demand[i]);
    if (cost == kInf) return kInf;
  }
  return cost + static_cast<double>(k - 1) * node_cost;
}

}  // namespace

std::optional<ChainPlan> price_chain_merging(const model::ConstraintGraph& cg,
                                             const commlib::Library& library,
                                             std::vector<model::ArcId> subset,
                                             model::CapacityPolicy policy,
                                             const support::Deadline* deadline) {
  if (deadline && deadline->expired()) return std::nullopt;
  if (subset.size() < 2) return std::nullopt;
  // Canonical geometry order, NOT ArcId order: the priced plan must be
  // a pure function of the subset's geometry (synth/canonical_order.hpp)
  // so renumbered or reordered arc ids price bit-identically.
  canonicalize_subset(cg, subset);
  const geom::Norm norm = cg.norm();

  // Determine the common side.
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
  if (!common_source && !common_target) return std::nullopt;
  if (common_source && common_target) return std::nullopt;  // star territory

  const bool source_rooted = common_source;
  const geom::Point2D root = source_rooted ? first_src : first_dst;
  const auto drop_kind = source_rooted ? commlib::NodeKind::kDemux
                                       : commlib::NodeKind::kMux;
  const auto drop_node = library.cheapest_node(drop_kind);
  if (!drop_node) return std::nullopt;
  const double node_cost = library.node(*drop_node).cost;
  const PtpCostModel ptp(library);

  const std::size_t k = subset.size();
  std::vector<geom::Point2D> spokes(k);
  std::vector<double> demands(k);
  std::vector<double> leg_slopes(k);  // a leg carries its own arc's demand
  for (std::size_t i = 0; i < k; ++i) {
    const model::ArcId a = subset[i];
    spokes[i] = source_rooted ? cg.position(cg.target(a))
                              : cg.position(cg.source(a));
    demands[i] = cg.bandwidth(a);
    leg_slopes[i] = ptp.length_slope(demands[i]);
  }

  OrderScratch scratch(k, ptp);
  double best_cost = kInf;
  std::vector<std::size_t> best_order(k);
  std::vector<geom::Point2D> best_q(k + 1);
  auto consider = [&](const std::vector<std::size_t>& perm) {
    if (deadline && deadline->expired()) return;
    for (std::size_t i = 0; i < k; ++i) {
      scratch.spokes[i] = spokes[perm[i]];
      scratch.demand[i] = demands[perm[i]];
    }
    for (std::size_t i = 0; i + 1 < k; ++i) {
      scratch.leg_slope[i] = leg_slopes[perm[i]];
    }
    const double cost =
        score_order(root, scratch, ptp, norm, policy, node_cost);
    if (cost < best_cost) {  // strict: the first of equal orders wins
      best_cost = cost;
      std::copy(perm.begin(), perm.end(), best_order.begin());
      std::copy(scratch.q.begin(), scratch.q.end(), best_q.begin());
    }
  };

  std::vector<std::size_t> perm(k);
  std::iota(perm.begin(), perm.end(), 0);
  if (k <= kExhaustiveOrderMaxK) {
    do {
      consider(perm);
    } while (std::next_permutation(perm.begin(), perm.end()));
  } else {
    // Nearest-first from the root.
    std::sort(perm.begin(), perm.end(), [&](std::size_t a, std::size_t b) {
      return geom::distance(root, spokes[a], norm) <
             geom::distance(root, spokes[b], norm);
    });
    consider(perm);
    // Projection order along root -> centroid.
    geom::Point2D centroid{0, 0};
    for (const geom::Point2D& p : spokes) centroid += p;
    centroid = centroid / static_cast<double>(k);
    const geom::Point2D axis = centroid - root;
    std::iota(perm.begin(), perm.end(), 0);
    std::sort(perm.begin(), perm.end(), [&](std::size_t a, std::size_t b) {
      const geom::Point2D da = spokes[a] - root;
      const geom::Point2D db = spokes[b] - root;
      return da.x * axis.x + da.y * axis.y < db.x * axis.x + db.y * axis.y;
    });
    consider(perm);
  }

  if (!std::isfinite(best_cost)) return std::nullopt;

  // The winner's plan, built once from its stored drop positions: the same
  // distances and bandwidths its score was summed from, so every plan's
  // cost is the one scored.
  ChainPlan plan;
  plan.source_rooted = source_rooted;
  plan.arcs.reserve(k);
  for (std::size_t i = 0; i < k; ++i) {
    plan.arcs.push_back(subset[best_order[i]]);
    scratch.demand[i] = demands[best_order[i]];
  }
  plan.drop_pos.assign(best_q.begin() + 1, best_q.end() - 1);
  plan.drop_node = drop_node;
  plan.segment_bandwidth.resize(k);
  segment_bandwidths(scratch.demand, policy, plan.segment_bandwidth);
  plan.segments.reserve(k);
  for (std::size_t j = 0; j < k; ++j) {
    plan.segments.push_back(*ptp.plan(
        geom::distance(best_q[j], best_q[j + 1], norm),
        plan.segment_bandwidth[j]));
  }
  plan.legs.reserve(k - 1);
  for (std::size_t i = 0; i + 1 < k; ++i) {
    plan.legs.push_back(*ptp.plan(
        geom::distance(best_q[i + 1], spokes[best_order[i]], norm),
        scratch.demand[i]));
  }
  plan.cost = best_cost;
  return plan;
}

}  // namespace cdcs::synth
