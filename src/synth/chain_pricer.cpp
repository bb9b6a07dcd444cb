#include "synth/chain_pricer.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "geom/weiszfeld.hpp"
#include "synth/canonical_order.hpp"

namespace cdcs::synth {
namespace {

constexpr double kCoincideEps = 1e-9;
constexpr double kInf = std::numeric_limits<double>::infinity();

struct OrderEvaluation {
  std::vector<geom::Point2D> drop_pos;
  double cost{kInf};
  std::vector<PtpPlan> segments;
  std::vector<double> segment_bw;
  std::vector<PtpPlan> legs;
};

/// Prices one drop order. `spokes[i]`/`demand[i]` follow the order.
OrderEvaluation evaluate_order(const geom::Point2D root,
                               const std::vector<geom::Point2D>& spokes,
                               const std::vector<double>& demand,
                               const PtpCostModel& ptp, geom::Norm norm,
                               model::CapacityPolicy policy,
                               double node_cost, int refine_rounds) {
  const std::size_t k = spokes.size();
  OrderEvaluation out;

  // Cumulative bandwidth carried by segment j (0-based: root->drop1 is 0):
  // everything not yet dropped.
  std::vector<double> seg_bw(k, 0.0);
  for (std::size_t j = 0; j < k; ++j) {
    double bw = 0.0;
    for (std::size_t i = j; i < k; ++i) {
      bw = policy == model::CapacityPolicy::kSharedSum
               ? bw + demand[i]
               : std::max(bw, demand[i]);
    }
    seg_bw[j] = bw;
  }

  // Chain point sequence q_0 = root, q_1..q_{k-1} = drop nodes, q_k =
  // terminus (the last spoke's own port). Drops start at their targets.
  std::vector<geom::Point2D> q(k + 1);
  q[0] = root;
  for (std::size_t i = 0; i + 1 < k; ++i) q[i + 1] = spokes[i];
  q[k] = spokes[k - 1];

  // Fermat-Weber re-centering of interior drops. Drop j is pulled by its
  // two trunk segments and its own leg, weighted by their length slopes.
  std::vector<double> seg_slope(k);
  std::vector<double> leg_slope(k - 1);
  for (std::size_t j = 0; j < k; ++j) {
    seg_slope[j] = ptp.length_slope(seg_bw[j]);
  }
  for (std::size_t i = 0; i + 1 < k; ++i) {
    leg_slope[i] = ptp.length_slope(demand[i]);
  }
  for (int round = 0; round < refine_rounds; ++round) {
    for (std::size_t j = 1; j < k; ++j) {
      const geom::Point2D pts[] = {q[j - 1], q[j + 1], spokes[j - 1]};
      const double ws[] = {seg_slope[j - 1], seg_slope[j], leg_slope[j - 1]};
      q[j] = geom::weighted_geometric_median(pts, ws, norm);
    }
  }

  // Final pricing through the point-to-point optimizer.
  double cost = 0.0;
  out.segments.reserve(k);
  for (std::size_t j = 0; j < k; ++j) {
    const auto plan =
        ptp.plan(geom::distance(q[j], q[j + 1], norm), seg_bw[j]);
    if (!plan) return out;  // cost stays infinite
    cost += plan->cost;
    out.segments.push_back(*plan);
  }
  out.legs.reserve(k - 1);
  for (std::size_t i = 0; i + 1 < k; ++i) {
    const auto leg =
        ptp.plan(geom::distance(q[i + 1], spokes[i], norm), demand[i]);
    if (!leg) return out;
    cost += leg->cost;
    out.legs.push_back(*leg);
  }
  cost += static_cast<double>(k - 1) * node_cost;

  out.cost = cost;
  out.segment_bw = std::move(seg_bw);
  out.drop_pos.assign(q.begin() + 1, q.end() - 1);
  return out;
}

}  // namespace

std::optional<ChainPlan> price_chain_merging(const model::ConstraintGraph& cg,
                                             const commlib::Library& library,
                                             std::vector<model::ArcId> subset,
                                             model::CapacityPolicy policy,
                                             const ChainPricerOptions& options,
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

  std::vector<geom::Point2D> spokes;
  std::vector<double> demands;
  for (model::ArcId a : subset) {
    spokes.push_back(source_rooted ? cg.position(cg.target(a))
                                   : cg.position(cg.source(a)));
    demands.push_back(cg.bandwidth(a));
  }

  const std::size_t k = subset.size();
  std::vector<std::size_t> order(k);
  std::iota(order.begin(), order.end(), 0);

  auto evaluate_permutation =
      [&](const std::vector<std::size_t>& perm) -> OrderEvaluation {
    std::vector<geom::Point2D> sp;
    std::vector<double> dm;
    for (std::size_t i : perm) {
      sp.push_back(spokes[i]);
      dm.push_back(demands[i]);
    }
    return evaluate_order(root, sp, dm, ptp, norm, policy, node_cost,
                          options.refine_rounds);
  };

  OrderEvaluation best;
  std::vector<std::size_t> best_order;
  auto consider = [&](const std::vector<std::size_t>& perm) {
    if (deadline && deadline->expired()) return;
    OrderEvaluation eval = evaluate_permutation(perm);
    if (eval.cost < best.cost) {
      best = std::move(eval);
      best_order = perm;
    }
  };

  if (k <= static_cast<std::size_t>(options.exhaustive_order_max_k)) {
    std::vector<std::size_t> perm = order;
    std::sort(perm.begin(), perm.end());
    do {
      consider(perm);
    } while (std::next_permutation(perm.begin(), perm.end()));
  } else {
    // Nearest-first from the root.
    std::vector<std::size_t> by_dist = order;
    std::sort(by_dist.begin(), by_dist.end(), [&](std::size_t a, std::size_t b) {
      return geom::distance(root, spokes[a], norm) <
             geom::distance(root, spokes[b], norm);
    });
    consider(by_dist);
    // Projection order along root -> centroid.
    geom::Point2D centroid{0, 0};
    for (const geom::Point2D& p : spokes) centroid += p;
    centroid = centroid / static_cast<double>(k);
    const geom::Point2D axis = centroid - root;
    std::vector<std::size_t> by_proj = order;
    std::sort(by_proj.begin(), by_proj.end(),
              [&](std::size_t a, std::size_t b) {
                const geom::Point2D da = spokes[a] - root;
                const geom::Point2D db = spokes[b] - root;
                return da.x * axis.x + da.y * axis.y <
                       db.x * axis.x + db.y * axis.y;
              });
    consider(by_proj);
  }

  if (!std::isfinite(best.cost)) return std::nullopt;

  ChainPlan plan;
  plan.source_rooted = source_rooted;
  for (std::size_t i : best_order) plan.arcs.push_back(subset[i]);
  plan.drop_pos = std::move(best.drop_pos);
  plan.drop_node = drop_node;
  plan.segments = std::move(best.segments);
  plan.segment_bandwidth = std::move(best.segment_bw);
  plan.legs = std::move(best.legs);
  plan.cost = best.cost;
  return plan;
}

}  // namespace cdcs::synth
