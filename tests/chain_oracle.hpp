// The chain pricer's drop-order search as it stood before re-centerings
// were skipped, the three-pull Manhattan median was inlined and link costs
// were memoised per call, kept as the oracle of tests/test_chain_oracle.cpp.
// Every drop re-centering goes through geom::weighted_geometric_median and
// every segment and leg cost through PtpCostModel::cost; segment slopes are
// recomputed per order, which gives the same values as the pricer's cache
// because PtpCostModel::length_slope is a pure function of the bandwidth.
#pragma once

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <optional>
#include <vector>

#include "geom/weiszfeld.hpp"
#include "synth/canonical_order.hpp"
#include "synth/chain_pricer.hpp"

namespace cdcs::synth::reference {

/// price_chain_merging(cg, library, subset, policy) before the change:
/// the same orders, placements, costs and winner, solved the long way.
inline std::optional<ChainPlan> price_chain_merging_oracle(
    const model::ConstraintGraph& cg, const commlib::Library& library,
    std::vector<model::ArcId> subset, model::CapacityPolicy policy) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  if (subset.size() < 2) return std::nullopt;
  canonicalize_subset(cg, subset);
  const geom::Norm norm = cg.norm();

  const geom::Point2D first_src = cg.position(cg.source(subset.front()));
  const geom::Point2D first_dst = cg.position(cg.target(subset.front()));
  bool common_source = true;
  bool common_target = true;
  for (model::ArcId a : subset) {
    if (!geom::almost_equal(cg.position(cg.source(a)), first_src, 1e-9)) {
      common_source = false;
    }
    if (!geom::almost_equal(cg.position(cg.target(a)), first_dst, 1e-9)) {
      common_target = false;
    }
  }
  if (common_source == common_target) return std::nullopt;

  const bool source_rooted = common_source;
  const geom::Point2D root = source_rooted ? first_src : first_dst;
  const auto drop_node = library.cheapest_node(
      source_rooted ? commlib::NodeKind::kDemux : commlib::NodeKind::kMux);
  if (!drop_node) return std::nullopt;
  const double node_cost = library.node(*drop_node).cost;
  const PtpCostModel ptp(library);

  const std::size_t k = subset.size();
  std::vector<geom::Point2D> spokes(k);
  std::vector<double> demands(k);
  for (std::size_t i = 0; i < k; ++i) {
    const model::ArcId a = subset[i];
    spokes[i] = source_rooted ? cg.position(cg.target(a))
                              : cg.position(cg.source(a));
    demands[i] = cg.bandwidth(a);
  }
  auto bandwidths = [&](const std::vector<std::size_t>& perm) {
    std::vector<double> seg_bw(k);
    for (std::size_t j = 0; j < k; ++j) {
      double bw = 0.0;
      for (std::size_t i = j; i < k; ++i) {
        const double d = demands[perm[i]];
        bw = policy == model::CapacityPolicy::kSharedSum ? bw + d
                                                         : std::max(bw, d);
      }
      seg_bw[j] = bw;
    }
    return seg_bw;
  };

  // Scores one order; leaves its chain points in `q`.
  auto score = [&](const std::vector<std::size_t>& perm,
                   std::vector<geom::Point2D>& q) {
    const std::vector<double> seg_bw = bandwidths(perm);
    q.assign(k + 1, {});
    q[0] = root;
    for (std::size_t i = 0; i + 1 < k; ++i) q[i + 1] = spokes[perm[i]];
    q[k] = spokes[perm[k - 1]];
    for (int round = 0; round < kRefineRounds; ++round) {
      for (std::size_t j = 1; j < k; ++j) {
        const geom::Point2D pts[] = {q[j - 1], q[j + 1], spokes[perm[j - 1]]};
        const double ws[] = {ptp.length_slope(seg_bw[j - 1]),
                             ptp.length_slope(seg_bw[j]),
                             ptp.length_slope(demands[perm[j - 1]])};
        q[j] = geom::weighted_geometric_median(pts, ws, norm);
      }
    }
    double cost = 0.0;
    for (std::size_t j = 0; j < k; ++j) {
      cost += ptp.cost(geom::distance(q[j], q[j + 1], norm), seg_bw[j]);
      if (cost == kInf) return kInf;
    }
    for (std::size_t i = 0; i + 1 < k; ++i) {
      cost += ptp.cost(geom::distance(q[i + 1], spokes[perm[i]], norm),
                       demands[perm[i]]);
      if (cost == kInf) return kInf;
    }
    return cost + static_cast<double>(k - 1) * node_cost;
  };

  double best_cost = kInf;
  std::vector<std::size_t> best_order;
  std::vector<geom::Point2D> best_q;
  std::vector<geom::Point2D> q;
  auto consider = [&](const std::vector<std::size_t>& perm) {
    const double cost = score(perm, q);
    if (cost < best_cost) {
      best_cost = cost;
      best_order = perm;
      best_q = q;
    }
  };
  std::vector<std::size_t> perm(k);
  std::iota(perm.begin(), perm.end(), 0);
  if (k <= kExhaustiveOrderMaxK) {
    do {
      consider(perm);
    } while (std::next_permutation(perm.begin(), perm.end()));
  } else {
    std::sort(perm.begin(), perm.end(), [&](std::size_t a, std::size_t b) {
      return geom::distance(root, spokes[a], norm) <
             geom::distance(root, spokes[b], norm);
    });
    consider(perm);
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

  ChainPlan plan;
  plan.source_rooted = source_rooted;
  for (std::size_t i : best_order) plan.arcs.push_back(subset[i]);
  plan.drop_pos.assign(best_q.begin() + 1, best_q.end() - 1);
  plan.drop_node = drop_node;
  plan.segment_bandwidth = bandwidths(best_order);
  for (std::size_t j = 0; j < k; ++j) {
    plan.segments.push_back(*ptp.plan(
        geom::distance(best_q[j], best_q[j + 1], norm),
        plan.segment_bandwidth[j]));
  }
  for (std::size_t i = 0; i + 1 < k; ++i) {
    plan.legs.push_back(
        *ptp.plan(geom::distance(best_q[i + 1], spokes[best_order[i]], norm),
                  demands[best_order[i]]));
  }
  plan.cost = best_cost;
  return plan;
}

}  // namespace cdcs::synth::reference
