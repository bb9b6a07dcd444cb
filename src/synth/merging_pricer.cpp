#include "synth/merging_pricer.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <vector>

#include "geom/minimize.hpp"
#include "geom/weiszfeld.hpp"
#include "synth/canonical_order.hpp"

namespace cdcs::synth {
namespace {

constexpr double kCoincideEps = 1e-9;

bool all_coincide(const std::vector<geom::Point2D>& pts) {
  return std::all_of(pts.begin(), pts.end(), [&](geom::Point2D p) {
    return geom::almost_equal(p, pts.front(), kCoincideEps);
  });
}

/// Bitwise equality (not ==, which equates 0.0 and -0.0).
bool same_bits(geom::Point2D a, geom::Point2D b) {
  using Bits = std::array<std::uint64_t, 2>;
  return std::bit_cast<Bits>(a) == std::bit_cast<Bits>(b);
}

/// Runs up to `half_steps` alternating placement half-steps, hub first:
/// hub = hub_step(), split = split_step(), hub = hub_step(), ... Each
/// half-step moves only its own endpoint and is a pure, idempotent function
/// of the current endpoints. When half-step t >= 1 returns its input, the
/// state is still the one half-step t-1 produced, so half-step t+1 (the
/// same kind as t-1) returns its input too, and so does every later one:
/// stopping there yields exactly the endpoints of the full run.
template <typename HubStep, typename SplitStep>
void alternate_to_fixpoint(geom::Point2D& hub, geom::Point2D& split,
                           int half_steps, HubStep hub_step,
                           SplitStep split_step) {
  for (int t = 0; t < half_steps; ++t) {
    geom::Point2D& moved = t % 2 == 0 ? hub : split;
    const geom::Point2D next = t % 2 == 0 ? hub_step() : split_step();
    const bool fixpoint = t > 0 && same_bits(next, moved);
    moved = next;
    if (fixpoint) return;
  }
}

}  // namespace

std::optional<MergingPlan> price_merging(const model::ConstraintGraph& cg,
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
  std::vector<geom::Point2D> sources;
  std::vector<geom::Point2D> targets;
  std::vector<double> bandwidths;
  for (model::ArcId a : subset) {
    sources.push_back(cg.position(cg.source(a)));
    targets.push_back(cg.position(cg.target(a)));
    bandwidths.push_back(cg.bandwidth(a));
  }

  MergingPlan plan;
  plan.arcs = subset;
  plan.has_hub = !all_coincide(sources);
  plan.has_split = !all_coincide(targets);

  if (plan.has_hub) {
    plan.hub_node = library.cheapest_node(commlib::NodeKind::kMux);
    if (!plan.hub_node) return std::nullopt;
  }
  if (plan.has_split) {
    plan.split_node = library.cheapest_node(commlib::NodeKind::kDemux);
    if (!plan.split_node) return std::nullopt;
  }

  plan.trunk_bandwidth = 0.0;
  for (double b : bandwidths) {
    plan.trunk_bandwidth = policy == model::CapacityPolicy::kSharedSum
                               ? plan.trunk_bandwidth + b
                               : std::max(plan.trunk_bandwidth, b);
  }

  // Variable cost as a function of the two trunk endpoints. Node costs are
  // constants and added at the end.
  const PtpCostModel ptp(library);
  auto legs_cost = [&](geom::Point2D hub, geom::Point2D split) {
    double total =
        ptp.cost(geom::distance(hub, split, norm), plan.trunk_bandwidth);
    for (std::size_t i = 0; i < subset.size(); ++i) {
      if (plan.has_hub) {
        total += ptp.cost(geom::distance(sources[i], hub, norm), bandwidths[i]);
      }
      if (plan.has_split) {
        total +=
            ptp.cost(geom::distance(split, targets[i], norm), bandwidths[i]);
      }
    }
    return total;
  };

  // Fixed endpoints when a side is common; otherwise optimize.
  geom::Point2D hub = sources.front();
  geom::Point2D split = targets.front();

  if (plan.has_hub || plan.has_split) {
    // Weiszfeld placement: each free endpoint is pulled by its own legs
    // plus the trunk toward the opposite endpoint. Exact for linear cost
    // models; a warm start otherwise. Both instances share the weights
    // (leg slopes, then the trunk slope); the last terminal of each point
    // buffer is the opposite endpoint, rewritten before every solve.
    std::vector<double> weights;
    weights.reserve(bandwidths.size() + 1);
    for (double b : bandwidths) weights.push_back(ptp.length_slope(b));
    weights.push_back(ptp.length_slope(plan.trunk_bandwidth));
    std::vector<geom::Point2D> hub_terminals = sources;
    hub_terminals.push_back(split);
    std::vector<geom::Point2D> split_terminals = targets;
    split_terminals.push_back(hub);
    auto weiszfeld_hub = [&] {
      hub_terminals.back() = split;
      return geom::weighted_geometric_median(hub_terminals, weights, norm);
    };
    auto weiszfeld_split = [&] {
      split_terminals.back() = hub;
      return geom::weighted_geometric_median(split_terminals, weights, norm);
    };

    // With both endpoints free, up to 3 rounds of alternation (6
    // half-steps), stopped at the first fixpoint. Under a linear cost
    // model leg costs are exactly slope * length + constants, so
    // alternating Weiszfeld solves each endpoint to optimality; other
    // libraries take only the first round, as the seed of the search below.
    const bool both = plan.has_hub && plan.has_split;
    constexpr int kHalfSteps = 6;
    if (both) {
      alternate_to_fixpoint(hub, split,
                            library.linear_cost_model() ? kHalfSteps : 2,
                            weiszfeld_hub, weiszfeld_split);
    } else if (plan.has_hub) {
      hub = weiszfeld_hub();
    } else {
      split = weiszfeld_split();
    }

    if (!library.linear_cost_model()) {
      // Segmented / fixed-cost libraries make the objective piecewise;
      // refine the Weiszfeld seed with a bounded derivative-free search.
      // A half-step keeps its endpoint unless the search finds a value no
      // worse than the current one.
      geom::BBox box;
      for (geom::Point2D p : sources) box.expand(p);
      for (geom::Point2D p : targets) box.expand(p);
      box.inflate(1e-6);
      geom::NelderMeadOptions nm;
      nm.max_iterations = 150;
      nm.restarts = 1;
      nm.tolerance = 1e-8;
      auto search_hub = [&] {
        const geom::MinimizeResult2D res = geom::minimize_in_box(
            [&](geom::Point2D h) { return legs_cost(h, split); }, box, 6, nm);
        return res.value <= legs_cost(hub, split) ? res.x : hub;
      };
      auto search_split = [&] {
        const geom::MinimizeResult2D res = geom::minimize_in_box(
            [&](geom::Point2D s) { return legs_cost(hub, s); }, box, 6, nm);
        return res.value <= legs_cost(hub, split) ? res.x : split;
      };
      if (both) {
        alternate_to_fixpoint(hub, split, kHalfSteps, search_hub, search_split);
      } else if (plan.has_hub) {
        hub = search_hub();
      } else {
        split = search_split();
      }
    }
  }

  plan.hub_pos = hub;
  plan.split_pos = split;

  // Materialize the leg plans at the chosen positions.
  double cost = 0.0;
  const double trunk_span = geom::distance(hub, split, norm);
  std::optional<PtpPlan> trunk = ptp.plan(trunk_span, plan.trunk_bandwidth);
  if (!trunk) return std::nullopt;
  plan.trunk = trunk;
  cost += trunk->cost;

  plan.ingress.resize(subset.size());
  plan.egress.resize(subset.size());
  for (std::size_t i = 0; i < subset.size(); ++i) {
    if (plan.has_hub) {
      auto leg =
          ptp.plan(geom::distance(sources[i], hub, norm), bandwidths[i]);
      if (!leg) return std::nullopt;
      cost += leg->cost;
      plan.ingress[i] = leg;
    }
    if (plan.has_split) {
      auto leg =
          ptp.plan(geom::distance(split, targets[i], norm), bandwidths[i]);
      if (!leg) return std::nullopt;
      cost += leg->cost;
      plan.egress[i] = leg;
    }
  }
  if (plan.hub_node) cost += library.node(*plan.hub_node).cost;
  if (plan.split_node) cost += library.node(*plan.split_node).cost;
  plan.cost = cost;
  return plan;
}

}  // namespace cdcs::synth
