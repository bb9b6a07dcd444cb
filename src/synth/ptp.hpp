// Optimum point-to-point arc implementation (Sec. 2, steps (1)-(4), and
// Def 2.6 / Lemma 2.1).
//
// Given a span d and a required bandwidth b, the cheapest stand-alone
// implementation from the library is one of:
//   (1) arc matching       -- one link with d(l) >= d and b(l) >= b;
//   (2) K-way segmentation -- K links of the same type chained through K-1
//                             repeaters when no single link spans d;
//   (3) K-way duplication  -- M parallel links plus a mux/demux pair when no
//                             single link sustains b;
//   (4) both combined      -- M parallel chains of K segments each.
// For a fixed link type, the minimum feasible K and M minimize every cost
// term independently (segment count, repeater count, parallel count), so the
// optimizer evaluates exactly one plan per link type and takes the cheapest.
#pragma once

#include <optional>

#include "commlib/library.hpp"

namespace cdcs::sim {
struct DelayModel;  // sim/delay.hpp
}

namespace cdcs::synth {

/// Optional latency constraint for point-to-point planning: only plans
/// whose end-to-end delay (span * link_delay_per_length + repeaters *
/// node_delay) stays within `budget` qualify. A pricier low-hop link can
/// thereby beat a cheaper segmented one that busts the budget.
struct DelayConstraint {
  const sim::DelayModel* model{nullptr};
  double budget{0.0};
};

/// A recipe for the cheapest point-to-point realization of one (span,
/// bandwidth) requirement with a single link type.
struct PtpPlan {
  commlib::LinkIndex link{0};
  int segments{1};  ///< K: links chained in series per parallel branch
  int parallel{1};  ///< M: parallel branches
  std::optional<commlib::NodeIndex> repeater;  ///< set iff segments > 1
  std::optional<commlib::NodeIndex> mux;       ///< set iff parallel > 1
  std::optional<commlib::NodeIndex> demux;     ///< set iff parallel > 1
  double span{0.0};       ///< total geometric distance covered
  double bandwidth{0.0};  ///< requirement this plan was sized for
  double cost{0.0};       ///< links + repeaters + mux/demux

  bool is_matching() const { return segments == 1 && parallel == 1; }
  friend bool operator==(const PtpPlan&, const PtpPlan&) = default;
};

/// The point-to-point optimizer bound to one library: the cheapest
/// repeater, mux and demux are looked up once at construction instead of on
/// every query. Pricing loops that evaluate thousands of legs against the
/// same library (the placement objectives of the mergings) build one model
/// per call and query `cost`, which allocates nothing. The library must
/// outlive the model.
class PtpCostModel {
 public:
  explicit PtpCostModel(const commlib::Library& library);

  /// Cheapest plan implementing (span, bandwidth), or nullopt when the
  /// library cannot implement it at all (e.g. span exceeds every link's
  /// reach and no repeater exists, or bandwidth exceeds every link and no
  /// mux/demux exists). With a DelayConstraint, only delay-feasible plans
  /// qualify (nullopt when none exists).
  std::optional<PtpPlan> plan(double span, double bandwidth,
                              const DelayConstraint* delay = nullptr) const;

  /// plan(span, bandwidth)->cost, or +infinity when infeasible.
  double cost(double span, double bandwidth) const;

  /// Marginal cost per unit length of the cheapest realization carrying
  /// `bandwidth`: min over links of dup * cost_per_length, where dup is
  /// the duplication factor (above 1 only when parallel links can be
  /// bundled). Under a linear cost model this slope is EXACT -- a leg's
  /// cost is slope * length plus span-independent node constants -- so
  /// placing merging nodes becomes a weighted Fermat-Weber instance. For
  /// general libraries it is the Weiszfeld warm-start weight. Falls back
  /// to 1 when no link qualifies or the slope is zero.
  double length_slope(double bandwidth) const;

 private:
  /// True when the library has both a mux- and a demux-capable node, so
  /// parallel links can be bundled.
  bool can_bundle() const { return mux_.has_value() && demux_.has_value(); }

  struct Choice {
    commlib::LinkIndex link{0};
    int segments{1};
    int parallel{1};
    double cost{0.0};
  };
  /// The one evaluation loop behind plan() and cost().
  std::optional<Choice> choose(double span, double bandwidth,
                               const DelayConstraint* delay) const;

  const commlib::Library* library_;
  std::optional<commlib::NodeIndex> repeater_;
  std::optional<commlib::NodeIndex> mux_;
  std::optional<commlib::NodeIndex> demux_;
  double repeater_cost_{0.0};
  double mux_cost_{0.0};
  double demux_cost_{0.0};
};

/// PtpCostModel(library).plan(span, bandwidth, delay), for one-off queries.
std::optional<PtpPlan> best_point_to_point(
    double span, double bandwidth, const commlib::Library& library,
    const DelayConstraint* delay = nullptr);

/// C(P(a)) of the optimum point-to-point implementation, +infinity when
/// infeasible: PtpCostModel(library).cost(span, bandwidth).
double best_point_to_point_cost(double span, double bandwidth,
                                const commlib::Library& library);

/// Checks Assumption 2.1 over a grid of (distance, bandwidth) pairs drawn
/// from `spans` x `bandwidths`: whenever d <= d' and b <= b', the optimal
/// point-to-point cost must not decrease, and every cost must be positive.
/// Returns human-readable violations (empty = assumption holds on the grid).
std::vector<std::string> check_assumption_2_1(
    const commlib::Library& library, const std::vector<double>& spans,
    const std::vector<double>& bandwidths);

}  // namespace cdcs::synth
