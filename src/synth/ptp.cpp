#include "synth/ptp.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "sim/delay.hpp"

namespace cdcs::synth {
namespace {

/// ceil(a / b) for positive doubles with protection against the classic
/// "exact multiple plus epsilon" off-by-one: values within 1e-9 relative of
/// an integer are treated as that integer.
int robust_ceil_div(double a, double b) {
  const double q = a / b;
  const double r = std::round(q);
  if (std::abs(q - r) < 1e-9 * std::max(1.0, std::abs(q))) {
    return static_cast<int>(r);
  }
  return static_cast<int>(std::ceil(q));
}

}  // namespace

PtpCostModel::PtpCostModel(const commlib::Library& library)
    : library_(&library),
      repeater_(library.cheapest_node(commlib::NodeKind::kRepeater)),
      mux_(library.cheapest_node(commlib::NodeKind::kMux)),
      demux_(library.cheapest_node(commlib::NodeKind::kDemux)) {
  if (repeater_) repeater_cost_ = library.node(*repeater_).cost;
  if (mux_) mux_cost_ = library.node(*mux_).cost;
  if (demux_) demux_cost_ = library.node(*demux_).cost;
}

std::optional<PtpCostModel::Choice> PtpCostModel::choose(
    double span, double bandwidth, const DelayConstraint* delay) const {
  std::optional<Choice> best;
  const std::vector<commlib::Link>& links = library_->links();
  for (commlib::LinkIndex li = 0; li < links.size(); ++li) {
    const commlib::Link& l = links[li];
    if (l.bandwidth <= 0.0) continue;

    // K: segments needed to span the distance with this link type.
    int k = 1;
    if (!l.spans(span)) {
      if (!std::isfinite(l.max_span) || l.max_span <= 0.0) continue;
      k = robust_ceil_div(span, l.max_span);
    }
    // M: parallel branches needed to cover the bandwidth.
    const int m = std::max(1, robust_ceil_div(bandwidth, l.bandwidth));

    if (k > 1 && !repeater_) continue;  // no way to chain links
    if (m > 1 && !can_bundle()) continue;  // no way to bundle links
    if (delay != nullptr &&
        delay->model->link_delay_per_length * span +
                delay->model->node_delay * (k - 1) >
            delay->budget + 1e-12) {
      continue;  // busts the latency budget
    }

    // Per-branch link cost: the K pieces sum to `span` length, so the
    // per-length component is charged once per branch and the fixed
    // component once per piece.
    const double branch_links = l.cost_per_length * span + l.fixed_cost * k;
    double cost = m * branch_links;
    if (k > 1) cost += m * (k - 1) * repeater_cost_;
    if (m > 1) cost += mux_cost_ + demux_cost_;

    // Ties (e.g. two bundled radios vs one optical at the same $/km) break
    // toward the structurally simplest plan: fewest parallel branches, then
    // fewest segments.
    const bool better =
        !best || cost < best->cost - 1e-9 ||
        (cost <= best->cost + 1e-9 &&
         (m < best->parallel ||
          (m == best->parallel && k < best->segments)));
    if (better) {
      best = Choice{.link = li, .segments = k, .parallel = m, .cost = cost};
    }
  }
  return best;
}

std::optional<PtpPlan> PtpCostModel::plan(double span, double bandwidth,
                                          const DelayConstraint* delay) const {
  const std::optional<Choice> c = choose(span, bandwidth, delay);
  if (!c) return std::nullopt;
  return PtpPlan{.link = c->link,
                 .segments = c->segments,
                 .parallel = c->parallel,
                 .repeater = c->segments > 1 ? repeater_ : std::nullopt,
                 .mux = c->parallel > 1 ? mux_ : std::nullopt,
                 .demux = c->parallel > 1 ? demux_ : std::nullopt,
                 .span = span,
                 .bandwidth = bandwidth,
                 .cost = c->cost};
}

double PtpCostModel::cost(double span, double bandwidth) const {
  const std::optional<Choice> c = choose(span, bandwidth, nullptr);
  return c ? c->cost : std::numeric_limits<double>::infinity();
}

double PtpCostModel::length_slope(double bandwidth) const {
  double best = std::numeric_limits<double>::infinity();
  for (const commlib::Link& l : library_->links()) {
    if (l.bandwidth <= 0.0) continue;
    const double dup = std::ceil(bandwidth / l.bandwidth - 1e-12);
    if (dup > 1.0 && !can_bundle()) continue;
    best = std::min(best, std::max(dup, 1.0) * l.cost_per_length);
  }
  return std::isfinite(best) && best > 0.0 ? best : 1.0;
}

std::optional<PtpPlan> best_point_to_point(double span, double bandwidth,
                                           const commlib::Library& library,
                                           const DelayConstraint* delay) {
  return PtpCostModel(library).plan(span, bandwidth, delay);
}

double best_point_to_point_cost(double span, double bandwidth,
                                const commlib::Library& library) {
  return PtpCostModel(library).cost(span, bandwidth);
}

std::vector<std::string> check_assumption_2_1(
    const commlib::Library& library, const std::vector<double>& spans,
    const std::vector<double>& bandwidths) {
  std::vector<std::string> problems;
  struct Sample {
    double d, b, cost;
  };
  std::vector<Sample> samples;
  for (double d : spans) {
    for (double b : bandwidths) {
      const double c = best_point_to_point_cost(d, b, library);
      if (c <= 0.0) {
        problems.push_back("C(P(a)) is not positive at d=" + std::to_string(d) +
                           " b=" + std::to_string(b));
      }
      samples.push_back({d, b, c});
    }
  }
  for (const Sample& s : samples) {
    for (const Sample& t : samples) {
      if (s.d <= t.d && s.b <= t.b && s.cost > t.cost + 1e-9) {
        problems.push_back(
            "cost monotonicity violated: (d=" + std::to_string(s.d) +
            ", b=" + std::to_string(s.b) + ") costs " + std::to_string(s.cost) +
            " > (d=" + std::to_string(t.d) + ", b=" + std::to_string(t.b) +
            ") costing " + std::to_string(t.cost));
      }
    }
  }
  return problems;
}

}  // namespace cdcs::synth
