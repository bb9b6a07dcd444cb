#include "synth/plan_delay.hpp"

#include <algorithm>

namespace cdcs::synth {

double ptp_plan_delay(const PtpPlan& plan, const sim::DelayModel& model) {
  return model.link_delay_per_length * plan.span +
         model.node_delay * (plan.segments - 1);
}

double worst_arc_delay(const MergingPlan& plan,
                       const sim::DelayModel& model) {
  const double trunk = plan.trunk ? ptp_plan_delay(*plan.trunk, model) : 0.0;
  double worst = 0.0;
  for (std::size_t i = 0; i < plan.arcs.size(); ++i) {
    double d = trunk;
    if (plan.has_hub) {
      d += model.node_delay;  // the hub vertex itself
      if (plan.ingress[i]) d += ptp_plan_delay(*plan.ingress[i], model);
    }
    if (plan.has_split) {
      d += model.node_delay;  // the split vertex
      if (plan.egress[i]) d += ptp_plan_delay(*plan.egress[i], model);
    }
    worst = std::max(worst, d);
  }
  return worst;
}

double worst_arc_delay(const ChainPlan& plan, const sim::DelayModel& model) {
  const std::size_t k = plan.arcs.size();
  double worst = 0.0;
  double upstream = 0.0;  // segments + drop nodes accumulated so far
  for (std::size_t i = 0; i < k; ++i) {
    upstream += ptp_plan_delay(plan.segments[i], model);
    double d = upstream;
    if (i + 1 < k) {
      d += model.node_delay;  // this channel's own drop vertex
      d += ptp_plan_delay(plan.legs[i], model);
    }
    worst = std::max(worst, d);
    // Channels further along the chain pass through this drop vertex.
    if (i + 1 < k) upstream += model.node_delay;
  }
  return worst;
}

double worst_arc_delay(const TreePlan& plan, const sim::DelayModel& model) {
  // Delay from the root to every tree vertex, edges in BFS order.
  std::vector<double> to_vertex(plan.vertices.size(), 0.0);
  for (const TreePlan::Edge& e : plan.edges) {
    to_vertex[e.child] = to_vertex[e.parent] +
                         ptp_plan_delay(e.plan, model) +
                         (plan.is_junction[e.child] ? model.node_delay : 0.0);
  }
  double worst = 0.0;
  for (std::size_t i = 0; i < plan.arcs.size(); ++i) {
    double d = to_vertex[plan.spoke_vertex[i]];
    if (plan.drop[i]) d += ptp_plan_delay(*plan.drop[i], model);
    worst = std::max(worst, d);
  }
  return worst;
}

double worst_plan_delay(const Plan& plan, const sim::DelayModel& model) {
  return std::visit(
      Overloaded{[&](const PtpPlan& p) { return ptp_plan_delay(p, model); },
                 [&](const auto& p) { return worst_arc_delay(p, model); }},
      plan);
}

}  // namespace cdcs::synth
