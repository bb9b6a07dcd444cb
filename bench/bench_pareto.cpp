// Extension bench: the cost-latency Pareto frontier of the WAN instance.
//
// Delay-constrained synthesis (SynthesisOptions::delay_budget) filters
// structures whose slowest channel would exceed a latency budget. Sweeping
// the budget maps the frontier:
//
//   * unconstrained / loose budgets admit Figure 4's merged architecture
//     (cheapest, but the merged channels detour through the split);
//   * as the budget tightens past the detour latency, the merging dissolves
//     and cost steps up to the point-to-point optimum;
//   * below the longest channel's direct line the instance is infeasible.
//
// Delay model: 1 time unit per km (propagation-dominated), 0.5 per
// communication node.
#include <cstdio>

#include "commlib/standard_libraries.hpp"
#include "sim/delay.hpp"
#include "synth/synthesizer.hpp"
#include "workloads/wan2002.hpp"

int main() {
  using namespace cdcs;
  const model::ConstraintGraph cg = workloads::wan2002();
  const commlib::Library lib = commlib::wan_library();
  const sim::DelayModel m{.link_delay_per_length = 1.0, .node_delay = 0.5};

  std::puts("=== Cost-latency Pareto frontier (WAN, Fig. 4 instance) ===\n");
  std::printf("%10s | %12s | %12s | %s\n", "budget", "cost", "worst-delay",
              "architecture");

  int failures = 0;
  double prev_cost = -1.0;
  for (double budget : {200.0, 130.0, 110.0, 102.0, 100.8, 100.4}) {
    synth::SynthesisOptions opts;
    opts.delay_budget = {{m, budget}};
    opts.drop_unprofitable = true;
    const auto synthesis = synth::synthesize(cg, lib, opts);
    if (synthesis.ok()) {
      const synth::SynthesisResult& result = *synthesis;
      const sim::DelayReport delays =
          sim::analyze_delays(*result.implementation, m);
      std::size_t merged = 0;
      for (const synth::Candidate* c : result.selected()) {
        if (!std::holds_alternative<synth::PtpPlan>(c->plan)) {
          merged += c->arcs.size();
        }
      }
      std::printf("%10.1f | %12.0f | %12.2f | %zu arcs merged%s\n", budget,
                  result.total_cost, delays.max_delay, merged,
                  merged == 0 ? " (all direct)" : "");
      if (!result.validation.ok() ||
          !delays.violations(budget + 1e-6).empty()) {
        std::printf("FAIL: budget %.1f violated\n", budget);
        ++failures;
      }
      // Tightening the budget can only cost more (monotone frontier).
      if (prev_cost > 0.0 && result.total_cost < prev_cost - 1e-6) {
        std::printf("FAIL: cost decreased as the budget tightened\n");
        ++failures;
      }
      prev_cost = result.total_cost;
    } else {
      std::printf("%10.1f | %12s | %12s | infeasible\n", budget, "-", "-");
    }
  }

  // Below the longest direct line (a5 = 100.18) nothing can work.
  {
    synth::SynthesisOptions opts;
    opts.delay_budget = {{m, 95.0}};
    const auto synthesis = synth::synthesize(cg, lib, opts);
    if (synthesis.ok() ||
        synthesis.status().code() != support::ErrorCode::kInfeasible) {
      std::puts("FAIL: sub-direct budget should be infeasible");
      ++failures;
    } else {
      std::printf("%10.1f | %12s | %12s | infeasible (below direct line)\n",
                  95.0, "-", "-");
    }
  }

  std::puts(
      "\nThe frontier is a staircase: the 28%-cheaper merged architecture\n"
      "costs ~0.5 km of detour plus one junction hop on its slowest\n"
      "channel; once the budget denies that slack, the synthesizer pays\n"
      "the point-to-point premium for the direct lines.");
  std::puts(failures == 0 ? "\nPareto sweep: PASS" : "\nPareto sweep: FAIL");
  return failures == 0 ? 0 : 1;
}
