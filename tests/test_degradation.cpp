// The anytime degradation ladder, rung by rung:
//
//   exact -> incumbent -> greedy -> point-to-point
//
// Each transition is forced deterministically -- a FaultPlan rule on the
// rung's fault site (support/fault.hpp), or a check-counted Deadline, never
// wall-clock races -- on the paper's WAN
// instance, and every rung must still hand back a validator-passing
// implementation with an honest DegradationReport: the stage, a
// human-readable reason, the root lower bound, and the optimality gap.
#include <gtest/gtest.h>

#include <memory>

#include "baseline/baselines.hpp"
#include "commlib/standard_libraries.hpp"
#include "support/fault.hpp"
#include "synth/synthesizer.hpp"
#include "workloads/wan2002.hpp"

namespace cdcs {
namespace {

using support::Deadline;
using support::FaultInjector;
using support::FaultPlan;
using synth::SynthesisOptions;
using synth::SynthesisResult;
using synth::SynthesisStage;

struct Wan {
  model::ConstraintGraph cg = workloads::wan2002();
  commlib::Library lib = commlib::wan_library();
};

/// Arms `opts` with a parsed --fault-plan style spec (the scriptable way
/// to reach each ladder rung).
void arm(SynthesisOptions& opts, const std::string& spec) {
  opts.fault_injection.injector =
      std::make_shared<FaultInjector>(FaultPlan::parse(spec).value());
}

double exact_cost(const Wan& w) {
  static const double cost =
      synth::synthesize(w.cg, w.lib).value().total_cost;
  return cost;
}

TEST(Degradation, UnlimitedRunIsExactWithZeroGap) {
  Wan w;
  const SynthesisResult result = synth::synthesize(w.cg, w.lib).value();
  EXPECT_EQ(result.degradation.stage, SynthesisStage::kExact);
  EXPECT_FALSE(result.degradation.degraded());
  EXPECT_TRUE(result.degradation.reason.empty());
  EXPECT_DOUBLE_EQ(result.degradation.optimality_gap, 0.0);
  // For an exact run the lower bound IS the achieved cover cost.
  EXPECT_NEAR(result.degradation.lower_bound, result.cover.cost, 1e-9);
  EXPECT_TRUE(result.validation.ok());
}

TEST(Degradation, ExpiredSolverDeadlineFallsToIncumbent) {
  Wan w;
  SynthesisOptions opts;
  arm(opts, "ucp.solve@1");
  const SynthesisResult result =
      synth::synthesize(w.cg, w.lib, opts).value();
  EXPECT_EQ(result.degradation.stage, SynthesisStage::kIncumbent);
  EXPECT_TRUE(result.degradation.degraded());
  EXPECT_NE(result.degradation.reason.find("deadline"), std::string::npos)
      << result.degradation.reason;
  EXPECT_TRUE(result.cover.deadline_expired);
  // Still a valid implementation, at most as good as the exact optimum,
  // with a bound-relative gap the caller can act on.
  EXPECT_TRUE(result.validation.ok());
  EXPECT_GE(result.total_cost, exact_cost(w) - 1e-6);
  EXPECT_GT(result.degradation.lower_bound, 0.0);
  EXPECT_GE(result.cover.cost, result.degradation.lower_bound - 1e-9);
  EXPECT_GE(result.degradation.optimality_gap, 0.0);
}

TEST(Degradation, ZeroMsDeadlineStillReturnsValidCover) {
  // The acceptance scenario: a deadline that has already expired when
  // synthesis starts. Singletons are never deadline-gated, so a valid
  // (if degraded) cover must come back -- never an error.
  Wan w;
  SynthesisOptions opts;
  opts.deadline = Deadline::after_ms(0.0);
  const auto synthesis = synth::synthesize(w.cg, w.lib, opts);
  ASSERT_TRUE(synthesis.ok()) << synthesis.status().to_string();
  const SynthesisResult& result = *synthesis;
  EXPECT_NE(result.degradation.stage, SynthesisStage::kExact);
  EXPECT_TRUE(result.candidate_set.stats.deadline_expired);
  EXPECT_TRUE(result.validation.ok());
  EXPECT_FALSE(result.degradation.reason.empty());
  EXPECT_GE(result.total_cost, exact_cost(w) - 1e-6);
  EXPECT_GE(result.degradation.optimality_gap, 0.0);
}

TEST(Degradation, CheckCountedDeadlineIsDeterministic) {
  // expire_after_checks(0) latches on the very first poll, wherever that
  // happens to be -- the whole pipeline then sees an expired deadline.
  Wan w;
  SynthesisOptions opts;
  opts.deadline = Deadline::expire_after_checks(0);
  const SynthesisResult result =
      synth::synthesize(w.cg, w.lib, opts).value();
  EXPECT_TRUE(result.degradation.degraded());
  EXPECT_TRUE(result.validation.ok());
}

TEST(Degradation, DroppedIncumbentFallsToGreedy) {
  Wan w;
  SynthesisOptions opts;
  arm(opts, "ucp.incumbent@1");
  const SynthesisResult result =
      synth::synthesize(w.cg, w.lib, opts).value();
  EXPECT_EQ(result.degradation.stage, SynthesisStage::kGreedy);
  EXPECT_NE(result.degradation.reason.find("greedy"), std::string::npos)
      << result.degradation.reason;
  EXPECT_TRUE(result.validation.ok());
  EXPECT_GE(result.total_cost, exact_cost(w) - 1e-6);
  EXPECT_GE(result.degradation.optimality_gap, 0.0);
}

TEST(Degradation, LastRungIsPointToPoint) {
  Wan w;
  SynthesisOptions opts;
  arm(opts, "ucp.incumbent@1;ucp.greedy@1");
  const SynthesisResult result =
      synth::synthesize(w.cg, w.lib, opts).value();
  EXPECT_EQ(result.degradation.stage, SynthesisStage::kPointToPoint);
  EXPECT_TRUE(result.validation.ok());

  // The cover is exactly the per-arc singletons: candidate i covers arc i.
  ASSERT_EQ(result.cover.chosen.size(), w.cg.num_channels());
  for (std::size_t i = 0; i < result.cover.chosen.size(); ++i) {
    EXPECT_EQ(result.cover.chosen[i], i);
    EXPECT_TRUE(
        std::holds_alternative<synth::PtpPlan>(result.candidates()[i].plan));
  }
  // ...and therefore costs what the point-to-point baseline costs. On this
  // instance merging saves real money, so the reported gap must be > 0.
  const baseline::BaselineResult ptp =
      baseline::point_to_point_baseline(w.cg, w.lib);
  EXPECT_NEAR(result.total_cost, ptp.cost, 1e-6 * ptp.cost);
  EXPECT_GT(result.total_cost, exact_cost(w) + 1e-6);
  EXPECT_GT(result.degradation.optimality_gap, 0.0);
}

TEST(Degradation, FailedPricersLeaveOnlySingletons) {
  Wan w;
  SynthesisOptions opts;
  arm(opts, "pricer.merge%1");  // every merged-subset pricing attempt
  const SynthesisResult result =
      synth::synthesize(w.cg, w.lib, opts).value();
  // Generation yields only the |A| point-to-point columns; the solver then
  // proves the singleton cover optimal over that (crippled) candidate set.
  EXPECT_EQ(result.candidates().size(), w.cg.num_channels());
  const baseline::BaselineResult ptp =
      baseline::point_to_point_baseline(w.cg, w.lib);
  EXPECT_NEAR(result.total_cost, ptp.cost, 1e-6 * ptp.cost);
  EXPECT_TRUE(result.validation.ok());
}

TEST(Degradation, DegradedCostNeverBeatsTheReportedLowerBound) {
  Wan w;
  for (const long checks : {0L, 1L, 5L, 25L, 100L}) {
    SynthesisOptions opts;
    opts.deadline = Deadline::expire_after_checks(checks);
    const SynthesisResult result =
        synth::synthesize(w.cg, w.lib, opts).value();
    EXPECT_TRUE(result.validation.ok()) << "checks=" << checks;
    EXPECT_GE(result.cover.cost,
              result.degradation.lower_bound - 1e-9)
        << "checks=" << checks;
    if (result.degradation.degraded()) {
      EXPECT_FALSE(result.degradation.reason.empty());
    } else {
      EXPECT_DOUBLE_EQ(result.degradation.optimality_gap, 0.0);
    }
  }
}

}  // namespace
}  // namespace cdcs
