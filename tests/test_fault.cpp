// support::FaultPlan / FaultInjector unit tests: spec parsing and
// round-tripping, the three trigger kinds, schedule determinism (identical
// seed + plan => identical fault schedule, the chaos-soak prerequisite),
// and thread-safety of the hit counters.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "support/fault.hpp"

namespace cdcs::support {
namespace {

TEST(FaultPlan, ParsesEveryTriggerKindAndSeed) {
  const auto plan = FaultPlan::parse(
      "io.journal.write@3; engine.apply%2, ucp.solve~0.25;seed=42");
  ASSERT_TRUE(plan.ok()) << plan.status().to_string();
  ASSERT_EQ(plan->rules.size(), 3u);
  EXPECT_EQ(plan->seed, 42u);

  EXPECT_EQ(plan->rules[0].site, "io.journal.write");
  EXPECT_EQ(plan->rules[0].trigger, FaultRule::Trigger::kNthHit);
  EXPECT_EQ(plan->rules[0].n, 3u);

  EXPECT_EQ(plan->rules[1].site, "engine.apply");
  EXPECT_EQ(plan->rules[1].trigger, FaultRule::Trigger::kEveryK);
  EXPECT_EQ(plan->rules[1].n, 2u);

  EXPECT_EQ(plan->rules[2].site, "ucp.solve");
  EXPECT_EQ(plan->rules[2].trigger, FaultRule::Trigger::kProbability);
  EXPECT_DOUBLE_EQ(plan->rules[2].probability, 0.25);
}

TEST(FaultPlan, EmptySpecParsesToEmptyPlan) {
  const auto plan = FaultPlan::parse("");
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(plan->empty());
  EXPECT_EQ(plan->to_string(), "");
}

TEST(FaultPlan, ToStringRoundTrips) {
  const auto plan =
      FaultPlan::parse("pricer.merge%1;ucp.greedy@2;ucp.solve~0.5;seed=7");
  ASSERT_TRUE(plan.ok());
  const std::string canonical = plan->to_string();
  const auto reparsed = FaultPlan::parse(canonical);
  ASSERT_TRUE(reparsed.ok()) << canonical;
  EXPECT_EQ(reparsed->to_string(), canonical);
  EXPECT_EQ(reparsed->rules.size(), plan->rules.size());
  EXPECT_EQ(reparsed->seed, plan->seed);
}

TEST(FaultPlan, RejectsUnknownSitesListingRegisteredOnes) {
  const auto plan = FaultPlan::parse("io.journal.wrte@1");
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), ErrorCode::kInvalidInput);
  // The diagnostic lists the registered sites so typos are self-serviceable.
  EXPECT_NE(plan.status().to_string().find("io.journal.write"),
            std::string::npos)
      << plan.status().to_string();
}

TEST(FaultPlan, RejectsMalformedRules) {
  for (const char* bad :
       {"engine.apply", "engine.apply@0", "engine.apply%0", "engine.apply@x",
        "engine.apply~1.5", "engine.apply~-0.1", "engine.apply~nan",
        "@3", "seed=abc"}) {
    const auto plan = FaultPlan::parse(bad);
    EXPECT_FALSE(plan.ok()) << bad;
    EXPECT_EQ(plan.status().code(), ErrorCode::kInvalidInput) << bad;
  }
}

TEST(FaultInjector, NthHitFiresExactlyOnce) {
  FaultInjector inj(FaultPlan::parse("engine.apply@3").value());
  std::vector<bool> fires;
  for (int i = 0; i < 6; ++i) {
    fires.push_back(inj.should_fail(fault_sites::kEngineApply));
  }
  EXPECT_EQ(fires, (std::vector<bool>{false, false, true, false, false,
                                      false}));
  EXPECT_EQ(inj.total_fires(), 1u);
  const auto stats = inj.stats();
  ASSERT_TRUE(stats.contains("engine.apply"));
  EXPECT_EQ(stats.at("engine.apply").hits, 6u);
  EXPECT_EQ(stats.at("engine.apply").fires, 1u);
}

TEST(FaultInjector, EveryKFiresPeriodically) {
  FaultInjector inj(FaultPlan::parse("pricer.merge%2").value());
  std::vector<bool> fires;
  for (int i = 0; i < 6; ++i) {
    fires.push_back(inj.should_fail(fault_sites::kPricerMerge));
  }
  EXPECT_EQ(fires,
            (std::vector<bool>{false, true, false, true, false, true}));
}

TEST(FaultInjector, ProbabilityScheduleIsSeedDeterministic) {
  // Identical seed + plan => identical fault schedule; a different seed
  // gives a different (but equally reproducible) one.
  const auto schedule = [](std::uint64_t seed) {
    FaultInjector inj(
        FaultPlan::parse("ucp.solve~0.5;seed=" + std::to_string(seed))
            .value());
    std::vector<bool> fires;
    for (int i = 0; i < 64; ++i) {
      fires.push_back(inj.should_fail(fault_sites::kUcpSolve));
    }
    return fires;
  };
  const auto a = schedule(42);
  EXPECT_EQ(a, schedule(42));
  EXPECT_NE(a, schedule(43));  // 2^-64 flake odds: effectively impossible
  // p=0.5 over 64 draws: both outcomes must actually occur.
  EXPECT_NE(std::count(a.begin(), a.end(), true), 0);
  EXPECT_NE(std::count(a.begin(), a.end(), true), 64);
}

TEST(FaultInjector, ProbabilityBoundsAreExact) {
  FaultInjector never(FaultPlan::parse("ucp.solve~0").value());
  FaultInjector always(FaultPlan::parse("ucp.greedy~1").value());
  for (int i = 0; i < 32; ++i) {
    EXPECT_FALSE(never.should_fail(fault_sites::kUcpSolve));
    EXPECT_TRUE(always.should_fail(fault_sites::kUcpGreedy));
  }
}

TEST(FaultInjector, UnarmedSitesCountHitsButNeverFire) {
  FaultInjector inj(FaultPlan::parse("engine.apply@1").value());
  EXPECT_FALSE(inj.should_fail(fault_sites::kUcpSolve));
  EXPECT_FALSE(inj.should_fail(fault_sites::kUcpSolve));
  const auto stats = inj.stats();
  EXPECT_EQ(stats.at("ucp.solve").hits, 2u);
  EXPECT_EQ(stats.at("ucp.solve").fires, 0u);
}

TEST(FaultInjector, ConcurrentNthHitFiresExactlyOnce) {
  // The firing-hit decision is a pure function of the (atomic) hit index,
  // so exactly one thread observes the firing ticket.
  FaultInjector inj(FaultPlan::parse("engine.apply@100").value());
  std::atomic<int> fired{0};
  std::vector<std::thread> threads;
  threads.reserve(8);
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 50; ++i) {
        if (inj.should_fail(fault_sites::kEngineApply)) {
          fired.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(fired.load(), 1);
  EXPECT_EQ(inj.stats().at("engine.apply").hits, 400u);
}

TEST(FaultSites, RegistryIsStableAndComplete) {
  const auto& sites = all_fault_sites();
  EXPECT_EQ(sites.size(), 10u);
  for (const std::string_view s : {fault_sites::kJournalOpen,
                                   fault_sites::kJournalWrite,
                                   fault_sites::kJournalFsync,
                                   fault_sites::kEngineApply,
                                   fault_sites::kEngineRecover,
                                   fault_sites::kPricerMerge,
                                   fault_sites::kUcpSolve,
                                   fault_sites::kUcpIncumbent,
                                   fault_sites::kUcpGreedy,
                                   fault_sites::kUcpFrontier}) {
    EXPECT_NE(std::find(sites.begin(), sites.end(), s), sites.end()) << s;
  }
}

}  // namespace
}  // namespace cdcs::support
