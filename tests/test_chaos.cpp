// Chaos soak for the durability layer: >= 200 seeded iterations drive
// random edit batches through journaled Engine sessions while a rotating
// FaultPlan fires every registered fault site with every trigger kind.
// After EVERY apply -- success or injected failure -- the session must hold
// its invariants: a failed apply leaves the graph byte-identical to its
// pre-apply state (all-or-nothing), the journal on disk always reads back
// cleanly, and a clean-options Engine::recover() of that journal agrees
// with the live session's graph. The suite also pins schedule determinism
// (identical seed + plan => identical fault schedule) and the acceptance
// byte-equivalence pin for a failed apply. CI runs this under ASan+UBSan
// (chaos-smoke job).
#include <cstdint>
#include <fstream>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "commlib/standard_libraries.hpp"
#include "io/journal.hpp"
#include "io/text_format.hpp"
#include "model/delta.hpp"
#include "support/fault.hpp"
#include "synth/engine.hpp"
#include "synth/synthesizer.hpp"
#include "workloads/wan2002.hpp"

namespace cdcs {
namespace {

using support::FaultInjector;
using support::FaultPlan;

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "cdcs_chaos_" + name;
}

std::string graph_bytes(const model::ConstraintGraph& cg) {
  return io::write_constraint_graph(cg);
}

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

std::string fingerprint(const synth::SynthesisResult& r) {
  std::ostringstream os;
  os.precision(17);
  for (const synth::Candidate& c : r.candidates()) {
    os << '[';
    for (model::ArcId a : c.arcs) os << a.value << ',';
    os << "] cost=" << c.cost << '\n';
  }
  os << "chosen:";
  for (std::size_t j : r.cover.chosen) os << ' ' << j;
  os << "\ntotal=" << r.total_cost
     << "\nstage=" << to_string(r.degradation.stage)
     << "\nucp_nodes=" << r.cover.nodes_explored << '\n';
  return os.str();
}

/// Small valid-by-construction random edit batches (the chaos sibling of
/// test_incremental.cpp's ScriptGen): retunes, port nudges, new traffic.
class ChaosGen {
 public:
  explicit ChaosGen(std::uint32_t seed) : rng_(seed) {}

  model::Delta next_batch(model::ConstraintGraph& shadow) {
    model::Delta batch;
    const int n = 1 + static_cast<int>(rng_() % 2);
    for (int i = 0; i < n; ++i) {
      model::Delta one;
      one.ops.push_back(next_op(shadow));
      const auto effect = model::apply_delta(shadow, one);
      EXPECT_TRUE(effect.ok()) << effect.status().to_string();
      batch.ops.push_back(std::move(one.ops.front()));
    }
    return batch;
  }

 private:
  model::EditOp next_op(const model::ConstraintGraph& shadow) {
    const std::vector<model::VertexId> ports = shadow.ports();
    while (true) {
      switch (rng_() % 4) {
        case 0: {
          const model::ArcId a{
              static_cast<std::uint32_t>(rng_() % shadow.num_channels())};
          return model::SetBandwidthOp{
              shadow.channel(a).name,
              1.0 + static_cast<double>(rng_() % 390) / 10.0};
        }
        case 1:
        case 2: {
          const model::VertexId v = ports[rng_() % ports.size()];
          const geom::Point2D p = shadow.port(v).position;
          return model::MovePortOp{shadow.port(v).name,
                                   {p.x + jitter(), p.y + jitter()}};
        }
        default: {
          const model::VertexId u = ports[rng_() % ports.size()];
          const model::VertexId v = ports[rng_() % ports.size()];
          if (u == v) continue;
          return model::AddArcOp{"ce" + std::to_string(counter_++),
                                 shadow.port(u).name, shadow.port(v).name,
                                 1.0 + static_cast<double>(rng_() % 200) / 10.0};
        }
      }
    }
  }

  double jitter() { return (static_cast<double>(rng_() % 41) - 20.0) / 10.0; }

  std::mt19937 rng_;
  int counter_ = 0;
};

/// One fault plan per soak iteration: rotate through every registered site
/// and all three trigger kinds, always seeded for reproducibility.
std::string plan_for_iteration(int i) {
  const auto& sites = support::all_fault_sites();
  const std::string site(sites[static_cast<std::size_t>(i) % sites.size()]);
  std::string rule;
  switch ((i / static_cast<int>(sites.size())) % 3) {
    case 0:
      rule = site + "@" + std::to_string(1 + i % 3);
      break;
    case 1:
      rule = site + "%" + std::to_string(1 + i % 2);
      break;
    default:
      rule = site + "~0.4";
      break;
  }
  return rule + ";seed=" + std::to_string(1000 + i);
}

// ---------------------------------------------------------------------------
// The soak (>= 200 iterations; ASan+UBSan in CI's chaos-smoke job)
// ---------------------------------------------------------------------------

TEST(ChaosSoak, JournaledSessionsSurviveEveryFaultSite) {
  constexpr int kIterations = 240;  // 10 sites x 3 triggers x 8 rounds
  constexpr int kBatches = 3;
  const model::ConstraintGraph base = workloads::wan2002();
  const commlib::Library lib = commlib::wan_library();

  int injected_failures = 0;
  int successful_applies = 0;
  int degraded_applies = 0;
  for (int i = 0; i < kIterations; ++i) {
    SCOPED_TRACE("iteration " + std::to_string(i) + " plan " +
                 plan_for_iteration(i));
    const auto plan = FaultPlan::parse(plan_for_iteration(i));
    ASSERT_TRUE(plan.ok()) << plan.status().to_string();

    synth::SynthesisOptions options;
    options.threads = 1 + i % 2;
    options.fault_injection.injector = std::make_shared<FaultInjector>(*plan);
    // Cover solves go through branch-and-bound so the rotation exercises
    // its per-node ucp.frontier site; WAN instances sit under the dense-DP
    // row cutoff, so the backend is named explicitly.
    options.solver.backend = "bnb_v2";

    synth::Engine engine(base, lib, options);
    const std::string journal = temp_path("soak_" + std::to_string(i % 8) +
                                          ".journal");
    // open_journal consults the io.journal.open site, so it may itself be
    // the injected failure; a session without a journal is still sound.
    const bool journaled = engine.open_journal(journal).ok();

    ChaosGen gen(0xC0FFEE + static_cast<std::uint32_t>(i));
    model::ConstraintGraph shadow = engine.graph();
    for (int b = 0; b < kBatches; ++b) {
      const model::Delta batch = gen.next_batch(shadow);
      const std::string before = graph_bytes(engine.graph());
      const auto result = engine.apply(batch);
      if (result.ok()) {
        ++successful_applies;
        if (result->degradation.degraded()) ++degraded_applies;
        ASSERT_GT(result->total_cost, 0.0);
        ASSERT_TRUE(result->cover.chosen.size() > 0);
      } else {
        ++injected_failures;
        // Clean failure: a real Status, and the session graph rolled back
        // byte-identically (all-or-nothing).
        ASSERT_FALSE(result.status().to_string().empty());
        ASSERT_EQ(graph_bytes(engine.graph()), before);
        // Re-sync the shadow: the batch was NOT applied.
        shadow = engine.graph();
      }
      if (journaled && engine.journaling()) {
        // Whatever just happened, the on-disk journal must read back
        // cleanly and replay to the live session's graph.
        const auto contents = io::read_journal(journal);
        ASSERT_TRUE(contents.ok()) << contents.status().to_string();
        model::ConstraintGraph replayed = contents->base;
        for (const model::Delta& d : contents->deltas) {
          ASSERT_TRUE(model::apply_delta(replayed, d).ok());
        }
        ASSERT_EQ(graph_bytes(replayed), graph_bytes(engine.graph()));
      }
    }

    if (journaled && engine.journaling()) {
      // Clean-options recovery of the journal agrees with the live session.
      auto recovered = synth::Engine::recover(journal, lib);
      ASSERT_TRUE(recovered.ok()) << recovered.status().to_string();
      ASSERT_EQ(graph_bytes((*recovered)->graph()), graph_bytes(engine.graph()));
    }
  }
  // The rotation must exercise every outcome heavily: hard failures (the
  // engine.apply / io.journal.* / engine.recover sites), degraded-but-valid
  // results (the ucp.* / pricer.merge ladder sites), and clean successes.
  // All three counts are deterministic given the seeds above.
  // (The frontier site degrades the cover rather than failing the apply,
  // so growing the registry to 10 sites shifted a slice of the rotation
  // from hard failures to degraded-but-valid results.)
  EXPECT_GT(injected_failures, 25);
  EXPECT_GT(degraded_applies, 50);
  EXPECT_GT(successful_applies, 200);
}

// ---------------------------------------------------------------------------
// Schedule determinism
// ---------------------------------------------------------------------------

TEST(ChaosSoak, IdenticalSeedAndPlanGiveIdenticalFaultSchedule) {
  // Replay one probabilistic chaos iteration twice: the injected-failure
  // pattern and the injector's hit/fire accounting must match exactly.
  const auto run = [] {
    synth::SynthesisOptions options;
    options.fault_injection.injector = std::make_shared<FaultInjector>(
        FaultPlan::parse("ucp.solve~0.5;pricer.merge~0.2;seed=77").value());
    synth::Engine engine(workloads::wan2002(), commlib::wan_library(),
                         options);
    ChaosGen gen(99);
    model::ConstraintGraph shadow = engine.graph();
    std::vector<std::string> outcomes;
    for (int b = 0; b < 6; ++b) {
      const auto result = engine.apply(gen.next_batch(shadow));
      if (result.ok()) {
        outcomes.push_back("ok stage=" +
                           std::string(to_string(result->degradation.stage)));
      } else {
        outcomes.push_back("fail " + result.status().to_string());
        shadow = engine.graph();
      }
    }
    std::ostringstream os;
    for (const auto& [site, s] :
         options.fault_injection.injector->stats()) {
      os << site << ":" << s.hits << "/" << s.fires << ";";
    }
    return std::make_pair(outcomes, os.str());
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

// ---------------------------------------------------------------------------
// All-or-nothing acceptance pin: byte-equivalence after a failed apply
// ---------------------------------------------------------------------------

TEST(ChaosSoak, FailedApplyIsByteEquivalentToPreApplyState) {
  synth::SynthesisOptions options;
  // Hit 1 = the first apply (succeeds untouched), hit 2 = the second apply
  // fails AFTER the journal append and the state mutation -- the deepest
  // rollback path.
  options.fault_injection.injector = std::make_shared<FaultInjector>(
      FaultPlan::parse("engine.apply@2").value());
  synth::Engine engine(workloads::wan2002(), commlib::wan_library(), options);
  const std::string journal = temp_path("all_or_nothing.journal");
  ASSERT_TRUE(engine.open_journal(journal).ok());

  model::Delta first;
  first.ops.push_back(model::SetBandwidthOp{"a3", 25.0});
  const auto ok1 = engine.apply(first);
  ASSERT_TRUE(ok1.ok()) << ok1.status().to_string();

  const std::string graph_before = graph_bytes(engine.graph());
  const std::string journal_before = file_bytes(journal);
  const auto stats_before = engine.stats();

  model::Delta second;
  second.ops.push_back(model::SetBandwidthOp{"a1", 17.0});
  const auto failed = engine.apply(second);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), support::ErrorCode::kInternal);

  // Byte-equivalence: graph, journal file, and session counters all
  // exactly as before the failed apply.
  EXPECT_EQ(graph_bytes(engine.graph()), graph_before);
  EXPECT_EQ(file_bytes(journal), journal_before);
  const auto stats_after = engine.stats();
  EXPECT_EQ(stats_after.applies, stats_before.applies);
  EXPECT_EQ(stats_after.cover_solves, stats_before.cover_solves);
  EXPECT_EQ(stats_after.cover_reuses, stats_before.cover_reuses);
  EXPECT_EQ(stats_after.revision, stats_before.revision);

  // The nth-hit rule is spent: retrying the same batch succeeds and is
  // bit-identical to cold synthesis of the edited graph.
  const auto retried = engine.apply(second);
  ASSERT_TRUE(retried.ok()) << retried.status().to_string();
  model::ConstraintGraph edited = workloads::wan2002();
  ASSERT_TRUE(model::apply_delta(edited, first).ok());
  ASSERT_TRUE(model::apply_delta(edited, second).ok());
  const auto cold =
      synth::synthesize(edited, commlib::wan_library(), synth::SynthesisOptions{});
  ASSERT_TRUE(cold.ok()) << cold.status().to_string();
  EXPECT_EQ(fingerprint(*retried), fingerprint(*cold));
}

TEST(ChaosSoak, JournalAppendExhaustionRollsBackTheApply) {
  synth::SynthesisOptions options;
  // Every io.journal.write hit fires -> open_journal's snapshot append
  // would already fail, so arm the plan only after the journal exists.
  synth::Engine engine(workloads::wan2002(), commlib::wan_library(), options);
  const std::string journal = temp_path("append_exhaustion.journal");
  io::JournalOptions journal_options;
  journal_options.injector = std::make_shared<FaultInjector>(
      FaultPlan::parse("io.journal.write@2;io.journal.write@3;"
                       "io.journal.write@4")
          .value());
  ASSERT_TRUE(engine.open_journal(journal, journal_options).ok());

  const std::string graph_before = graph_bytes(engine.graph());
  const std::string journal_before = file_bytes(journal);

  model::Delta d;
  d.ops.push_back(model::SetBandwidthOp{"a3", 25.0});
  const auto failed = engine.apply(d);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(graph_bytes(engine.graph()), graph_before);
  EXPECT_EQ(file_bytes(journal), journal_before);

  // The write rules are spent; the session keeps working and journaling.
  const auto retried = engine.apply(d);
  ASSERT_TRUE(retried.ok()) << retried.status().to_string();
  const auto contents = io::read_journal(journal);
  ASSERT_TRUE(contents.ok());
  EXPECT_EQ(contents->deltas.size(), 1u);
}

}  // namespace
}  // namespace cdcs
