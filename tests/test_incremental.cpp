// The incremental engine's contract (synth/engine.hpp): Engine::apply()
// after ANY edit sequence is BIT-IDENTICAL to from-scratch synthesize() on the edited graph -- same
// candidates, same chosen cover, same cost, same degradation stage, same
// cover-solver node count -- at 1, 2, and 8 pricing threads. This file pins
// that oracle with 200 deterministic random edit scripts, plus unit tests
// for the model::Delta layer, the io edit-script parser, the checked-in
// data/edits/ corpus, and the session's cover reuse.
#include <cstdint>
#include <fstream>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "commlib/standard_libraries.hpp"
#include "io/edit_script.hpp"
#include "io/text_format.hpp"
#include "model/delta.hpp"
#include "synth/engine.hpp"
#include "synth/synthesizer.hpp"
#include "workloads/mpeg4_soc.hpp"
#include "workloads/noc_mesh.hpp"
#include "workloads/wan2002.hpp"

namespace cdcs::synth {
namespace {

using support::ErrorCode;

/// Same exhaustive fingerprint test_parallel_determinism.cpp uses: full
/// precision, and `ucp_nodes` so "bit-identical" includes the cover
/// solver's search trajectory, not just its answer.
std::string fingerprint(const SynthesisResult& r) {
  std::ostringstream os;
  os.precision(17);
  for (const Candidate& c : r.candidates()) {
    os << '[';
    for (model::ArcId a : c.arcs) os << a.value << ',';
    os << "] cost=" << c.cost << " plan=" << c.plan.index() << '\n';
  }
  os << "chosen:";
  for (std::size_t j : r.cover.chosen) os << ' ' << j;
  os << "\ntotal=" << r.total_cost
     << "\nstage=" << to_string(r.degradation.stage)
     << "\nucp_nodes=" << r.cover.nodes_explored << '\n';
  return os.str();
}

std::optional<model::ArcId> arc_by_name(const model::ConstraintGraph& cg,
                                        std::string_view name) {
  for (std::size_t i = 0; i < cg.num_channels(); ++i) {
    const model::ArcId a{static_cast<std::uint32_t>(i)};
    if (cg.channel(a).name == name) return a;
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// model::Delta unit tests
// ---------------------------------------------------------------------------

TEST(ModelDelta, SetBandwidthDirtiesExactlyThatArc) {
  model::ConstraintGraph cg = workloads::wan2002();
  const std::uint64_t rev0 = cg.revision();

  model::Delta d;
  d.ops.push_back(model::SetBandwidthOp{"a3", 25.0});
  const auto effect = model::apply_delta(cg, d);
  ASSERT_TRUE(effect.ok()) << effect.status().to_string();

  const auto a3 = arc_by_name(cg, "a3");
  ASSERT_TRUE(a3.has_value());
  EXPECT_EQ(cg.bandwidth(*a3), 25.0);
  ASSERT_EQ(effect->dirty_arcs.size(), 1u);
  EXPECT_EQ(effect->dirty_arcs[0], *a3);
  EXPECT_EQ(effect->revision_before, rev0);
  EXPECT_GT(effect->revision_after, rev0);
  EXPECT_EQ(effect->revision_after, cg.revision());
}

TEST(ModelDelta, MovePortDirtiesAllIncidentArcs) {
  model::ConstraintGraph cg = workloads::wan2002();
  model::Delta d;
  d.ops.push_back(model::MovePortOp{"D", {-1.0, -95.0}});
  const auto effect = model::apply_delta(cg, d);
  ASSERT_TRUE(effect.ok()) << effect.status().to_string();

  // D touches a4 (D->A), a5 (D->B), a6 (D->C), a7 (D->E), a8 (E->D).
  std::vector<std::string> dirty_names;
  for (model::ArcId a : effect->dirty_arcs) {
    dirty_names.push_back(cg.channel(a).name);
  }
  EXPECT_EQ(dirty_names,
            (std::vector<std::string>{"a4", "a5", "a6", "a7", "a8"}));
}

TEST(ModelDelta, RemoveArcRenumbersAndRemaps) {
  model::ConstraintGraph cg = workloads::wan2002();
  model::Delta d;
  d.ops.push_back(model::RemoveArcOp{"a2"});
  const auto effect = model::apply_delta(cg, d);
  ASSERT_TRUE(effect.ok()) << effect.status().to_string();

  EXPECT_EQ(cg.num_channels(), 7u);
  EXPECT_FALSE(arc_by_name(cg, "a2").has_value());
  // Survivors keep their names and relative order under dense renumbering.
  EXPECT_EQ(cg.channel(model::ArcId{0}).name, "a1");  // a1 stays
  for (std::uint32_t old = 2; old < 8; ++old) {       // a3..a8 shift down
    EXPECT_EQ(cg.channel(model::ArcId{old - 1}).name,
              "a" + std::to_string(old + 1));
  }
  // Removing a row does not dirty the survivors' pricing inputs.
  EXPECT_TRUE(effect->dirty_arcs.empty());
}

TEST(ModelDelta, AddPortAndArcMarksNewArcDirty) {
  model::ConstraintGraph cg = workloads::wan2002();
  model::Delta d;
  d.ops.push_back(model::AddPortOp{"F", {8.0, -2.0}});
  d.ops.push_back(model::AddArcOp{"f1", "D", "F", 10.0});
  const auto effect = model::apply_delta(cg, d);
  ASSERT_TRUE(effect.ok()) << effect.status().to_string();

  EXPECT_EQ(cg.num_ports(), 6u);
  EXPECT_EQ(cg.num_channels(), 9u);
  ASSERT_EQ(effect->dirty_arcs.size(), 1u);
  EXPECT_EQ(cg.channel(effect->dirty_arcs[0]).name, "f1");
}

TEST(ModelDelta, RejectedBatchIsAtomic) {
  model::ConstraintGraph cg = workloads::wan2002();
  const std::uint64_t rev0 = cg.revision();
  const auto a1 = arc_by_name(cg, "a1");
  ASSERT_TRUE(a1.has_value());
  const double bw0 = cg.bandwidth(*a1);

  model::Delta d;
  d.ops.push_back(model::SetBandwidthOp{"a1", 99.0});        // valid
  d.ops.push_back(model::SetBandwidthOp{"no-such", 5.0});    // invalid
  const auto effect = model::apply_delta(cg, d);
  ASSERT_FALSE(effect.ok());
  EXPECT_EQ(effect.status().code(), ErrorCode::kInvalidInput);
  // The diagnostic names the offending op, 1-based.
  EXPECT_NE(effect.status().to_string().find("delta op 2"), std::string::npos)
      << effect.status().to_string();

  // Nothing happened, including the valid first op.
  EXPECT_EQ(cg.bandwidth(*a1), bw0);
  EXPECT_EQ(cg.revision(), rev0);
  EXPECT_EQ(cg.num_channels(), 8u);
}

TEST(ModelDelta, RejectsNonFiniteAndNonPositiveValues) {
  model::ConstraintGraph cg = workloads::wan2002();
  {
    model::Delta d;
    d.ops.push_back(model::SetBandwidthOp{"a1", -5.0});
    EXPECT_EQ(model::apply_delta(cg, d).status().code(),
              ErrorCode::kInvalidInput);
  }
  {
    model::Delta d;
    d.ops.push_back(
        model::MovePortOp{"A", {std::numeric_limits<double>::quiet_NaN(), 0}});
    EXPECT_EQ(model::apply_delta(cg, d).status().code(),
              ErrorCode::kInvalidInput);
  }
  {
    model::Delta d;  // duplicate port name
    d.ops.push_back(model::AddPortOp{"A", {1.0, 1.0}});
    EXPECT_EQ(model::apply_delta(cg, d).status().code(),
              ErrorCode::kInvalidInput);
  }
}

// ---------------------------------------------------------------------------
// io edit-script parser
// ---------------------------------------------------------------------------

TEST(EditScriptParser, ParsesAllDirectivesAndBatches) {
  const std::string text =
      "# comment\n"
      "add-port F 8 -2\n"
      "add-arc f1 D F 10\n"
      "solve\n"
      "set-bandwidth a3 25   # trailing comment\n"
      "move-port B 5 4\n"
      "solve\n"
      "solve\n"            // bare solve: legal empty batch
      "remove-arc a2\n";   // trailing ops: implicit final batch
  const auto script = io::read_edit_script_from_string(text);
  ASSERT_TRUE(script.ok()) << script.status().to_string();
  ASSERT_EQ(script->batches.size(), 4u);
  EXPECT_EQ(script->batches[0].ops.size(), 2u);
  EXPECT_EQ(script->batches[1].ops.size(), 2u);
  EXPECT_TRUE(script->batches[2].empty());
  EXPECT_EQ(script->batches[3].ops.size(), 1u);
  EXPECT_EQ(script->total_ops(), 5u);
  EXPECT_EQ(model::op_kind(script->batches[0].ops[0]), "add-port");
  EXPECT_EQ(model::op_kind(script->batches[3].ops[0]), "remove-arc");
}

TEST(EditScriptParser, RoundTripsThroughWriter) {
  const std::string text =
      "add-port F 8 -2\n"
      "add-arc f1 D F 10\n"
      "solve\n"
      "set-bandwidth a3 25\n"
      "move-port B 5 4\n"
      "solve\n";
  const auto script = io::read_edit_script_from_string(text);
  ASSERT_TRUE(script.ok());
  const std::string canonical = io::write_edit_script(*script);
  const auto reparsed = io::read_edit_script_from_string(canonical);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().to_string();
  EXPECT_EQ(io::write_edit_script(*reparsed), canonical);  // fixed point
  ASSERT_EQ(reparsed->batches.size(), script->batches.size());
  EXPECT_EQ(reparsed->total_ops(), script->total_ops());
}

TEST(EditScriptParser, MalformedInputsAreLineNumberedParseErrors) {
  const struct {
    const char* text;
    const char* needle;
  } cases[] = {
      {"rename-arc a1 a9\n", "line 1"},           // unknown directive
      {"solve\nmove-port Z 3\n", "line 2"},       // wrong arity
      {"set-bandwidth a1 fast\n", "line 1"},      // not a number
      {"set-bandwidth a1 -5\n", "line 1"},        // non-positive
      {"set-bandwidth a1 1e999\n", "line 1"},     // overflows to inf
      {"add-port Z nan 0\n", "line 1"},           // non-finite coordinate
      {"add-arc x A\n", "line 1"},                // wrong arity
  };
  for (const auto& c : cases) {
    const auto script = io::read_edit_script_from_string(c.text);
    ASSERT_FALSE(script.ok()) << c.text;
    EXPECT_EQ(script.status().code(), ErrorCode::kParseError) << c.text;
    EXPECT_NE(script.status().to_string().find(c.needle), std::string::npos)
        << c.text << " -> " << script.status().to_string();
  }
}

// ---------------------------------------------------------------------------
// data/edits/ corpus
// ---------------------------------------------------------------------------

std::string corpus_path(const std::string& file) {
  return std::string(CDCS_SOURCE_DIR) + "/data/edits/" + file;
}

support::Expected<io::EditScript> read_corpus(const std::string& file) {
  std::ifstream in(corpus_path(file));
  EXPECT_TRUE(in.good()) << "missing corpus file " << corpus_path(file);
  return io::read_edit_script(in);
}

TEST(EditCorpus, WellFormedScriptsParse) {
  const auto wan = read_corpus("wan_single_arc.edits");
  ASSERT_TRUE(wan.ok()) << wan.status().to_string();
  EXPECT_EQ(wan->batches.size(), 6u);
  EXPECT_EQ(wan->total_ops(), 6u);  // single-op batches throughout

  const auto churn = read_corpus("wan_churn.edits");
  ASSERT_TRUE(churn.ok()) << churn.status().to_string();
  EXPECT_EQ(churn->batches.size(), 6u);
  EXPECT_TRUE(churn->batches[4].empty());  // the bare `solve`
  EXPECT_EQ(churn->total_ops(), 12u);

  const auto soc = read_corpus("soc_ports.edits");
  ASSERT_TRUE(soc.ok()) << soc.status().to_string();
  EXPECT_EQ(soc->batches.size(), 5u);
  EXPECT_EQ(soc->total_ops(), 9u);
}

TEST(EditCorpus, MalformedScriptsFailWithLineNumbers) {
  const struct {
    const char* file;
    const char* needle;
  } cases[] = {
      {"malformed_unknown_directive.edits", "line 5"},
      {"malformed_bad_number.edits", "line 4"},
      {"malformed_wrong_arity.edits", "line 3"},
  };
  for (const auto& c : cases) {
    const auto script = read_corpus(c.file);
    ASSERT_FALSE(script.ok()) << c.file;
    EXPECT_EQ(script.status().code(), ErrorCode::kParseError) << c.file;
    EXPECT_NE(script.status().to_string().find(c.needle), std::string::npos)
        << c.file << " -> " << script.status().to_string();
  }
}

/// Replays a corpus script through an Engine, cross-checking every batch
/// against from-scratch synthesis on the edited graph.
void replay_corpus_bit_identical(const std::string& file,
                                 model::ConstraintGraph base,
                                 const commlib::Library& lib) {
  const auto script = read_corpus(file);
  ASSERT_TRUE(script.ok()) << script.status().to_string();

  Engine engine(std::move(base), lib);
  const auto baseline = engine.resynthesize();
  ASSERT_TRUE(baseline.ok()) << baseline.status().to_string();

  for (std::size_t b = 0; b < script->batches.size(); ++b) {
    const auto warm = engine.apply(script->batches[b]);
    ASSERT_TRUE(warm.ok()) << file << " batch " << b + 1 << ": "
                           << warm.status().to_string();
    const auto cold = synthesize(engine.graph(), lib);
    ASSERT_TRUE(cold.ok()) << cold.status().to_string();
    EXPECT_EQ(fingerprint(*warm), fingerprint(*cold))
        << file << " batch " << b + 1;
  }
}

TEST(EditCorpus, WanSingleArcReplayIsBitIdentical) {
  replay_corpus_bit_identical("wan_single_arc.edits", workloads::wan2002(),
                              commlib::wan_library());
}

TEST(EditCorpus, WanChurnReplayIsBitIdentical) {
  replay_corpus_bit_identical("wan_churn.edits", workloads::wan2002(),
                              commlib::wan_library());
}

TEST(EditCorpus, SocPortsReplayIsBitIdentical) {
  // The SoC corpus addresses the names in data/mpeg4_soc.graph (which
  // differ from the workloads::mpeg4_soc() builder's), so replay against
  // the checked-in graph file like the CLI does.
  std::ifstream in(std::string(CDCS_SOURCE_DIR) + "/data/mpeg4_soc.graph");
  ASSERT_TRUE(in.good());
  auto cg = io::read_constraint_graph(in);
  ASSERT_TRUE(cg.ok()) << cg.status().to_string();
  replay_corpus_bit_identical("soc_ports.edits", std::move(*cg),
                              commlib::soc_library());
}

// ---------------------------------------------------------------------------
// Engine session behavior
// ---------------------------------------------------------------------------

TEST(EngineSession, EmptyApplyReusesCoverAndPricing) {
  Engine engine(workloads::wan2002(), commlib::wan_library());
  const auto first = engine.resynthesize();
  ASSERT_TRUE(first.ok()) << first.status().to_string();
  const std::string want = fingerprint(*first);
  const auto after_first = engine.stats();
  EXPECT_EQ(after_first.applies, 1u);
  EXPECT_EQ(after_first.cover_solves, 1u);
  EXPECT_EQ(after_first.cover_reuses, 0u);
  EXPECT_GT(after_first.pricing_misses, 0u);

  const auto second = engine.resynthesize();
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(fingerprint(*second), want);
  const auto after_second = engine.stats();
  EXPECT_EQ(after_second.applies, 2u);
  EXPECT_EQ(after_second.cover_solves, 1u);  // identical UCP: skipped
  EXPECT_EQ(after_second.cover_reuses, 1u);
  // Re-pricing the unchanged graph is served entirely from the cache.
  EXPECT_EQ(after_second.pricing_misses, after_first.pricing_misses);
  EXPECT_GT(after_second.pricing_hits, after_first.pricing_hits);
}

TEST(EngineSession, RevertedEditHitsCacheCompletely) {
  Engine engine(workloads::wan2002(), commlib::wan_library());
  const auto first = engine.resynthesize();
  ASSERT_TRUE(first.ok()) << first.status().to_string();
  const std::string want = fingerprint(*first);

  model::Delta edit;
  edit.ops.push_back(model::SetBandwidthOp{"a3", 25.0});
  ASSERT_TRUE(engine.apply(edit).ok());
  const auto mid = engine.stats();

  model::Delta revert;
  revert.ops.push_back(model::SetBandwidthOp{"a3", 10.0});
  const auto back = engine.apply(revert);
  ASSERT_TRUE(back.ok());
  // Every subset was priced before under identical inputs: zero misses.
  EXPECT_EQ(engine.stats().pricing_misses, mid.pricing_misses);
  EXPECT_EQ(engine.stats().last_dirty_arcs, 1u);
  EXPECT_EQ(fingerprint(*back), want);
}

TEST(EngineSession, RejectedDeltaLeavesSessionUsable) {
  Engine engine(workloads::wan2002(), commlib::wan_library());
  ASSERT_TRUE(engine.resynthesize().ok());
  const auto before = engine.stats();

  model::Delta bad;
  bad.ops.push_back(model::SetBandwidthOp{"no-such-channel", 5.0});
  const auto rejected = engine.apply(bad);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), ErrorCode::kInvalidInput);
  EXPECT_EQ(engine.stats().applies, before.applies);
  EXPECT_EQ(engine.graph().num_channels(), 8u);

  model::Delta good;
  good.ops.push_back(model::SetBandwidthOp{"a1", 15.0});
  const auto after = engine.apply(good);
  ASSERT_TRUE(after.ok()) << after.status().to_string();
  const commlib::Library library = commlib::wan_library();
  const auto cold = synthesize(engine.graph(), library);
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(fingerprint(*after), fingerprint(*cold));
}

// Cover reuse across structural churn: wan_churn adds and removes arcs,
// and its fifth batch is empty, so the session solves the cover six times
// and reuses it once over seven applies (the baseline plus six batches).
TEST(EngineSession, ChurnReplayReusesCoverOnEmptyBatch) {
  const auto script = read_corpus("wan_churn.edits");
  ASSERT_TRUE(script.ok()) << script.status().to_string();
  ASSERT_EQ(script->batches.size(), 6u);

  Engine engine(workloads::wan2002(), commlib::wan_library());
  ASSERT_TRUE(engine.resynthesize().ok());
  for (const model::Delta& batch : script->batches) {
    const auto result = engine.apply(batch);
    ASSERT_TRUE(result.ok()) << result.status().to_string();
  }
  const Engine::SessionStats stats = engine.stats();
  EXPECT_EQ(stats.applies, 7u);
  EXPECT_EQ(stats.cover_solves, 6u);
  EXPECT_EQ(stats.cover_reuses, 1u);
}

TEST(EngineSession, SharedExternalCacheWarmsSecondSession) {
  PricingCache cache;
  SynthesisOptions options;
  options.pricing_cache = &cache;

  Engine first(workloads::wan2002(), commlib::wan_library(), options);
  const auto a = first.resynthesize();
  ASSERT_TRUE(a.ok());
  const auto misses_after_first = cache.stats().misses;
  EXPECT_GT(misses_after_first, 0u);

  Engine second(workloads::wan2002(), commlib::wan_library(), options);
  const auto b = second.resynthesize();
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(cache.stats().misses, misses_after_first);  // all hits
  EXPECT_EQ(fingerprint(*b), fingerprint(*a));
}

// ---------------------------------------------------------------------------
// The oracle: random edit scripts, every step cross-checked from scratch
// ---------------------------------------------------------------------------

/// Deterministic random edit generator. Ops are drawn against a shadow
/// graph that tracks the session state, so every generated batch is valid
/// by construction; the same seed always yields the same script.
class ScriptGen {
 public:
  explicit ScriptGen(std::uint32_t seed) : rng_(seed) {}

  model::Delta next_batch(model::ConstraintGraph& shadow, int max_ops) {
    model::Delta batch;
    const int n = 1 + static_cast<int>(rng_() % max_ops);
    for (int i = 0; i < n; ++i) {
      model::Delta one;
      one.ops.push_back(next_op(shadow));
      const auto effect = model::apply_delta(shadow, one);
      // Valid by construction; if generation drifts, fail loudly.
      EXPECT_TRUE(effect.ok()) << effect.status().to_string();
      batch.ops.push_back(std::move(one.ops.front()));
    }
    return batch;
  }

 private:
  model::EditOp next_op(const model::ConstraintGraph& shadow) {
    const std::size_t arcs = shadow.num_channels();
    const std::vector<model::VertexId> ports = shadow.ports();
    while (true) {
      switch (rng_() % 10) {
        case 0:
        case 1:
        case 2: {  // retune a channel
          const auto a = random_arc(shadow);
          return model::SetBandwidthOp{shadow.channel(a).name, random_bw()};
        }
        case 3:
        case 4:
        case 5: {  // nudge a module
          const model::VertexId v =
              ports[rng_() % ports.size()];
          const geom::Point2D p = shadow.port(v).position;
          return model::MovePortOp{shadow.port(v).name,
                                   {p.x + jitter(), p.y + jitter()}};
        }
        case 6:  // new module (traffic to it arrives via later add-arc)
          return model::AddPortOp{
              "np" + std::to_string(counter_++),
              {jitter() * 4.0, jitter() * 4.0}};
        case 7:
        case 8: {  // new traffic between existing modules
          const model::VertexId u = ports[rng_() % ports.size()];
          const model::VertexId v = ports[rng_() % ports.size()];
          if (u == v) continue;  // self-loops are invalid
          return model::AddArcOp{"ne" + std::to_string(counter_++),
                                 shadow.port(u).name, shadow.port(v).name,
                                 random_bw()};
        }
        case 9:  // drop a channel (keep the instance non-trivial)
          if (arcs <= 3) continue;
          return model::RemoveArcOp{shadow.channel(random_arc(shadow)).name};
      }
    }
  }

  model::ArcId random_arc(const model::ConstraintGraph& shadow) {
    return model::ArcId{
        static_cast<std::uint32_t>(rng_() % shadow.num_channels())};
  }
  double random_bw() { return 1.0 + static_cast<double>(rng_() % 390) / 10.0; }
  double jitter() { return (static_cast<double>(rng_() % 41) - 20.0) / 10.0; }

  std::mt19937 rng_;
  int counter_ = 0;
};

/// Generates `num_scripts` scripts of `num_batches` batches each and
/// replays every one through an Engine at each thread count, comparing
/// every step's fingerprint against from-scratch synthesis (with its own
/// cold pricing cache) on the engine's post-edit graph.
void run_random_oracle(const model::ConstraintGraph& base,
                       const commlib::Library& lib, int num_scripts,
                       int num_batches, std::uint32_t seed_base,
                       const std::vector<int>& thread_counts) {
  for (int s = 0; s < num_scripts; ++s) {
    // One script per seed, shared across all thread counts.
    ScriptGen gen(seed_base + static_cast<std::uint32_t>(s));
    model::ConstraintGraph shadow = base;
    std::vector<model::Delta> script;
    script.reserve(static_cast<std::size_t>(num_batches));
    for (int b = 0; b < num_batches; ++b) {
      script.push_back(gen.next_batch(shadow, 3));
    }

    for (int threads : thread_counts) {
      SynthesisOptions options;
      options.threads = threads;
      Engine engine(base, lib, options);
      const auto baseline = engine.resynthesize();
      ASSERT_TRUE(baseline.ok())
          << "seed " << seed_base + s << ": " << baseline.status().to_string();

      for (std::size_t b = 0; b < script.size(); ++b) {
        const auto warm = engine.apply(script[b]);
        ASSERT_TRUE(warm.ok()) << "seed " << seed_base + s << " batch "
                               << b + 1 << ": " << warm.status().to_string();

        SynthesisOptions cold_options;
        cold_options.threads = threads;
        const auto cold = synthesize(engine.graph(), lib, cold_options);
        ASSERT_TRUE(cold.ok()) << "seed " << seed_base + s << " batch "
                               << b + 1 << ": " << cold.status().to_string();
        ASSERT_EQ(fingerprint(*warm), fingerprint(*cold))
            << "seed " << seed_base + s << " batch " << b + 1 << " threads "
            << threads;
      }
    }
  }
}

// 200 scripts total across the three paper workloads, single-threaded.
TEST(IncrementalOracle, RandomEditScriptsWan) {
  run_random_oracle(workloads::wan2002(), commlib::wan_library(),
                    /*num_scripts=*/100, /*num_batches=*/3, 1000, {1});
}

TEST(IncrementalOracle, RandomEditScriptsSoc) {
  run_random_oracle(workloads::mpeg4_soc(), commlib::soc_library(),
                    /*num_scripts=*/60, /*num_batches=*/3, 2000, {1});
}

TEST(IncrementalOracle, RandomEditScriptsNoc) {
  workloads::NocMeshParams p;
  p.rows = 3;
  p.cols = 3;
  run_random_oracle(workloads::noc_mesh(p), commlib::noc_library(),
                    /*num_scripts=*/40, /*num_batches=*/2, 3000, {1});
}

// The same oracle at 1/2/8 pricing threads (fewer seeds: each script costs
// six engine replays plus six cold solves per batch). This is the TSan
// edit-fuzz surface: parallel pricing fed by incrementally edited graphs.
TEST(IncrementalOracle, RandomEditScriptsMultiThread) {
  run_random_oracle(workloads::wan2002(), commlib::wan_library(),
                    /*num_scripts=*/6, /*num_batches=*/3, 4000, {1, 2, 8});
  run_random_oracle(workloads::mpeg4_soc(), commlib::soc_library(),
                    /*num_scripts=*/4, /*num_batches=*/2, 5000, {1, 2, 8});
}

}  // namespace
}  // namespace cdcs::synth
