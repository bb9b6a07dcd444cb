// Tracing & metrics layer (docs/observability.md), three guarantees:
//
//   1. SCHEMA. The Chrome trace exporter always emits well-formed JSON with
//      per-thread balanced B/E pairs and per-thread monotonic timestamps --
//      even when the ring buffer truncated the stream or a failure left
//      spans open.
//   2. DETERMINISM. Instrumentation is write-only: a traced run is
//      bit-identical (candidates, cover, cost, UCP node counts) to an
//      untraced run on the seed workloads at 1/2/8 threads.
//   3. CONCURRENCY. Spans and metrics may be emitted from every pool worker
//      at once; the TraceConcurrency/MetricsConcurrency suites run under
//      TSan in CI.
#include <cctype>
#include <cstddef>
#include <cstdint>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "json_checker.hpp"

#include "commlib/standard_libraries.hpp"
#include "io/edit_script.hpp"
#include "support/metrics.hpp"
#include "support/thread_pool.hpp"
#include "support/trace.hpp"
#include "synth/engine.hpp"
#include "synth/synthesizer.hpp"
#include "ucp/bnb.hpp"
#include "ucp/bnb_options.hpp"
#include "workloads/mpeg4_soc.hpp"
#include "workloads/noc_mesh.hpp"
#include "workloads/wan2002.hpp"

namespace cdcs::support {
namespace {

// ---- Minimal JSON syntax checker ------------------------------------------
// Shared with test_obs_context.cpp; see json_checker.hpp.

using testsupport::JsonChecker;

/// Chrome-trace schema invariants over the EXPORTED event stream: balanced
/// B/E per thread with matching names, per-thread non-decreasing
/// timestamps, and only known phases. Checked on the pre-serialization
/// events (the exporter writes them in this order).
void expect_schema_valid(const std::vector<TraceEvent>& events) {
  std::vector<std::vector<const TraceEvent*>> open;
  std::vector<std::int64_t> last_ts;
  for (const TraceEvent& e : events) {
    if (e.thread_id >= open.size()) {
      open.resize(e.thread_id + 1);
      last_ts.resize(e.thread_id + 1, 0);
    }
    EXPECT_GE(e.timestamp_us, last_ts[e.thread_id])
        << "timestamps regress on thread " << e.thread_id;
    last_ts[e.thread_id] = e.timestamp_us;
    switch (e.phase) {
      case TraceEvent::Phase::kBegin:
        open[e.thread_id].push_back(&e);
        break;
      case TraceEvent::Phase::kEnd: {
        ASSERT_FALSE(open[e.thread_id].empty())
            << "unmatched E for '" << e.name << "' on thread " << e.thread_id;
        EXPECT_STREQ(open[e.thread_id].back()->name, e.name)
            << "E closes a different span than the innermost open B";
        open[e.thread_id].pop_back();
        break;
      }
      case TraceEvent::Phase::kCounter:
      case TraceEvent::Phase::kInstant:
        break;
    }
  }
}

std::string export_json(const TraceSink& sink) {
  std::ostringstream os;
  write_chrome_trace(os, sink);
  return os.str();
}

// ---- Trace unit tests ------------------------------------------------------

TEST(Trace, DisabledEmitsAreInert) {
  ASSERT_EQ(trace_sink(), nullptr);
  {
    Span s("noop", "test");
    trace_counter("noop", 1.0, "test");
    trace_instant("noop", "test");
  }
  EXPECT_FALSE(tracing_enabled());
}

TEST(Trace, SpanPairingAndNesting) {
  ScopedTraceSession session;
  {
    Span outer("outer", "test", "{\"k\":1}");
    { Span inner("inner", "test"); }
    trace_instant("mark", "test");
  }
  session.close();

  const std::vector<TraceEvent> events = session.sink().snapshot();
  ASSERT_EQ(events.size(), 5u);
  EXPECT_EQ(events[0].phase, TraceEvent::Phase::kBegin);
  EXPECT_STREQ(events[0].name, "outer");
  EXPECT_EQ(events[0].args, "{\"k\":1}");
  EXPECT_EQ(events[1].phase, TraceEvent::Phase::kBegin);
  EXPECT_STREQ(events[1].name, "inner");
  EXPECT_EQ(events[2].phase, TraceEvent::Phase::kEnd);
  EXPECT_STREQ(events[2].name, "inner");
  EXPECT_EQ(events[3].phase, TraceEvent::Phase::kInstant);
  EXPECT_EQ(events[4].phase, TraceEvent::Phase::kEnd);
  EXPECT_STREQ(events[4].name, "outer");
  // All from this thread, with monotonic timestamps.
  for (const TraceEvent& e : events) {
    EXPECT_EQ(e.thread_id, events[0].thread_id);
  }
  expect_schema_valid(events);
}

TEST(Trace, CounterCarriesValue) {
  ScopedTraceSession session;
  trace_counter("ucp.nodes", 1024.0, "ucp");
  session.close();
  const std::vector<TraceEvent> events = session.sink().snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].phase, TraceEvent::Phase::kCounter);
  EXPECT_DOUBLE_EQ(events[0].value, 1024.0);
}

TEST(Trace, RingOverwritesOldestAndCountsDrops) {
  TraceSink sink(16);  // minimum capacity
  install_trace_sink(&sink);
  for (int i = 0; i < 40; ++i) trace_instant("tick", "test");
  install_trace_sink(nullptr);

  EXPECT_EQ(sink.size(), 16u);
  EXPECT_EQ(sink.dropped(), 24u);
  const std::vector<TraceEvent> events = sink.snapshot();
  ASSERT_EQ(events.size(), 16u);
  // Oldest-first snapshot: timestamps never regress across the wrap seam.
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_GE(events[i].timestamp_us, events[i - 1].timestamp_us);
  }
}

TEST(Trace, TruncatedStreamExportsBalanced) {
  // A ring so small the outermost begins are overwritten: the exporter must
  // drop the orphaned ends and still emit valid JSON.
  TraceSink sink(16);
  install_trace_sink(&sink);
  {
    Span a("a", "test");
    Span b("b", "test");
    for (int i = 0; i < 20; ++i) Span leaf("leaf", "test");
  }
  install_trace_sink(nullptr);
  ASSERT_GT(sink.dropped(), 0u);

  std::ostringstream os;
  const std::size_t written = write_chrome_trace(os, sink);
  EXPECT_GT(written, 0u);
  EXPECT_TRUE(JsonChecker(os.str()).valid()) << os.str();
}

TEST(Trace, OpenSpansGetSyntheticEnds) {
  TraceSink sink;
  install_trace_sink(&sink);
  auto* leaked = new Span("never-closed", "test");  // deliberately left open
  trace_instant("mark", "test");
  install_trace_sink(nullptr);

  std::ostringstream os;
  // 1 B + 1 i recorded; the exporter adds the synthetic E.
  EXPECT_EQ(write_chrome_trace(os, sink), 3u);
  EXPECT_TRUE(JsonChecker(os.str()).valid()) << os.str();
  EXPECT_NE(os.str().find("\"ph\":\"E\""), std::string::npos);
  // The late destructor still records its real end against the captured
  // sink (which outlives it here); the export above already repaired.
  delete leaked;
}

TEST(Trace, ExportEscapesHostileNames) {
  TraceSink sink;
  install_trace_sink(&sink);
  trace_instant("quote\"back\\slash\nnewline\ttab", "cat\"egory");
  install_trace_sink(nullptr);
  EXPECT_TRUE(JsonChecker(export_json(sink)).valid()) << export_json(sink);
}

TEST(Trace, SpanEndsAgainstCapturedSink) {
  // The end event must reach the sink that saw the begin, even if the
  // global pointer changed mid-span -- otherwise a swap mid-pipeline would
  // strand an unbalanced B in the old sink.
  TraceSink first;
  install_trace_sink(&first);
  {
    Span s("crossing", "test");
    install_trace_sink(nullptr);  // swapped away mid-span
  }
  EXPECT_EQ(first.size(), 2u);
  expect_schema_valid(first.snapshot());
}

// ---- Golden schema check over a real synthesis run -------------------------

TEST(TraceSchema, GoldenSynthesisRun) {
  ScopedTraceSession session;
  synth::SynthesisOptions options;
  options.threads = 2;
  const model::ConstraintGraph cg = workloads::wan2002();
  const commlib::Library library = commlib::wan_library();
  const auto result = synth::synthesize(cg, library, options);
  session.close();
  ASSERT_TRUE(result.ok()) << result.status().to_string();

  const std::vector<TraceEvent> events = session.sink().snapshot();
  ASSERT_FALSE(events.empty());
  expect_schema_valid(events);

  // The pipeline's span taxonomy is a stable surface: every stage must
  // appear, from more than one thread (the pricing fan-out).
  std::set<std::string> names;
  std::set<std::uint32_t> tids;
  for (const TraceEvent& e : events) {
    names.insert(e.name);
    tids.insert(e.thread_id);
  }
  for (const char* expected :
       {"synthesize", "generate", "price.subset", "cover", "ladder",
        "assemble", "validate", "ucp.solve", "task"}) {
    EXPECT_TRUE(names.count(expected) == 1) << "missing span: " << expected;
  }
  EXPECT_GT(tids.size(), 1u) << "pool workers emitted no spans";

  const std::string json = export_json(session.sink());
  EXPECT_TRUE(JsonChecker(json).valid());
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"B\""), std::string::npos);
  EXPECT_NE(json.find("\"pid\":1"), std::string::npos);
}

// Each cover engine has its own span inside ucp.solve, so branch-and-bound
// time does not show up as ucp.solve self time.
TEST(TraceSchema, CoverEnginesHaveTheirOwnSpans) {
  ucp::CoverProblem p(6);
  for (std::size_t r = 0; r < 6; ++r) p.add_column({r}, 2.0);
  p.add_column({0, 1, 2}, 3.0);
  p.add_column({3, 4, 5}, 3.5);
  p.add_column({1, 4}, 1.5);
  auto span_names = [&](const ucp::BnbOptions& options) {
    ScopedTraceSession session;
    const ucp::CoverSolution sol = ucp::solve_exact(p, options);
    session.close();
    EXPECT_TRUE(sol.optimal);
    EXPECT_DOUBLE_EQ(sol.cost, 6.5);
    std::set<std::string> names;
    for (const TraceEvent& e : session.sink().snapshot()) names.insert(e.name);
    return names;
  };

  const std::set<std::string> automatic = span_names({});
  EXPECT_EQ(automatic.count("ucp.dense_dp"), 1u);
  EXPECT_EQ(automatic.count("ucp.bnb"), 0u);
  for (const std::string_view backend : ucp::kCoverBackends) {
    ucp::BnbOptions named;
    named.backend = backend;
    const std::set<std::string> names = span_names(named);
    const bool dp = backend == "dense_dp";
    EXPECT_EQ(names.count("ucp.solve"), 1u) << backend;
    EXPECT_EQ(names.count("ucp.dense_dp"), dp ? 1u : 0u) << backend;
    EXPECT_EQ(names.count("ucp.bnb"), dp ? 0u : 1u) << backend;
  }
}

TEST(TraceSchema, FailedSessionStillExportsValidTrace) {
  // The corpus script parses cleanly, solves once, then fails apply() on an
  // unknown port. The trace captured up to the failure must export as a
  // well-formed (truncated) Chrome trace -- the CLI-level counterpart is
  // the example_failed_session_still_flushes_trace ctest.
  std::ifstream in(std::string(CDCS_SOURCE_DIR) +
                   "/data/edits/wan_fail_mid_session.edits");
  ASSERT_TRUE(in.good());
  const auto script = io::read_edit_script(in);
  ASSERT_TRUE(script.ok()) << script.status().to_string();
  ASSERT_EQ(script->batches.size(), 2u);

  ScopedTraceSession session;
  synth::Engine engine(workloads::wan2002(), commlib::wan_library());
  ASSERT_TRUE(engine.resynthesize().ok());
  ASSERT_TRUE(engine.apply(script->batches[0]).ok());
  const auto failed = engine.apply(script->batches[1]);
  session.close();
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), ErrorCode::kInvalidInput);

  const std::string json = export_json(session.sink());
  EXPECT_TRUE(JsonChecker(json).valid());
  expect_schema_valid(session.sink().snapshot());
  EXPECT_NE(json.find("engine.apply"), std::string::npos);
}

// ---- Determinism: traced == untraced ---------------------------------------

std::string fingerprint(const synth::SynthesisResult& r) {
  std::ostringstream os;
  os.precision(17);
  for (const synth::Candidate& c : r.candidates()) {
    os << '[';
    for (model::ArcId a : c.arcs) os << a.value << ',';
    os << "] " << c.cost << '\n';
  }
  os << "chosen:";
  for (std::size_t j : r.cover.chosen) os << ' ' << j;
  os << " total=" << r.total_cost
     << " stage=" << to_string(r.degradation.stage)
     << " nodes=" << r.cover.nodes_explored;
  return os.str();
}

void expect_trace_invariant(const model::ConstraintGraph& cg,
                            const commlib::Library& lib) {
  for (int threads : {1, 2, 8}) {
    synth::SynthesisOptions options;
    options.threads = threads;

    const auto untraced = synth::synthesize(cg, lib, options);
    ASSERT_TRUE(untraced.ok()) << untraced.status().to_string();

    std::string traced_fp;
    {
      ScopedTraceSession session;
      set_timing_enabled(true);  // trace AND time: the maximal overhead path
      const auto traced = synth::synthesize(cg, lib, options);
      set_timing_enabled(false);
      ASSERT_TRUE(traced.ok()) << traced.status().to_string();
      traced_fp = fingerprint(*traced);
    }
    EXPECT_EQ(traced_fp, fingerprint(*untraced)) << "threads=" << threads;
  }
}

TEST(TraceDeterminism, Wan2002BitIdentical) {
  expect_trace_invariant(workloads::wan2002(), commlib::wan_library());
}

TEST(TraceDeterminism, Mpeg4SocBitIdentical) {
  expect_trace_invariant(workloads::mpeg4_soc(), commlib::soc_library());
}

TEST(TraceDeterminism, NocMeshBitIdentical) {
  workloads::NocMeshParams p;
  p.rows = 3;
  p.cols = 3;
  expect_trace_invariant(workloads::noc_mesh(p), commlib::noc_library());
}

// ---- Concurrency (TSan targets) --------------------------------------------

TEST(TraceConcurrency, SpansFromThreadPool) {
  ScopedTraceSession session;
  {
    ThreadPool pool(8);
    const std::vector<int> out =
        parallel_map_ordered(&pool, 256, [](std::size_t i) {
          Span span("work", "test");
          trace_counter("progress", static_cast<double>(i), "test");
          { Span inner("inner", "test"); }
          return static_cast<int>(i);
        });
    ASSERT_EQ(out.size(), 256u);
  }
  session.close();

  const std::vector<TraceEvent> events = session.sink().snapshot();
  // 256 tasks x (2 B + 2 E + 1 C) + the pool's own "task" spans; exact
  // interleaving is scheduler-dependent, the schema must hold regardless.
  EXPECT_GE(events.size(), 256u * 5u);
  EXPECT_TRUE(JsonChecker(export_json(session.sink())).valid());
}

TEST(TraceConcurrency, InstallUninstallRace) {
  // Emitters race a sink being uninstalled: no event may be lost from a
  // span whose begin was recorded (the Span captured the sink), and no
  // crash/TSan report may occur. The sink outlives the emitters by scope.
  TraceSink sink;
  install_trace_sink(&sink);
  std::vector<std::thread> emitters;
  emitters.reserve(4);
  for (int t = 0; t < 4; ++t) {
    emitters.emplace_back([] {
      for (int i = 0; i < 1000; ++i) {
        Span span("racing", "test");
        trace_instant("tick", "test");
      }
    });
  }
  std::thread flipper([&sink] {
    for (int i = 0; i < 500; ++i) {
      install_trace_sink(nullptr);
      install_trace_sink(&sink);
    }
  });
  for (std::thread& t : emitters) t.join();
  flipper.join();
  install_trace_sink(nullptr);
  expect_schema_valid(sink.snapshot());
}

TEST(MetricsConcurrency, ShardedCountersSum) {
  Counter counter;
  Histogram hist(Histogram::latency_us_bounds());
  Gauge gauge;
  {
    ThreadPool pool(8);
    parallel_map_ordered(&pool, 64, [&](std::size_t i) {
      for (int k = 0; k < 1000; ++k) counter.add(1);
      hist.observe(static_cast<double>(i));
      gauge.set_max(static_cast<double>(i));
      return 0;
    });
  }
  EXPECT_EQ(counter.value(), 64u * 1000u);
  EXPECT_EQ(hist.snapshot().count, 64u);
  EXPECT_DOUBLE_EQ(gauge.value(), 63.0);
}

// ---- Metrics unit tests ----------------------------------------------------

TEST(Metrics, CounterGaugeBasics) {
  Counter c;
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);

  Gauge g;
  g.set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.set_max(1.0);  // lower: ignored
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.set_max(7.0);
  EXPECT_DOUBLE_EQ(g.value(), 7.0);
}

TEST(Metrics, HistogramBucketsAndMean) {
  Histogram h({1.0, 10.0, 100.0});
  h.observe(0.5);    // bucket 0 (<= 1)
  h.observe(10.0);   // bucket 1 (<= 10, boundary inclusive)
  h.observe(50.0);   // bucket 2
  h.observe(1e6);    // overflow bucket
  const Histogram::Snapshot s = h.snapshot();
  ASSERT_EQ(s.buckets.size(), 4u);
  EXPECT_EQ(s.buckets[0], 1u);
  EXPECT_EQ(s.buckets[1], 1u);
  EXPECT_EQ(s.buckets[2], 1u);
  EXPECT_EQ(s.buckets[3], 1u);
  EXPECT_EQ(s.count, 4u);
  EXPECT_DOUBLE_EQ(s.sum, 0.5 + 10.0 + 50.0 + 1e6);
  EXPECT_DOUBLE_EQ(s.mean(), s.sum / 4.0);
}

TEST(Metrics, RegistryGetOrCreateIsStable) {
  MetricsRegistry registry;
  Counter& a = registry.counter("x.count");
  Counter& b = registry.counter("x.count");
  EXPECT_EQ(&a, &b);
  a.add(3);
  const MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counters.at("x.count"), 3u);
}

TEST(Metrics, SnapshotDeltaIsPerRunView) {
  MetricsRegistry registry;
  registry.counter("runs").add(5);
  registry.histogram("lat.us").observe(10.0);
  const MetricsSnapshot before = registry.snapshot();

  registry.counter("runs").add(2);
  registry.histogram("lat.us").observe(20.0);
  registry.counter("fresh").add(1);  // born after the baseline
  const MetricsSnapshot delta = registry.snapshot().delta_since(before);

  EXPECT_EQ(delta.counters.at("runs"), 2u);
  EXPECT_EQ(delta.counters.at("fresh"), 1u);
  EXPECT_EQ(delta.histograms.at("lat.us").count, 1u);
  EXPECT_DOUBLE_EQ(delta.histograms.at("lat.us").sum, 20.0);
}

TEST(Metrics, JsonExportIsValid) {
  MetricsRegistry registry;
  registry.counter("a.count").add(7);
  registry.gauge("b.depth").set(3.0);
  registry.histogram("c.us").observe(123.0);
  std::ostringstream os;
  write_metrics_json(os, registry.snapshot());
  EXPECT_TRUE(JsonChecker(os.str()).valid()) << os.str();
  EXPECT_NE(os.str().find("\"a.count\": 7"), std::string::npos) << os.str();
}

TEST(Metrics, ScopedTimerInertWithoutTimingOrTracing) {
  ASSERT_FALSE(timing_enabled());
  ASSERT_FALSE(tracing_enabled());
  Histogram h(Histogram::latency_us_bounds());
  { ScopedTimer t("inert", "test", &h); }
  EXPECT_EQ(h.snapshot().count, 0u);

  set_timing_enabled(true);
  { ScopedTimer t("timed", "test", &h); }
  set_timing_enabled(false);
  EXPECT_EQ(h.snapshot().count, 1u);
}

// ---- Registry totals of fixed workloads ------------------------------------
//
// Every counter below is an event count, a deterministic function of the
// serial workload, so it is pinned exactly; node counts are ceilings (the
// cover search may get cheaper, never dearer). Together the two tests fix
// the registry totals of any mix of these calls.

std::uint64_t counter_total(const MetricsSnapshot& s, const char* name) {
  const auto it = s.counters.find(name);
  return it == s.counters.end() ? 0 : it->second;
}

TEST(MetricsTotals, SerialWanSynthesis) {
  const MetricsSnapshot before = MetricsRegistry::global().snapshot();
  synth::SynthesisOptions serial;
  serial.threads = 1;
  const model::ConstraintGraph cg = workloads::wan2002();
  const commlib::Library library = commlib::wan_library();
  (void)synth::synthesize(cg, library, serial).value();
  const MetricsSnapshot m =
      MetricsRegistry::global().snapshot().delta_since(before);
  EXPECT_EQ(counter_total(m, "synth.runs"), 1u);
  EXPECT_EQ(counter_total(m, "synth.subsets_examined"), 120u);
  EXPECT_EQ(counter_total(m, "ucp.solves"), 1u);
  EXPECT_EQ(counter_total(m, "ucp.dp_solves"), 1u);
  EXPECT_LE(counter_total(m, "ucp.nodes_explored"), 17u);
  EXPECT_EQ(counter_total(m, "synth.pricing_cache.hits"), 0u);
  EXPECT_EQ(counter_total(m, "synth.pricing_cache.misses"), 0u);
  EXPECT_EQ(counter_total(m, "fault.fires"), 0u);
  EXPECT_EQ(counter_total(m, "io.journal.appends"), 0u);
}

// bench_incremental's wan/single-arc scenario, serial: ten rounds of four
// bandwidth toggles through one Engine, each step checked against a
// from-scratch synthesize() of the same graph.
TEST(MetricsTotals, WanSingleArcReplay) {
  // The accounting is the same serial and multi-threaded: the generator
  // probes the cache on the calling thread, in enumeration order, before
  // any subset of a batch is priced.
  for (const int threads : {1, 4}) {
    SCOPED_TRACE("threads = " + std::to_string(threads));
    const MetricsSnapshot before = MetricsRegistry::global().snapshot();
    synth::SynthesisOptions options;
    options.threads = threads;
    const commlib::Library lib = commlib::wan_library();
    synth::Engine engine(workloads::wan2002(), lib, options);
    ASSERT_TRUE(engine.resynthesize().ok());
    const auto script = io::read_edit_script_from_string(
        "set-bandwidth a3 25\nsolve\n"
        "set-bandwidth a3 10\nsolve\n"
        "set-bandwidth a7 40\nsolve\n"
        "set-bandwidth a7 10\nsolve\n");
    ASSERT_TRUE(script.ok());
    for (int round = 0; round < 10; ++round) {
      for (const model::Delta& batch : script->batches) {
        const auto warm = engine.apply(batch);
        const auto scratch = synth::synthesize(engine.graph(), lib, options);
        ASSERT_TRUE(warm.ok());
        ASSERT_TRUE(scratch.ok());
        EXPECT_EQ(warm->total_cost, scratch->total_cost);
      }
    }
    // The session's pricing hit rate, 2245 / 2337 = 0.9606.
    EXPECT_EQ(engine.stats().pricing_hits, 2245u);
    EXPECT_EQ(engine.stats().pricing_misses, 92u);

    const MetricsSnapshot m =
        MetricsRegistry::global().snapshot().delta_since(before);
    EXPECT_EQ(counter_total(m, "engine.applies"), 41u);
    EXPECT_EQ(counter_total(m, "synth.runs"), 81u);
    EXPECT_EQ(counter_total(m, "synth.subsets_examined"), 81u * 120u);
    EXPECT_EQ(counter_total(m, "ucp.solves"), 81u);
    EXPECT_EQ(counter_total(m, "ucp.dp_solves"), 81u);
    EXPECT_LE(counter_total(m, "ucp.nodes_explored"), 81u * 17u);
    EXPECT_EQ(counter_total(m, "synth.pricing_cache.hits"), 2245u);
    EXPECT_EQ(counter_total(m, "synth.pricing_cache.misses"), 92u);
    EXPECT_EQ(counter_total(m, "fault.fires"), 0u);
    EXPECT_EQ(counter_total(m, "io.journal.appends"), 0u);
  }
}

}  // namespace
}  // namespace cdcs::support
