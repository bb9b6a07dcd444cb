// Second observability layer (docs/observability.md): scoped contexts,
// the always-on flight recorder + postmortem artifacts, and the in-process
// profiler. Four guarantees:
//
//   1. ATTRIBUTION. ObsContext paths nest/restore correctly, survive the
//      thread-pool hop, and are stamped onto trace events and flight
//      recorder entries at emission time.
//   2. SCHEMA. Postmortem and profile documents are well-formed JSON even
//      under hostile scope labels (quotes, newlines, UTF-8), and a forced
//      fault or degraded exit yields EXACTLY ONE postmortem artifact.
//   3. DETERMINISM. Scoping + recording are write-only metadata: a scoped,
//      traced, recorded run is bit-identical to a bare run at 1/2/8
//      threads.
//   4. CONCURRENCY. Scope churn, flight recording, and per-scope metric
//      deltas may race across pool workers; the ObsContextConcurrency and
//      FlightSinkConcurrency suites run under TSan in CI.
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <initializer_list>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "json_checker.hpp"

#include "commlib/standard_libraries.hpp"
#include "io/report.hpp"
#include "support/deadline.hpp"
#include "support/fault.hpp"
#include "support/flight_recorder.hpp"
#include "support/metrics.hpp"
#include "support/obs_context.hpp"
#include "support/profiler.hpp"
#include "support/thread_pool.hpp"
#include "support/trace.hpp"
#include "synth/synthesizer.hpp"
#include "workloads/wan2002.hpp"

namespace cdcs::support {
namespace {

using testsupport::JsonChecker;

// ---- Scoped contexts -------------------------------------------------------

TEST(ObsContext, NestingBuildsPathsAndRestores) {
  EXPECT_EQ(current_obs_scope_path(), "");
  EXPECT_EQ(current_obs_scope(), nullptr);
  {
    ObsContext session("session=wan_a");
    EXPECT_EQ(session.path(), "session=wan_a");
    EXPECT_EQ(current_obs_scope_path(), "session=wan_a");
    {
      ObsContext solve("solve=17");
      EXPECT_EQ(solve.path(), "session=wan_a/solve=17");
      EXPECT_EQ(current_obs_scope_path(), "session=wan_a/solve=17");
      const ObsScopeHandle node = current_obs_scope();
      ASSERT_NE(node, nullptr);
      EXPECT_EQ(node->label(), "solve=17");
      ASSERT_NE(node->parent(), nullptr);
      EXPECT_EQ(node->parent()->label(), "session=wan_a");
    }
    EXPECT_EQ(current_obs_scope_path(), "session=wan_a");
  }
  EXPECT_EQ(current_obs_scope_path(), "");
}

TEST(ObsContext, ScopeIsThreadLocal) {
  ObsContext outer("main-only");
  std::string seen = "unset";
  std::thread t([&] { seen = current_obs_scope_path(); });
  t.join();
  EXPECT_EQ(seen, "");  // a fresh thread starts unscoped
  EXPECT_EQ(current_obs_scope_path(), "main-only");
}

TEST(ObsContext, GuardInstallsAndRestoresAcrossThreads) {
  ObsScopeHandle handle;
  {
    ObsContext scope("carried");
    handle = current_obs_scope();
  }
  ASSERT_NE(handle, nullptr);  // the handle outlives the frame
  std::string inside, after;
  std::thread t([&] {
    {
      ObsScopeGuard guard(handle);
      inside = current_obs_scope_path();
    }
    after = current_obs_scope_path();
  });
  t.join();
  EXPECT_EQ(inside, "carried");
  EXPECT_EQ(after, "");
}

TEST(ObsContext, StampsTraceEventsAfterSinkCheck) {
  // Begin/counter/instant events carry the emitter's scope path; End events
  // deliberately do not (the profiler attributes a span to its Begin).
  ScopedTraceSession session;
  {
    ObsContext scope("session=t");
    Span span("scoped-span", "test");
    trace_counter("scoped-counter", 1.0, "test");
    trace_instant("scoped-instant", "test");
  }
  trace_instant("unscoped-instant", "test");
  session.close();

  const std::vector<TraceEvent> events = session.sink().snapshot();
  ASSERT_EQ(events.size(), 5u);
  EXPECT_EQ(events[0].scope, "session=t");  // B scoped-span
  EXPECT_EQ(events[1].scope, "session=t");  // C scoped-counter
  EXPECT_EQ(events[2].scope, "session=t");  // i scoped-instant
  EXPECT_EQ(events[3].scope, "");           // E (attributed via its B)
  EXPECT_EQ(events[4].scope, "");           // i unscoped

  const std::ostringstream os = [&] {
    std::ostringstream o;
    write_chrome_trace(o, session.sink());
    return o;
  }();
  EXPECT_TRUE(JsonChecker(os.str()).valid()) << os.str();
  EXPECT_NE(os.str().find("\"scope\":\"session=t\""), std::string::npos)
      << os.str();
}

TEST(ObsContext, PoolWorkersInheritSubmitterScope) {
  ScopedTraceSession session;
  const std::uint32_t main_tid = trace_thread_id();
  {
    ObsContext scope("fanout");
    ThreadPool pool(4);
    const std::vector<int> out =
        parallel_map_ordered(&pool, 64, [](std::size_t i) {
          Span span("work", "test");
          return static_cast<int>(i);
        });
    ASSERT_EQ(out.size(), 64u);
  }
  session.close();

  std::size_t scoped_work = 0;
  for (const TraceEvent& e : session.sink().snapshot()) {
    if (e.phase == TraceEvent::Phase::kBegin &&
        std::string(e.name) == "work") {
      EXPECT_EQ(e.scope, "fanout");
      EXPECT_NE(e.thread_id, main_tid)
          << "pool tasks must run on workers, not the submitter";
      ++scoped_work;
    }
  }
  EXPECT_EQ(scoped_work, 64u);
}

TEST(ObsContext, PerScopeMetricsDelta) {
  Counter& counter = MetricsRegistry::global().counter("obs.test.delta");
  counter.add(5);  // pre-scope noise the delta must exclude
  ObsContext scope("delta-view", kCaptureMetricsBaseline);
  counter.add(3);
  const MetricsSnapshot delta = scope.delta();
  EXPECT_EQ(delta.counters.at("obs.test.delta"), 3u);
}

TEST(ObsContext, DefaultConstructorSkipsBaseline) {
  MetricsRegistry::global().counter("obs.test.nodelta").add(2);
  ObsContext scope("no-baseline");
  MetricsRegistry::global().counter("obs.test.nodelta").add(2);
  // No baseline captured: delta() degrades to an empty view, never a
  // full-registry dump that would misattribute pre-scope counts.
  EXPECT_TRUE(scope.delta().counters.empty());
}

// ---- Flight recorder -------------------------------------------------------

/// Events ever appended to the flight recorder, read in one locked snapshot.
std::size_t flight_total() {
  std::size_t dropped = 0;
  return flight_recorder().snapshot(&dropped).size() + dropped;
}

std::string detail_args(const std::string& detail) {
  return "{\"detail\":\"" + detail + "\"}";
}

TEST(FlightSink, RingWrapsKeepingNewestWithContiguousSeq) {
  TraceSink& recorder = flight_recorder();
  EXPECT_EQ(recorder.capacity(), 512u);
  const std::size_t before = flight_total();
  for (int i = 0; i < 552; ++i) {
    flight_record("stage", "event " + std::to_string(i));
  }
  std::size_t dropped = 0;
  const std::vector<TraceEvent> events = recorder.snapshot(&dropped);
  ASSERT_EQ(events.size(), 512u);
  // Postmortem seq is dropped + index: contiguous up to the lifetime total.
  EXPECT_EQ(dropped + events.size(), before + 552);
  // Oldest surviving first: events 40..551, in order, timestamps monotone.
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].args, detail_args("event " + std::to_string(40 + i)));
    if (i > 0) {
      EXPECT_GE(events[i].timestamp_us, events[i - 1].timestamp_us);
    }
  }
}

TEST(FlightSink, CapacityFloorIsSixteen) {
  TraceSink tiny(1);
  EXPECT_EQ(tiny.capacity(), 16u);
}

TEST(FlightSink, GlobalRecordCarriesScope) {
  {
    ObsContext scope("recorded-scope");
    flight_record("stage", "obs-test-marker");
  }
  EXPECT_EQ(trace_sink(), nullptr) << "the flight recorder is never installed";
  const std::vector<TraceEvent> events = flight_recorder().snapshot();
  ASSERT_FALSE(events.empty());
  const TraceEvent& last = events.back();
  EXPECT_STREQ(last.name, "stage");
  EXPECT_STREQ(last.category, "flight");
  EXPECT_EQ(last.phase, TraceEvent::Phase::kInstant);
  EXPECT_EQ(last.thread_id, trace_thread_id());
  EXPECT_EQ(last.args, detail_args("obs-test-marker"));
  EXPECT_EQ(last.scope, "recorded-scope");
}

// ---- Postmortem artifacts --------------------------------------------------

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// Fresh (created, empty) per-test postmortem directory.
std::string make_postmortem_dir(const std::string& name) {
  const std::string dir = testing::TempDir() + "cdcs_pm_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::vector<std::string> postmortem_files(const std::string& dir) {
  std::vector<std::string> out;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    out.push_back(entry.path().string());
  }
  return out;
}

/// Disarms automatic dumps when a test exits, however it exits.
struct PostmortemDisarmer {
  ~PostmortemDisarmer() { set_postmortem_dir(""); }
};

TEST(Postmortem, DumpSchemaIsValidWithoutSink) {
  flight_record("stage", "before-dump");
  std::ostringstream os;
  {
    ObsContext scope("pm-scope");
    dump_postmortem(os, "test", "manual dump");
  }
  const std::string doc = os.str();
  EXPECT_TRUE(JsonChecker(doc).valid()) << doc;
  EXPECT_NE(doc.find("\"postmortem\""), std::string::npos);
  EXPECT_NE(doc.find("\"trigger\": \"test\""), std::string::npos);
  EXPECT_NE(doc.find("\"scope\": \"pm-scope\""), std::string::npos);
  EXPECT_NE(doc.find("\"flight_recorder\""), std::string::npos);
  EXPECT_NE(doc.find("before-dump"), std::string::npos);
  EXPECT_NE(doc.find("\"metrics\""), std::string::npos);
  // No sink installed: the trace section is an explicit null, not absent.
  EXPECT_NE(doc.find("\"trace\": null"), std::string::npos);
}

/// Replaces every `"<key>": <digits>` in `doc` with `map(<digits>)`.
std::string rewrite_numbers(
    const std::string& doc, const std::string& key,
    const std::function<std::uint64_t(std::uint64_t)>& map) {
  const std::regex pattern("\"" + key + "\": ([0-9]+)");
  std::string out;
  auto tail = doc.cbegin();
  for (std::sregex_iterator it(doc.begin(), doc.end(), pattern), end;
       it != end; ++it) {
    out.append(tail, (*it)[1].first);
    out += std::to_string(map(std::stoull((*it)[1].str())));
    tail = (*it)[1].second;
  }
  out.append(tail, doc.cend());
  return out;
}

TEST(Postmortem, GoldenSectionsAfterRingWrap) {
  // Characterises the postmortem's `postmortem` and `flight_recorder`
  // sections byte for byte once the 512-event ring has wrapped, so it holds
  // only this test's events. Only emission order (seq, made relative),
  // timing and thread ids are normalised.
  auto total_recorded = [] {
    std::ostringstream os;
    dump_postmortem(os, "probe", "");
    const std::string doc = os.str();
    std::smatch m;
    EXPECT_TRUE(std::regex_search(doc, m,
                                  std::regex("\"total_recorded\": ([0-9]+)")));
    return std::stoull(m[1].str());
  };
  const std::uint64_t base = total_recorded();

  constexpr int kEvents = 600;
  constexpr int kCapacity = 512;
  const char* const kinds[] = {"stage",   "ladder",  "incumbent",
                               "fault",   "journal", "backend"};
  const std::string hostile = "pm=\"golden\"\nline\t2 \\ \x01 utf8=日本語";
  for (int i = 0; i < kEvents; ++i) {
    const std::string detail = "event " + std::to_string(i);
    if (i % 5 == 0) {
      ObsContext scope(hostile);
      flight_record(kinds[i % 6], detail);
    } else {
      flight_record(kinds[i % 6], detail);
    }
  }
  std::ostringstream os;
  {
    ObsContext scope("golden");
    dump_postmortem(os, "golden", "detail \"quoted\"");
  }
  std::string doc = os.str();
  doc = doc.substr(0, doc.find("  \"metrics\": "));
  std::uint64_t first_seq = 0;
  bool seen_seq = false;
  doc = rewrite_numbers(doc, "seq", [&](std::uint64_t seq) {
    if (!seen_seq) first_seq = seq;
    seen_seq = true;
    return seq - first_seq;
  });
  for (const char* key : {"ts_us", "tid", "timestamp_us"}) {
    doc = rewrite_numbers(doc, key, [](std::uint64_t) { return 0; });
  }

  std::string expected =
      "{\n  \"postmortem\": {\"trigger\": \"golden\", \"detail\": "
      "\"detail \\\"quoted\\\"\", \"scope\": \"golden\", \"timestamp_us\": "
      "0},\n  \"flight_recorder\": {\"capacity\": 512, \"total_recorded\": " +
      std::to_string(base + kEvents) + ", \"events\": [";
  for (int i = kEvents - kCapacity; i < kEvents; ++i) {
    if (i != kEvents - kCapacity) expected += ",";
    expected += "\n    {\"seq\": " +
                std::to_string(i - (kEvents - kCapacity)) +
                ", \"ts_us\": 0, \"tid\": 0, \"kind\": \"" + kinds[i % 6] +
                "\", \"detail\": \"event " + std::to_string(i) +
                "\", \"scope\": \"" +
                (i % 5 == 0
                     ? R"(pm=\"golden\"\nline\t2 \\ \u0001 utf8=日本語)"
                     : "") +
                "\"}";
  }
  expected += "\n  ]},\n";
  EXPECT_EQ(doc, expected);
}

TEST(Postmortem, DumpEmbedsInstalledTraceRing) {
  ScopedTraceSession session;
  { Span span("traced-before-dump", "test"); }
  std::ostringstream os;
  dump_postmortem(os, "test", "with trace");
  session.close();
  EXPECT_TRUE(JsonChecker(os.str()).valid()) << os.str();
  EXPECT_NE(os.str().find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(os.str().find("traced-before-dump"), std::string::npos);
}

TEST(Postmortem, OneShotLatchAndReset) {
  PostmortemDisarmer disarm;
  const std::string dir = make_postmortem_dir("latch");
  set_postmortem_dir(dir);

  Counter& suppressed =
      MetricsRegistry::global().counter("postmortem.suppressed");
  const std::uint64_t suppressed_before = suppressed.value();

  const std::string first = maybe_dump_postmortem("fault", "first");
  ASSERT_FALSE(first.empty());
  EXPECT_TRUE(JsonChecker(read_file(first)).valid());

  // Latched: cascading triggers are suppressed, counted, and write nothing.
  EXPECT_EQ(maybe_dump_postmortem("degraded", "second"), "");
  EXPECT_EQ(suppressed.value(), suppressed_before + 1);
  EXPECT_EQ(postmortem_files(dir).size(), 1u);

  // Re-opening the latch dumps again, to a DISTINCT file.
  reset_postmortem_latch();
  const std::string third = maybe_dump_postmortem("fault", "third");
  ASSERT_FALSE(third.empty());
  EXPECT_NE(third, first);
  EXPECT_EQ(postmortem_files(dir).size(), 2u);

  set_postmortem_dir("");
  EXPECT_EQ(maybe_dump_postmortem("fault", "disarmed"), "");
}

TEST(Postmortem, FailedWriteLeavesLatchOpen) {
  PostmortemDisarmer disarm;
  const std::string dir = make_postmortem_dir("failed_write");
  set_postmortem_dir(dir);

  // The armed directory vanishes: the trigger writes nothing, and must not
  // spend the run's one artifact on it.
  std::filesystem::remove_all(dir);
  EXPECT_EQ(maybe_dump_postmortem("fault", "unwritable"), "");

  std::filesystem::create_directories(dir);
  const std::string written = maybe_dump_postmortem("fault", "writable");
  ASSERT_FALSE(written.empty());
  EXPECT_EQ(postmortem_files(dir).size(), 1u);
}

TEST(Postmortem, ForcedFaultYieldsExactlyOneArtifact) {
  PostmortemDisarmer disarm;
  const std::string dir = make_postmortem_dir("fault");
  set_postmortem_dir(dir);

  synth::SynthesisOptions opts;
  opts.fault_injection.injector = std::make_shared<FaultInjector>(
      FaultPlan::parse("ucp.frontier@1").value());
  const model::ConstraintGraph cg = workloads::wan2002();
  const commlib::Library library = commlib::wan_library();
  const auto result = synth::synthesize(cg, library, opts);
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  EXPECT_TRUE(result->degradation.degraded());

  // The fault fire dumps; the degraded exit that follows is suppressed by
  // the latch -- exactly one artifact, and it is valid, attributed JSON.
  const std::vector<std::string> files = postmortem_files(dir);
  ASSERT_EQ(files.size(), 1u);
  const std::string doc = read_file(files[0]);
  EXPECT_TRUE(JsonChecker(doc).valid()) << files[0];
  EXPECT_NE(doc.find("\"trigger\": \"fault\""), std::string::npos);
  EXPECT_NE(doc.find("ucp.frontier"), std::string::npos);
}

TEST(Postmortem, DegradedExitYieldsExactlyOneArtifact) {
  PostmortemDisarmer disarm;
  const std::string dir = make_postmortem_dir("degraded");
  set_postmortem_dir(dir);

  synth::SynthesisOptions opts;
  opts.deadline = Deadline::expire_after_checks(0);
  const model::ConstraintGraph cg = workloads::wan2002();
  const commlib::Library library = commlib::wan_library();
  const auto result = synth::synthesize(cg, library, opts);
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  ASSERT_TRUE(result->degradation.degraded());

  const std::vector<std::string> files = postmortem_files(dir);
  ASSERT_EQ(files.size(), 1u);
  const std::string doc = read_file(files[0]);
  EXPECT_TRUE(JsonChecker(doc).valid()) << files[0];
  EXPECT_NE(doc.find("\"trigger\": \"degraded\""), std::string::npos);
}

// ---- In-process profiler ---------------------------------------------------

TraceEvent make_event(const char* name, TraceEvent::Phase phase,
                      std::int64_t ts, std::uint32_t tid = 0,
                      std::string scope = "") {
  TraceEvent e;
  e.name = name;
  e.phase = phase;
  e.timestamp_us = ts;
  e.thread_id = tid;
  e.scope = std::move(scope);
  return e;
}

std::size_t expected_bucket(double us) {
  const std::vector<double>& bounds = profile_bucket_bounds();
  for (std::size_t i = 0; i < bounds.size(); ++i) {
    if (us <= bounds[i]) return i;
  }
  return bounds.size();
}

TEST(Profiler, AggregatesCountTotalSelfMax) {
  using Phase = TraceEvent::Phase;
  std::vector<TraceEvent> events;
  events.push_back(make_event("outer", Phase::kBegin, 0, 0, "s"));
  events.push_back(make_event("inner", Phase::kBegin, 10, 0, "s"));
  events.push_back(make_event("inner", Phase::kEnd, 30, 0));
  events.push_back(make_event("outer", Phase::kEnd, 50, 0));
  events.push_back(make_event("inner", Phase::kBegin, 60, 0, "s"));
  events.push_back(make_event("inner", Phase::kEnd, 100, 0));

  const std::vector<ProfileEntry> profile = build_profile(events);
  ASSERT_EQ(profile.size(), 2u);  // (scope, name) order: inner before outer
  const ProfileEntry& inner = profile[0];
  EXPECT_EQ(inner.scope, "s");
  EXPECT_EQ(inner.name, "inner");
  EXPECT_EQ(inner.count, 2u);
  EXPECT_EQ(inner.total_us, 20 + 40);
  EXPECT_EQ(inner.self_us, 20 + 40);  // leaf: inclusive == exclusive
  EXPECT_EQ(inner.max_us, 40);
  const ProfileEntry& outer = profile[1];
  EXPECT_EQ(outer.name, "outer");
  EXPECT_EQ(outer.count, 1u);
  EXPECT_EQ(outer.total_us, 50);
  EXPECT_EQ(outer.self_us, 50 - 20);  // minus the nested inner instance
  EXPECT_EQ(outer.max_us, 50);

  ASSERT_EQ(inner.buckets.size(), profile_bucket_bounds().size() + 1);
  // 20us and 40us share a power-of-4 latency bucket (16 < v <= 64).
  ASSERT_EQ(expected_bucket(20), expected_bucket(40));
  EXPECT_EQ(inner.buckets[expected_bucket(20)], 2u);
  EXPECT_EQ(outer.buckets[expected_bucket(50)], 1u);
}

TEST(Profiler, RepairsOrphansAndOpenSpansLikeTheExporter) {
  using Phase = TraceEvent::Phase;
  std::vector<TraceEvent> events;
  // Orphan End (its Begin was overwritten by the ring): dropped.
  events.push_back(make_event("lost", Phase::kEnd, 5, 0));
  // Still-open span: closed synthetically at the stream's last timestamp.
  events.push_back(make_event("open", Phase::kBegin, 100, 0, "s"));
  events.push_back(make_event("mark", Phase::kInstant, 200, 0));

  const std::vector<ProfileEntry> profile = build_profile(events);
  ASSERT_EQ(profile.size(), 1u);
  EXPECT_EQ(profile[0].name, "open");
  EXPECT_EQ(profile[0].count, 1u);
  EXPECT_EQ(profile[0].total_us, 100);  // 200 - 100
}

TEST(Profiler, SeparatesScopesAndThreads) {
  using Phase = TraceEvent::Phase;
  std::vector<TraceEvent> events;
  // Same span name under two scopes and two threads: scopes aggregate
  // separately, threads replay on independent stacks.
  events.push_back(make_event("solve", Phase::kBegin, 0, 0, "a"));
  events.push_back(make_event("solve", Phase::kBegin, 0, 1, "b"));
  events.push_back(make_event("solve", Phase::kEnd, 10, 0));
  events.push_back(make_event("solve", Phase::kEnd, 30, 1));

  const std::vector<ProfileEntry> profile = build_profile(events);
  ASSERT_EQ(profile.size(), 2u);
  EXPECT_EQ(profile[0].scope, "a");
  EXPECT_EQ(profile[0].total_us, 10);
  EXPECT_EQ(profile[1].scope, "b");
  EXPECT_EQ(profile[1].total_us, 30);
}

TEST(Profiler, JsonExportIsValid) {
  ScopedTraceSession session;
  {
    ObsContext scope("profile-json");
    Span outer("outer", "test");
    { Span inner("inner", "test"); }
  }
  session.close();
  std::ostringstream os;
  write_profile_json(os, build_profile(session.sink()));
  EXPECT_TRUE(JsonChecker(os.str()).valid()) << os.str();
  EXPECT_NE(os.str().find("\"buckets_us\""), std::string::npos);
  EXPECT_NE(os.str().find("\"scope\": \"profile-json\""), std::string::npos);
}

TEST(Profiler, CountsAreDeterministicAcrossSerialRuns) {
  // Two identical synthesize runs must profile to the same (scope, name,
  // count) rows, and the rows of a serial run are pinned: a site that
  // appears, disappears or fires a different number of times fails here.
  auto profile_counts = [](int threads) {
    ScopedTraceSession session;
    ObsContext scope("bench=wan_profile");
    synth::SynthesisOptions options;
    options.threads = threads;
    const model::ConstraintGraph cg = workloads::wan2002();
    const commlib::Library library = commlib::wan_library();
    (void)synth::synthesize(cg, library, options).value();
    std::vector<std::pair<std::string, std::uint64_t>> rows;
    for (const ProfileEntry& e : build_profile(session.sink())) {
      rows.emplace_back(e.scope + "\x1f" + e.name, e.count);
    }
    return rows;
  };
  // threads = 0, the default: every hardware thread prices.
  const auto first = profile_counts(0);
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, profile_counts(0));

  // One price.chain and one price.tree span per priced subset (57), one
  // price.ptp per arc (8), one price.star batch and one price.subset span
  // per serial pricing chunk (5); every other span runs once.
  std::map<std::string, std::uint64_t> golden;
  for (const auto& [name, count] :
       std::initializer_list<std::pair<const char*, std::uint64_t>>{
           {"assemble", 1}, {"cover", 1}, {"generate", 1}, {"ladder", 1},
           {"price.chain", 57}, {"price.ptp", 8}, {"price.star", 5},
           {"price.subset", 5}, {"price.tree", 57}, {"synthesize", 1},
           {"ucp.dense_dp", 1}, {"ucp.solve", 1}, {"validate", 1}}) {
    golden[std::string("bench=wan_profile\x1f") + name] = count;
  }
  const auto serial = profile_counts(1);
  const std::map<std::string, std::uint64_t> counts(serial.begin(),
                                                    serial.end());
  EXPECT_EQ(counts, golden);
}

TEST(Profiler, DescribeProfileRanksByTotalTime) {
  std::vector<ProfileEntry> entries(2);
  entries[0].scope = "s";
  entries[0].name = "cheap";
  entries[0].count = 4;
  entries[0].total_us = 1000;
  entries[0].self_us = 1000;
  entries[0].max_us = 400;
  entries[1].scope = "s";
  entries[1].name = "hot";
  entries[1].count = 2;
  entries[1].total_us = 90000;
  entries[1].self_us = 80000;
  entries[1].max_us = 60000;

  const std::string top1 = io::describe_profile(entries, 1);
  EXPECT_NE(top1.find("hot"), std::string::npos) << top1;
  EXPECT_EQ(top1.find("cheap"), std::string::npos) << top1;
  const std::string all = io::describe_profile(entries);
  EXPECT_LT(all.find("hot"), all.find("cheap")) << all;
}

// ---- Hostile scope labels through every exporter ---------------------------

TEST(ObsEscaping, HostileScopeLabelsExportValidJson) {
  const std::string hostile =
      "evil=\"quoted\"\\back\nnew\tline\x01 utf8=日本語";
  ScopedTraceSession session;
  {
    ObsContext scope(hostile);
    Span span("hostile-span", "test");
    trace_counter("hostile-counter", 1.0, "test");
    trace_instant("hostile-instant", "test");
    flight_record("stage", "under a hostile scope");
  }
  session.close();

  std::ostringstream trace_os;
  write_chrome_trace(trace_os, session.sink());
  EXPECT_TRUE(JsonChecker(trace_os.str()).valid()) << trace_os.str();

  std::ostringstream profile_os;
  write_profile_json(profile_os, build_profile(session.sink()));
  EXPECT_TRUE(JsonChecker(profile_os.str()).valid()) << profile_os.str();

  std::ostringstream pm_os;
  dump_postmortem(pm_os, "test", hostile);
  EXPECT_TRUE(JsonChecker(pm_os.str()).valid()) << pm_os.str();
}

TEST(ObsEscaping, HostileMetricNamesExportValidJson) {
  MetricsRegistry registry;
  registry.counter("bad\"name\nwith\\escapes").add(1);
  std::ostringstream os;
  write_metrics_json(os, registry.snapshot());
  EXPECT_TRUE(JsonChecker(os.str()).valid()) << os.str();
}

// ---- Determinism: scoped + recorded == bare --------------------------------

std::string result_fingerprint(const synth::SynthesisResult& r) {
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
     << " nodes=" << r.cover.nodes_explored;
  return os.str();
}

TEST(ObsDeterminism, ScopedRecordedRunsBitIdentical) {
  const model::ConstraintGraph cg = workloads::wan2002();
  const commlib::Library lib = commlib::wan_library();
  for (int threads : {1, 2, 8}) {
    synth::SynthesisOptions options;
    options.threads = threads;

    const auto bare = synth::synthesize(cg, lib, options);
    ASSERT_TRUE(bare.ok()) << bare.status().to_string();

    std::string scoped_fp;
    {
      ScopedTraceSession session;
      set_timing_enabled(true);
      ObsContext run("session=determinism", kCaptureMetricsBaseline);
      ObsContext inner("solve=0");
      const auto scoped = synth::synthesize(cg, lib, options);
      set_timing_enabled(false);
      ASSERT_TRUE(scoped.ok()) << scoped.status().to_string();
      scoped_fp = result_fingerprint(*scoped);
    }
    EXPECT_EQ(scoped_fp, result_fingerprint(*bare)) << "threads=" << threads;
  }
}

// ---- Concurrency (TSan targets) --------------------------------------------

TEST(ObsContextConcurrency, ScopeChurnAcrossPool) {
  ScopedTraceSession session;
  {
    ThreadPool pool(8);
    ObsContext outer("churn");
    parallel_map_ordered(&pool, 128, [](std::size_t i) {
      ObsContext task_scope("task=" + std::to_string(i));
      Span span("churn-work", "test");
      trace_counter("churn-progress", static_cast<double>(i), "test");
      {
        ObsContext nested("inner");
        trace_instant("churn-mark", "test");
      }
      flight_record("stage", "churn " + std::to_string(i));
      return 0;
    });
  }
  session.close();
  std::ostringstream os;
  write_chrome_trace(os, session.sink());
  EXPECT_TRUE(JsonChecker(os.str()).valid());
}

TEST(ObsContextConcurrency, DeltaSinceUnderConcurrentScopeChurn) {
  Counter& counter = MetricsRegistry::global().counter("obs.churn.count");
  ObsContext base("delta-churn", kCaptureMetricsBaseline);
  {
    ThreadPool pool(8);
    std::vector<std::future<void>> reads;
    for (int r = 0; r < 8; ++r) {
      reads.push_back(pool.submit([&base] {
        for (int k = 0; k < 50; ++k) {
          (void)base.delta();  // snapshot+delta racing the writers below
        }
      }));
    }
    parallel_map_ordered(&pool, 64, [&counter](std::size_t i) {
      ObsContext scope("writer=" + std::to_string(i));
      for (int k = 0; k < 100; ++k) counter.add(1);
      return 0;
    });
    for (auto& f : reads) f.get();
  }
  EXPECT_EQ(base.delta().counters.at("obs.churn.count"), 64u * 100u);
}

TEST(FlightSinkConcurrency, ParallelRecordsKeepSeqOrdered) {
  const std::size_t before = flight_total();
  {
    ThreadPool pool(8);
    parallel_map_ordered(&pool, 8, [](std::size_t t) {
      for (int i = 0; i < 500; ++i) {
        flight_record("stage", std::to_string(t) + " " + std::to_string(i));
      }
      return 0;
    });
  }
  std::size_t dropped = 0;
  const std::vector<TraceEvent> events = flight_recorder().snapshot(&dropped);
  EXPECT_EQ(dropped + events.size(), before + 8u * 500u);
  ASSERT_EQ(events.size(), 512u);
  // Ring order is emission order: each emitter's records appear in the
  // order it made them.
  std::vector<int> last(8, -1);
  for (const TraceEvent& e : events) {
    std::istringstream detail(e.args.substr(11));  // past {"detail":"
    std::size_t t = 0;
    int i = 0;
    ASSERT_TRUE(detail >> t >> i) << e.args;
    ASSERT_LT(t, last.size());
    EXPECT_GT(i, last[t]) << "ring order diverged from emission order";
    last[t] = i;
  }
}

}  // namespace
}  // namespace cdcs::support
