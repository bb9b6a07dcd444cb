// Edit-replay timings for the incremental synthesis engine
// (synth/engine.hpp): how much faster is Engine::apply() on a small edit
// than throwing the session away and calling synthesize() from scratch?
//
// Each scenario replays a deterministic edit sequence twice over the same
// graph states -- once through a long-lived Engine (persistent pricing
// cache + cover-solution reuse), once from scratch per step -- and reports
// total wall-clock, per-step averages, the speedup ratio, and the pricing
// hit rate. Engine::apply() is bit-identical to synthesize(), so both
// columns compute the exact same results (the oracle in
// tests/test_incremental.cpp); only the wall-clock may differ.
//
// The wan/single-arc scenario is also a same-run gate: the binary exits 1
// unless its speedup is at least 5x and at least 0.8x the recorded 17.238x.
// Its registry counts and pricing hit rate are pinned by
// MetricsTotals.WanSingleArcReplay (tests/test_observability.cpp).
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "commlib/standard_libraries.hpp"
#include "io/edit_script.hpp"
#include "synth/engine.hpp"
#include "synth/synthesizer.hpp"
#include "workloads/mpeg4_soc.hpp"
#include "workloads/wan2002.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

struct Scenario {
  const char* name;
  cdcs::model::ConstraintGraph graph;
  cdcs::commlib::Library library;
  std::string script;  // io/edit_script.hpp text, one batch per `solve`
  int repeat;          // replay the whole script this many times
};

/// Replays `sc` and prints its row; returns the speedup (scratch wall over
/// incremental wall).
double run(const Scenario& sc) {
  using namespace cdcs;
  const auto parsed = io::read_edit_script_from_string(sc.script);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s: bad script: %s\n", sc.name,
                 parsed.status().to_string().c_str());
    std::exit(2);
  }

  synth::Engine engine(sc.graph, sc.library);
  if (!engine.resynthesize().ok()) std::exit(2);

  double warm_ms = 0.0;
  double cold_ms = 0.0;
  std::size_t steps = 0;
  for (int rep = 0; rep < sc.repeat; ++rep) {
    for (const model::Delta& batch : parsed->batches) {
      auto t0 = Clock::now();
      const auto warm = engine.apply(batch);
      warm_ms += ms_since(t0);
      if (!warm.ok()) {
        std::fprintf(stderr, "%s: apply failed: %s\n", sc.name,
                     warm.status().to_string().c_str());
        std::exit(2);
      }

      t0 = Clock::now();
      const auto cold = synth::synthesize(engine.graph(), sc.library);
      cold_ms += ms_since(t0);
      if (!cold.ok() || cold->total_cost != warm->total_cost) {
        std::fprintf(stderr, "%s: incremental/scratch cost mismatch\n",
                     sc.name);
        std::exit(1);
      }
      ++steps;
    }
  }

  const auto stats = engine.stats();
  const double hits = static_cast<double>(stats.pricing_hits);
  const double lookups =
      hits + static_cast<double>(stats.pricing_misses);
  std::printf(
      "%-22s %5zu steps  incremental %8.2f ms (%6.3f ms/step)  "
      "scratch %8.2f ms (%6.3f ms/step)  speedup %5.2fx  hit rate %.3f  "
      "cover reuse %zu/%zu\n",
      sc.name, steps, warm_ms, warm_ms / static_cast<double>(steps), cold_ms,
      cold_ms / static_cast<double>(steps),
      cold_ms / warm_ms, lookups > 0 ? hits / lookups : 0.0,
      stats.cover_reuses, stats.cover_reuses + stats.cover_solves);
  return cold_ms / warm_ms;
}

}  // namespace

int main() {
  using namespace cdcs;

  // Single-arc bandwidth toggles: the bread-and-butter incremental case --
  // one dirty arc per step, every other subset served from the cache.
  // After the first full cycle every pricing input has been seen, so the
  // steady state is the interesting number; `repeat` provides it.
  Scenario wan_single{
      "wan/single-arc",
      workloads::wan2002(),
      commlib::wan_library(),
      "set-bandwidth a3 25\nsolve\n"
      "set-bandwidth a3 10\nsolve\n"
      "set-bandwidth a7 40\nsolve\n"
      "set-bandwidth a7 10\nsolve\n",
      10};

  // Port moves: a one-port edit dirties its whole incident star.
  Scenario wan_move{
      "wan/move-port",
      workloads::wan2002(),
      commlib::wan_library(),
      "move-port B 5 3\nsolve\n"
      "move-port B 4 3\nsolve\n",
      10};

  // Structural churn: add/remove cycles force arc renumbering (and a new
  // UCP row set) every step; the cache still absorbs the unchanged core.
  Scenario wan_churn{
      "wan/churn",
      workloads::wan2002(),
      commlib::wan_library(),
      "add-arc x1 D A 5\nadd-arc x2 E B 5\nsolve\n"
      "remove-arc x1\nremove-arc x2\nsolve\n",
      10};

  // SoC floorplan iteration (Manhattan norm, 14 channels).
  Scenario soc_move{
      "soc/move-port",
      workloads::mpeg4_soc(),
      commlib::soc_library(),
      "move-port dma 2.60 3.30\nsolve\n"
      "move-port dma 2.45 3.40\nsolve\n",
      10};

  const double single_arc_speedup = run(wan_single);
  run(wan_move);
  run(wan_churn);
  run(soc_move);

  // The recorded speedup is from a 1-hardware-thread container, Release
  // build; both walls of the ratio come from the same run.
  constexpr double kRecordedSingleArcSpeedup = 17.238;
  int failures = 0;
  if (single_arc_speedup < 5.0) {
    std::fprintf(stderr,
                 "FAIL wan/single-arc: speedup %.2fx below the 5x floor\n",
                 single_arc_speedup);
    ++failures;
  }
  if (single_arc_speedup < 0.8 * kRecordedSingleArcSpeedup) {
    std::fprintf(stderr,
                 "FAIL wan/single-arc: speedup %.2fx below 0.8x the recorded "
                 "%.2fx\n",
                 single_arc_speedup, kRecordedSingleArcSpeedup);
    ++failures;
  }
  return failures == 0 ? 0 : 1;
}
