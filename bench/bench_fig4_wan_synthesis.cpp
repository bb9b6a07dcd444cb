// Reproduces Figure 4: the optimum-cost WAN architecture. The paper:
// "the minimum cost solution is obtained by merging the arcs a4 with a5 and
// a6 in an optical link and implementing each of the other arcs with a
// dedicated radio link."
//
// This bench runs the full pipeline (candidate generation -> exact UCP ->
// materialization -> flow validation) and checks the structural claims:
//   * exactly one merging is selected and it is {a4, a5, a6};
//   * its trunk maps to the optical link (3 x 10 Mbps > 11 Mbps radio);
//   * every other arc is a dedicated radio matching;
//   * the result validates under physical (shared-sum) capacities and is
//     cheaper than the point-to-point baseline.
//
// It also sweeps the pricing thread count (--threads equivalent) and a
// warm pricing cache, checking the engine's determinism guarantee on the
// way: every configuration must land on the same architecture at the same
// cost (docs/performance.md). In an optimised (NDEBUG) build on a
// multi-core host the sweep is also a same-run wall-clock gate: extra
// pricing threads may not make the run more than 10% slower than one
// thread.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>

#include "baseline/baselines.hpp"
#include "commlib/standard_libraries.hpp"
#include "io/report.hpp"
#include "synth/pricing_cache.hpp"
#include "synth/synthesizer.hpp"
#include "workloads/wan2002.hpp"

int main() {
  using namespace cdcs;
  const model::ConstraintGraph cg = workloads::wan2002();
  const commlib::Library lib = commlib::wan_library();

  const synth::SynthesisResult result = synth::synthesize(cg, lib).value();
  std::fputs(io::describe(result, cg, lib).c_str(), stdout);

  const baseline::BaselineResult ptp =
      baseline::point_to_point_baseline(cg, lib);
  std::printf("\nPoint-to-point baseline: $%.0f\n", ptp.cost);
  std::printf("Synthesized optimum:     $%.0f  (%.1f%% saving)\n",
              result.total_cost,
              100.0 * (ptp.cost - result.total_cost) / ptp.cost);

  int failures = 0;
  const auto radio = lib.find_link("radio");
  const auto optical = lib.find_link("optical");

  std::size_t mergings = 0;
  for (const synth::Candidate* c : result.selected()) {
    if (const auto* m = std::get_if<synth::MergingPlan>(&c->plan)) {
      ++mergings;
      std::vector<std::string> names;
      for (model::ArcId a : c->arcs) names.push_back(cg.channel(a).name);
      const bool is_456 =
          names == std::vector<std::string>{"a4", "a5", "a6"};
      if (!is_456) {
        std::puts("FAIL: selected merging is not {a4,a5,a6}");
        ++failures;
      }
      if (m->trunk->link != *optical) {
        std::puts("FAIL: merged trunk is not the optical link");
        ++failures;
      }
    } else if (const auto* p = std::get_if<synth::PtpPlan>(&c->plan)) {
      if (p->link != *radio || !p->is_matching()) {
        std::printf("FAIL: %s is not a dedicated radio matching\n",
                    cg.channel(c->arcs.front()).name.c_str());
        ++failures;
      }
    }
  }
  if (mergings != 1) {
    std::printf("FAIL: expected exactly 1 merging, got %zu\n", mergings);
    ++failures;
  }
  if (!result.cover.optimal) {
    std::puts("FAIL: UCP search did not prove optimality");
    ++failures;
  }
  if (!result.validation.ok()) {
    std::puts("FAIL: implementation does not validate");
    ++failures;
  }
  if (result.total_cost >= ptp.cost) {
    std::puts("FAIL: merging did not beat the point-to-point baseline");
    ++failures;
  }

  // Threading / pricing-cache sweep: best-of-5 wall clock per config, and
  // every run must reproduce the serial cost exactly. On a host with more
  // than one hardware thread, the best multi-threaded cold run must also
  // come within 10% of the serial one (on one hardware thread the thread
  // counts only time-slice one core, so the comparison proves nothing).
  std::puts("\nPricing parallelism sweep (best of 5 runs):");
  synth::PricingCache cache;
  [[maybe_unused]] double serial_ms = 0.0;  // read by the NDEBUG gate
  double best_parallel_ms = 1e100;
  for (const auto& [label, threads, use_cache] :
       {std::tuple{"1 thread", 1, false}, std::tuple{"2 threads", 2, false},
        std::tuple{"4 threads", 4, false}, std::tuple{"8 threads", 8, false},
        std::tuple{"8 threads + warm cache", 8, true}}) {
    synth::SynthesisOptions options;
    options.threads = threads;
    if (use_cache) options.pricing_cache = &cache;
    double best_ms = 1e100;
    double cost = 0.0;
    bool diverged = false;
    for (int rep = 0; rep < 5; ++rep) {
      const auto t0 = std::chrono::steady_clock::now();
      const synth::SynthesisResult r =
          synth::synthesize(cg, lib, options).value();
      const double ms = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
      best_ms = std::min(best_ms, ms);
      cost = r.total_cost;
      diverged = diverged || cost != result.total_cost;
    }
    std::printf("  %-22s: %7.2f ms, cost $%.0f%s\n", label, best_ms, cost,
                diverged ? "  ** COST DIVERGED" : "");
    if (diverged) ++failures;
    if (threads == 1) {
      serial_ms = best_ms;
    } else if (!use_cache) {
      best_parallel_ms = std::min(best_parallel_ms, best_ms);
    }
  }
  if (cache.stats().hits == 0) {
    std::puts("FAIL: warm-cache run recorded no cache hits");
    ++failures;
  }
#ifdef NDEBUG
  // Optimised builds only: unoptimised wall clock says nothing about the
  // engine's scaling.
  const unsigned hardware_threads = std::thread::hardware_concurrency();
  if (hardware_threads > 1 && best_parallel_ms > serial_ms * 1.10) {
    std::printf(
        "FAIL: thread sweep does not scale on a %u-thread host: best "
        "multi-threaded %.2f ms vs serial %.2f ms (>10%% slower)\n",
        hardware_threads, best_parallel_ms, serial_ms);
    ++failures;
  }
#endif

  std::puts(failures == 0 ? "\nFigure 4 architecture: REPRODUCED"
                          : "\nFigure 4 architecture: FAILED");
  return failures == 0 ? 0 : 1;
}
