// Machine-readable performance summary for CI trend tracking.
//
// Emits one JSON document (stdout, or the file named by argv[1]) with the
// numbers the performance work is judged on (see docs/performance.md):
//   * end-to-end WAN synthesis wall-clock across pricing thread counts,
//     plus a warm-pricing-cache run (all best-of-N, all cost-checked
//     against the serial run -- a determinism violation fails the tool);
//   * branch-and-bound nodes_explored on the bench_ucp_solver corpus
//     (must never grow: the bitset reductions are semantics-preserving);
//   * pricing-cache hit accounting for a repeated synthesize() call;
//   * the partitioned-synthesis scaling gate on a pinned 1k-arc geo-WAN
//     instance (stitched cost, summed cluster lower bound, optimality gap,
//     thread-count determinism, and the exact-vs-partitioned speedup).
//
// CI redirects this to BENCH_pr.json and uploads it as an artifact; the
// checked-in copy at the repo root records the numbers for this tree on
// the container it was developed on (see "host" below for context).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <random>
#include <sstream>
#include <thread>
#include <vector>

#include "commlib/standard_libraries.hpp"
#include "support/metrics.hpp"
#include "support/obs_context.hpp"
#include "support/profiler.hpp"
#include "support/trace.hpp"
#include "synth/engine.hpp"
#include "synth/partition.hpp"
#include "synth/pricing_cache.hpp"
#include "synth/synthesizer.hpp"
#include "ucp/bnb.hpp"
#include "ucp/cover_solver.hpp"
#include "workloads/fingerprint.hpp"
#include "workloads/scale_gen.hpp"
#include "workloads/wan2002.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0)
      .count();
}

std::uint64_t counter_total(const cdcs::support::MetricsSnapshot& s,
                            const char* name) {
  const auto it = s.counters.find(name);
  return it == s.counters.end() ? 0 : it->second;
}

/// Same generator as bench_ucp_solver.cpp / Exact.SeedCorpusNodeCounts.
cdcs::ucp::CoverProblem random_problem(int rows, int cols, double density,
                                       unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::uniform_real_distribution<double> weight(0.5, 10.0);
  cdcs::ucp::CoverProblem p(rows);
  for (int j = 0; j < cols; ++j) {
    std::vector<std::size_t> covered;
    for (int r = 0; r < rows; ++r) {
      if (unit(rng) < density) covered.push_back(r);
    }
    if (covered.empty()) covered.push_back(j % rows);
    p.add_column(covered, weight(rng));
  }
  for (int r = 0; r < rows; ++r) {
    p.add_column({static_cast<std::size_t>(r)}, 12.0);
  }
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cdcs;

  std::FILE* out = stdout;
  if (argc > 1) {
    out = std::fopen(argv[1], "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", argv[1]);
      return 2;
    }
  }

  const model::ConstraintGraph cg = workloads::wan2002();
  const commlib::Library lib = commlib::wan_library();
  int failures = 0;

  // Baseline for the trailing "metrics" section: everything the bench does
  // below accumulates into the global registry; the delta is this run's
  // totals. Timing stays DISABLED (no set_timing_enabled) so only
  // deterministic event counts land in the registry -- wall-clock numbers
  // come from the explicit Clock measurements, never from metrics.
  const support::MetricsSnapshot metrics_baseline =
      support::MetricsRegistry::global().snapshot();

  std::fprintf(out, "{\n  \"host\": {\"hardware_threads\": %u},\n",
               std::thread::hardware_concurrency());

  // --- WAN end-to-end synthesis across thread counts -------------------
  // hardware_threads is repeated here so the sweep is self-describing: on a
  // 1-core container the thread counts are purely oversubscription and the
  // regression checker must not (and does not) expect the sweep to scale.
  const double serial_cost = synth::synthesize(cg, lib).value().total_cost;
  std::fprintf(out,
               "  \"wan_synthesis\": {\n    \"total_cost\": %.6f,\n"
               "    \"hardware_threads\": %u,\n",
               serial_cost, std::thread::hardware_concurrency());
  constexpr int kReps = 5;
  synth::PricingCache cache;
  bool first = true;
  std::fprintf(out, "    \"wall_ms_best_of_%d\": {", kReps);
  for (const auto& [key, threads, use_cache] :
       {std::tuple{"threads_1", 1, false}, std::tuple{"threads_2", 2, false},
        std::tuple{"threads_4", 4, false}, std::tuple{"threads_8", 8, false},
        std::tuple{"threads_8_warm_cache", 8, true}}) {
    synth::SynthesisOptions options;
    options.threads = threads;
    if (use_cache) options.pricing_cache = &cache;
    double best_ms = 1e100;
    for (int rep = 0; rep < kReps; ++rep) {
      const auto t0 = Clock::now();
      const synth::SynthesisResult r =
          synth::synthesize(cg, lib, options).value();
      best_ms = std::min(best_ms, ms_since(t0));
      if (r.total_cost != serial_cost) {
        std::fprintf(stderr, "DETERMINISM VIOLATION: %s cost %.9f != %.9f\n",
                     key, r.total_cost, serial_cost);
        ++failures;
      }
    }
    std::fprintf(out, "%s\n      \"%s\": %.3f", first ? "" : ",", key,
                 best_ms);
    first = false;
  }
  std::fprintf(out, "\n    }\n  },\n");

  // --- UCP solver v2 vs legacy on the bench corpus ----------------------
  // Every configuration must prove the SAME cost (solver v2's optimality
  // contract); v2's Lagrangian bounds + reduced-cost fixing are judged on
  // node and wall-clock reduction against the legacy (v1) configuration.
  // The wall numbers are machine-dependent, but the v2/legacy RATIO is not,
  // which is what the acceptance gate below and the CI regression checker
  // (tools/check_bench_regression.py) compare.
  ucp::BnbOptions force_bnb;
  force_bnb.backend = "bnb_v2";
  ucp::BnbOptions legacy = force_bnb;
  legacy.use_lagrangian_bound = false;
  legacy.use_reduced_cost_fixing = false;
  std::fprintf(out, "  \"ucp_bnb\": [\n");
  first = true;
  for (const auto& [rows, cols, density] :
       {std::tuple{10, 30, 0.30}, std::tuple{12, 200, 0.25},
        std::tuple{15, 60, 0.25}, std::tuple{15, 1000, 0.20},
        std::tuple{20, 100, 0.20}, std::tuple{20, 2000, 0.15}}) {
    const ucp::CoverProblem p =
        random_problem(rows, cols, density, 91 + rows);
    auto t0 = Clock::now();
    const ucp::CoverSolution v1 = ucp::solve_exact(p, legacy);
    const double t_v1 = ms_since(t0);
    t0 = Clock::now();
    const ucp::CoverSolution s = ucp::solve_exact(p, force_bnb);
    const double t_ms = ms_since(t0);

    if (std::abs(v1.cost - s.cost) > 1e-9) {
      std::fprintf(stderr, "COST MISMATCH on %dx%d: legacy %.9f, v2 %.9f\n",
                   rows, cols, v1.cost, s.cost);
      ++failures;
    }
    // Acceptance gate for the v2 solver on the hardest instance: at least
    // 10x fewer nodes and 5x less wall-clock than the legacy tree.
    if (rows == 20 && cols == 2000) {
      if (s.nodes_explored * 10 > v1.nodes_explored) {
        std::fprintf(stderr,
                     "NODE REGRESSION on 20x2000: v2 %zu nodes vs legacy "
                     "%zu (< 10x reduction)\n",
                     s.nodes_explored, v1.nodes_explored);
        ++failures;
      }
      if (t_ms * 5.0 > t_v1) {
        std::fprintf(stderr,
                     "WALL REGRESSION on 20x2000: v2 %.1fms vs legacy "
                     "%.1fms (< 5x speedup)\n",
                     t_ms, t_v1);
        ++failures;
      }
    }
    std::fprintf(out,
                 "%s    {\"rows\": %d, \"cols\": %d, \"density\": %.2f, "
                 "\"measured_density\": %.4f, \"backend\": \"%s\", "
                 "\"cost\": %.6f, \"nodes_explored\": %zu, "
                 "\"wall_ms\": %.3f, \"legacy_nodes\": %zu, "
                 "\"legacy_wall_ms\": %.3f, \"optimal\": %s}",
                 first ? "" : ",\n", rows, cols, density, s.density,
                 s.backend.c_str(), s.cost, s.nodes_explored, t_ms,
                 v1.nodes_explored, t_v1, s.optimal ? "true" : "false");
    first = false;
  }
  std::fprintf(out, "\n  ],\n");

  // --- Incremental engine: single-arc edit replay vs from-scratch ------
  // The acceptance gate for the incremental session (synth/engine.hpp):
  // replaying single-arc bandwidth edits through Engine::apply() must be
  // at least 5x faster than from-scratch synthesize() on the same edited
  // graphs, while producing bit-identical results (the oracle in
  // tests/test_incremental.cpp; costs are cross-checked here too). Both
  // sides of the ratio come from this run on this machine, so the number
  // is machine-independent -- the regression checker compares it like the
  // v2/legacy wall ratio.
  {
    synth::Engine engine(cg, lib);
    if (!engine.resynthesize().ok()) {
      std::fprintf(stderr, "INCREMENTAL: baseline resynthesize failed\n");
      ++failures;
    }
    const char* kToggles[][2] = {{"a3", "25"}, {"a3", "10"},
                                 {"a7", "40"}, {"a7", "10"}};
    constexpr int kIncReps = 10;  // steady state after the first cycle
    double warm_ms = 0.0;
    double scratch_ms = 0.0;
    std::size_t steps = 0;
    for (int rep = 0; rep < kIncReps; ++rep) {
      for (const auto& [arc, bw] : kToggles) {
        model::Delta d;
        d.ops.push_back(model::SetBandwidthOp{arc, std::atof(bw)});
        auto t0 = Clock::now();
        const auto warm = engine.apply(d);
        warm_ms += ms_since(t0);
        t0 = Clock::now();
        const auto scratch = synth::synthesize(engine.graph(), lib);
        scratch_ms += ms_since(t0);
        if (!warm.ok() || !scratch.ok() ||
            warm->total_cost != scratch->total_cost) {
          std::fprintf(stderr,
                       "INCREMENTAL DETERMINISM VIOLATION at step %zu\n",
                       steps);
          ++failures;
        }
        ++steps;
      }
    }
    const double speedup = warm_ms > 0.0 ? scratch_ms / warm_ms : 0.0;
    const auto session = engine.stats();
    const double lookups = static_cast<double>(session.pricing_hits +
                                               session.pricing_misses);
    std::fprintf(out,
                 "  \"incremental_replay\": {\"workload\": \"wan_single_arc\", "
                 "\"steps\": %zu, \"incremental_ms\": %.3f, "
                 "\"scratch_ms\": %.3f, \"speedup\": %.3f, "
                 "\"pricing_hit_rate\": %.4f},\n",
                 steps, warm_ms, scratch_ms, speedup,
                 lookups > 0.0
                     ? static_cast<double>(session.pricing_hits) / lookups
                     : 0.0);
    if (speedup < 5.0) {
      std::fprintf(stderr,
                   "INCREMENTAL REGRESSION: single-arc edit replay only "
                   "%.2fx faster than from-scratch (< 5x)\n",
                   speedup);
      ++failures;
    }
  }

  // --- Pricing cache accounting across repeated runs -------------------
  synth::PricingCache sweep_cache;
  synth::SynthesisOptions cached;
  cached.pricing_cache = &sweep_cache;
  (void)synth::synthesize(cg, lib, cached).value();
  const auto cold = sweep_cache.stats();
  const synth::SynthesisResult warm_run =
      synth::synthesize(cg, lib, cached).value();
  const auto warm = sweep_cache.stats();
  const auto& warm_stats = warm_run.candidate_set.stats;
  std::fprintf(out,
               "  \"pricing_cache\": {\"entries\": %zu, "
               "\"cold_run_misses\": %zu, \"warm_run_hits\": %zu, "
               "\"warm_run_misses\": %zu},\n",
               warm.entries, cold.misses, warm_stats.pricing_cache_hits,
               warm_stats.pricing_cache_misses);
  if (warm_stats.pricing_cache_misses != 0) {
    std::fprintf(stderr, "CACHE REGRESSION: warm run missed %zu subsets\n",
                 warm_stats.pricing_cache_misses);
    ++failures;
  }

  // --- Registry totals across the whole bench run ----------------------
  // Whole-process deltas from the metrics registry (support/metrics.hpp):
  // every number here is an event COUNT, fully deterministic for this
  // fixed workload, so check_bench_regression.py can compare it exactly
  // across machines. cache_hit_rate is hits/(hits+misses) over every
  // cache-backed synthesize() above (warm-cache sweep + incremental replay
  // + the pricing_cache section).
  {
    const support::MetricsSnapshot m =
        support::MetricsRegistry::global().snapshot().delta_since(
            metrics_baseline);
    const std::uint64_t hits = counter_total(m, "synth.pricing_cache.hits");
    const std::uint64_t misses =
        counter_total(m, "synth.pricing_cache.misses");
    const std::uint64_t lookups = hits + misses;
    std::fprintf(
        out,
        "  \"metrics\": {\"synth_runs\": %llu, "
        "\"subsets_examined\": %llu, \"ucp_solves\": %llu, "
        "\"ucp_dense_dp_solves\": %llu, \"ucp_nodes_total\": %llu, "
        "\"ucp_rc_fixed_columns\": %llu, \"engine_applies\": %llu, "
        "\"cache_hits\": %llu, \"cache_misses\": %llu, "
        "\"cache_hit_rate\": %.4f, "
        "\"fault_fires\": %llu, \"journal_appends\": %llu},\n",
        static_cast<unsigned long long>(counter_total(m, "synth.runs")),
        static_cast<unsigned long long>(
            counter_total(m, "synth.subsets_examined")),
        static_cast<unsigned long long>(counter_total(m, "ucp.solves")),
        static_cast<unsigned long long>(counter_total(m, "ucp.dp_solves")),
        static_cast<unsigned long long>(
            counter_total(m, "ucp.nodes_explored")),
        static_cast<unsigned long long>(
            counter_total(m, "ucp.rc_fixed_columns")),
        static_cast<unsigned long long>(counter_total(m, "engine.applies")),
        static_cast<unsigned long long>(hits),
        static_cast<unsigned long long>(misses),
        lookups > 0 ? static_cast<double>(hits) / static_cast<double>(lookups)
                    : 0.0,
        // Robustness guard (docs/robustness.md): the bench harness must
        // never run with fault injection armed or journaling on -- both
        // totals are pinned at zero by tools/check_bench_regression.py.
        static_cast<unsigned long long>(counter_total(m, "fault.fires")),
        static_cast<unsigned long long>(
            counter_total(m, "io.journal.appends")));
  }

  // --- In-process profiler over one scoped serial synthesize ------------
  // A fresh trace session + observability scope around a single 1-thread
  // WAN synthesize. The per-(scope, span-name) COUNTS are a deterministic
  // function of this fixed workload and are diffed exactly by
  // tools/check_bench_regression.py; the *_us timings and latency buckets
  // are machine noise and are ignored by the checker. Timing stays
  // disabled -- the trace layer stamps its own timestamps.
  {
    support::ScopedTraceSession session;
    support::ObsContext bench_scope("bench=wan_profile");
    synth::SynthesisOptions serial;
    serial.threads = 1;
    (void)synth::synthesize(cg, lib, serial).value();
    std::ostringstream profile_json;
    support::write_profile_json(profile_json,
                                support::build_profile(session.sink()));
    std::fprintf(out, "  \"profile\": %s,\n", profile_json.str().c_str());
  }

  // --- Cover-solver backend matrix --------------------------------------
  // Deliberately after the metrics delta (the extra solves here must not
  // perturb the exact-match event counts). Every registered backend runs
  // the pinned solver corpus; everything emitted is a deterministic pure
  // function of the instance (costs, node counts), so
  // tools/check_bench_regression.py diffs the whole section exactly (costs
  // with a float tolerance). Gate: every applicable backend proves the
  // reference cost.
  {
    std::fprintf(out, "  \"cover_solver_matrix\": [\n");
    first = true;
    for (const auto& [rows, cols, density] :
         {std::tuple{10, 30, 0.30}, std::tuple{12, 200, 0.25},
          std::tuple{15, 60, 0.25}, std::tuple{20, 100, 0.20},
          std::tuple{20, 2000, 0.15}}) {
      const ucp::CoverProblem p =
          random_problem(rows, cols, density, 91 + rows);
      const ucp::CoverSolution reference = ucp::solve_exact(p, {});
      std::fprintf(out,
                   "%s    {\"rows\": %d, \"cols\": %d, \"density\": %.2f, "
                   "\"cost\": %.6f, \"backends\": {",
                   first ? "" : ",\n", rows, cols, density, reference.cost);
      first = false;
      bool first_backend = true;
      for (const ucp::CoverSolver* solver : ucp::registered_cover_solvers()) {
        if (!solver->applicable(p)) continue;
        ucp::BnbOptions opts;
        opts.backend = solver->name();
        const ucp::CoverSolution s = ucp::solve_exact(p, opts);
        if (!s.optimal || std::abs(s.cost - reference.cost) > 1e-9) {
          std::fprintf(stderr,
                       "COVER SOLVER MATRIX VIOLATION: %s on %dx%d cost "
                       "%.9f (optimal=%d) != reference %.9f\n",
                       s.backend.c_str(), rows, cols, s.cost,
                       s.optimal ? 1 : 0, reference.cost);
          ++failures;
        }
        std::fprintf(out, "%s\"%s\": {\"nodes\": %zu, \"optimal\": %s}",
                     first_backend ? "" : ", ", s.backend.c_str(),
                     s.nodes_explored, s.optimal ? "true" : "false");
        first_backend = false;
      }
      std::fprintf(out, "}}");
    }
    std::fprintf(out, "\n  ],\n");
  }

  // --- Partitioned synthesis scaling gate -------------------------------
  // Deliberately AFTER the metrics delta above: the exact-path comparison
  // below is deadline-bounded, so its event counts (subsets examined, UCP
  // nodes) depend on machine speed and must not land in the exact-match
  // "metrics" section. Everything emitted here is either machine-
  // independent (stitched cost, lower bound, cluster shape, fingerprint)
  // or a same-machine ratio/flag (the exact-vs-partitioned comparison).
  //
  // Acceptance gates (this binary exits non-zero on violation):
  //   * the 1k-arc geo-WAN instance synthesizes end-to-end through the
  //     partitioned path with optimality gap <= 10% of the summed
  //     per-cluster lower bounds;
  //   * the result is bit-identical at 1, 2, and 8 worker threads;
  //   * the exact monolithic path, given a 10x-partitioned-wall budget on
  //     the same instance, either blows the deadline or is >= 10x slower.
  {
    const model::ConstraintGraph big =
        workloads::geo_wan(workloads::GeoWanParams::sized(1000, 7));
    // Input canary: the cost comparison in check_bench_regression.py is
    // only sound while the generator is bit-stable across machines.
    constexpr std::uint64_t kPinnedFingerprint = 0x65b4e049bc0a41e8ull;
    const std::uint64_t fp = workloads::fingerprint(big);
    if (fp != kPinnedFingerprint) {
      std::fprintf(stderr,
                   "GENERATOR DRIFT: geo_wan(1000, seed 7) fingerprint "
                   "%016llx != pinned %016llx\n",
                   static_cast<unsigned long long>(fp),
                   static_cast<unsigned long long>(kPinnedFingerprint));
      ++failures;
    }

    synth::SynthesisOptions popts;
    popts.partitioning.enabled = true;
    const synth::Partition part =
        synth::partition_graph(big, popts.partitioning);

    double best_ms = 1e100;
    double cost = 0.0, lower_bound = 0.0, gap = 0.0;
    std::vector<std::size_t> chosen;
    bool threads_identical = true;
    for (const int threads : {1, 2, 8}) {
      popts.threads = threads;
      const auto t0 = Clock::now();
      const synth::SynthesisResult r =
          synth::synthesize(big, lib, popts).value();
      best_ms = std::min(best_ms, ms_since(t0));
      if (!r.validation.ok()) {
        std::fprintf(stderr, "PARTITIONED: validation failed at %d threads\n",
                     threads);
        ++failures;
      }
      if (threads == 1) {
        cost = r.total_cost;
        lower_bound = r.degradation.lower_bound;
        gap = r.degradation.optimality_gap;
        chosen = r.cover.chosen;
      } else if (r.total_cost != cost || r.cover.chosen != chosen) {
        std::fprintf(stderr,
                     "PARTITIONED DETERMINISM VIOLATION: %d threads cost "
                     "%.9f != %.9f (or cover differs)\n",
                     threads, r.total_cost, cost);
        threads_identical = false;
        ++failures;
      }
    }
    if (gap > 0.10) {
      std::fprintf(stderr,
                   "PARTITIONED GAP REGRESSION: optimality gap %.4f "
                   "exceeds the 10%% acceptance bound\n",
                   gap);
      ++failures;
    }

    synth::SynthesisOptions eopts;
    const double exact_budget_ms = std::max(10.0 * best_ms, 1000.0);
    eopts.deadline = support::Deadline::after_ms(exact_budget_ms);
    const auto t0 = Clock::now();
    const synth::SynthesisResult exact =
        synth::synthesize(big, lib, eopts).value();
    const double exact_ms = ms_since(t0);
    const bool exact_expired =
        exact.degradation.stage != synth::SynthesisStage::kExact;
    const bool exact_timeout_or_10x =
        exact_expired || exact_ms >= 10.0 * best_ms;
    if (!exact_timeout_or_10x) {
      std::fprintf(stderr,
                   "PARTITIONED SPEEDUP REGRESSION: exact path finished in "
                   "%.1fms vs partitioned %.1fms (< 10x, no timeout) -- "
                   "partitioning is not earning its approximation\n",
                   exact_ms, best_ms);
      ++failures;
    }

    std::fprintf(
        out,
        "  \"partitioned_scaling\": {\"workload\": \"geo_wan\", "
        "\"arcs\": %zu, \"seed\": 7, \"fingerprint\": \"%016llx\", "
        "\"clusters\": %zu, \"interior_clusters\": %zu, "
        "\"boundary_arcs\": %zu, \"cost\": %.6f, \"lower_bound\": %.6f, "
        "\"optimality_gap\": %.6f, \"threads_identical\": %s, "
        "\"partitioned_wall_ms\": %.3f, \"exact_budget_ms\": %.1f, "
        "\"exact_wall_ms\": %.3f, \"exact_deadline_expired\": %s, "
        "\"exact_timeout_or_10x\": %s}\n}\n",
        big.num_channels(), static_cast<unsigned long long>(fp),
        part.clusters.size(), part.num_interior, part.boundary_arcs.size(),
        cost, lower_bound, gap, threads_identical ? "true" : "false",
        best_ms, exact_budget_ms, exact_ms,
        exact_expired ? "true" : "false",
        exact_timeout_or_10x ? "true" : "false");
  }

  if (out != stdout) std::fclose(out);
  return failures == 0 ? 0 : 1;
}
