// Extension bench: the exact weighted-UCP branch-and-bound (the paper's
// step 2, reimplementing the toolbox of refs [4]/[8]) against the greedy
// ln(n)-approximation, on random covering matrices of increasing size.
// Reports optimality gap and wall-clock, plus the effect of disabling the
// solver's reductions. Exits 1 when two exact solves disagree on a cost or
// solver v2 loses its same-run wall-clock lead over the legacy
// configuration (see the v2-vs-legacy section).
#include <chrono>
#include <cstdio>
#include <tuple>

#include "cover_corpus.hpp"
#include "ucp/bnb.hpp"
#include "ucp/dp.hpp"
#include "ucp/greedy.hpp"

namespace {

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main() {
  using namespace cdcs::ucp;
  std::puts(
      "=== Weighted UCP: dense DP vs branch-and-bound vs greedy ===\n"
      "solve_exact defaults to the subset DP for <= 20 rows; this bench\n"
      "names both exact backends for comparison.\n");
  std::printf("%5s %5s %8s | %10s %9s | %9s %9s | %8s | %7s\n", "rows",
              "cols", "density", "exact", "t_dp", "t_bnb", "bnb-nodes",
              "t_greedy", "gap%");

  BnbOptions force_bnb;
  force_bnb.backend = "bnb_v2";

  double worst_gap = 0.0;
  for (const auto& [rows, cols, density] :
       {std::tuple{10, 30, 0.30}, std::tuple{12, 200, 0.25},
        std::tuple{15, 60, 0.25}, std::tuple{15, 1000, 0.20},
        std::tuple{20, 100, 0.20}, std::tuple{20, 2000, 0.15}}) {
    const CoverProblem p = corpus_problem(rows, cols, density, 91 + rows);

    auto t0 = std::chrono::steady_clock::now();
    const CoverSolution dp = solve_dp(p);
    const double t_dp = ms_since(t0);

    t0 = std::chrono::steady_clock::now();
    const CoverSolution bnb = solve_exact(p, force_bnb);
    const double t_bnb = ms_since(t0);

    t0 = std::chrono::steady_clock::now();
    const CoverSolution greedy = solve_greedy(p);
    const double t_greedy = ms_since(t0);

    if (bnb.optimal && std::abs(dp.cost - bnb.cost) > 1e-9) {
      std::printf("ERROR: DP (%f) and BnB (%f) disagree!\n", dp.cost,
                  bnb.cost);
      return 1;
    }
    const double gap = 100.0 * (greedy.cost - dp.cost) / dp.cost;
    worst_gap = std::max(worst_gap, gap);
    std::printf(
        "%5d %5d %8.2f | %10.2f %7.1fms | %7.1fms %9zu | %6.2fms | %6.1f%s\n",
        rows, cols, density, dp.cost, t_dp, t_bnb, bnb.nodes_explored,
        t_greedy, gap, bnb.optimal ? "" : " (bnb incumbent)");
  }
  std::printf("\nWorst greedy optimality gap observed: %.1f%%\n", worst_gap);

  // --- Solver v2 vs the legacy v1 configuration -------------------------
  // Same corpus, two solver configurations. Both must prove the SAME cost;
  // the interesting columns are nodes and wall-clock. The node counts of
  // both are pinned in tests/test_ucp.cpp. Both walls come from this run on
  // this host, so their ratio gates the solver on any machine (exit 1):
  //   * 20x2000: v2 at least 5x faster than legacy;
  //   * v2/legacy wall ratio at most 1.2x the recorded one, on every
  //     instance whose legacy solve took >= 1 ms in the recording and in
  //     this run (faster solves are timer noise).
  // The recorded ratios are v2 ms / legacy ms from a 1-hardware-thread
  // container, Release build; 0 marks an instance whose recorded legacy
  // solve was under 1 ms, which is not gated.
  std::puts(
      "\n=== Solver v2 (Lagrangian bounds + reduced-cost fixing) vs legacy "
      "===");
  std::printf("%5s %5s | %9s %10s | %9s %10s | %8s %8s\n", "rows", "cols",
              "v1-nodes", "v1-ms", "v2-nodes", "v2-ms", "v2/v1", "recorded");
  BnbOptions legacy = force_bnb;
  legacy.use_lagrangian_bound = false;
  legacy.use_reduced_cost_fixing = false;
  const struct {
    int rows, cols;
    double density;
    double recorded_ratio;
  } kSolverCorpus[] = {
      {10, 30, 0.30, 0.0},
      {12, 200, 0.25, 0.0},
      {15, 60, 0.25, 0.0},
      {15, 1000, 0.20, 3.788 / 116.975},
      {20, 100, 0.20, 0.241 / 2.055},
      {20, 2000, 0.15, 44.714 / 5421.878},
  };
  int failures = 0;
  for (const auto& c : kSolverCorpus) {
    const CoverProblem p =
        corpus_problem(c.rows, c.cols, c.density, 91 + c.rows);

    auto t0 = std::chrono::steady_clock::now();
    const CoverSolution v1 = solve_exact(p, legacy);
    const double t_v1 = ms_since(t0);

    t0 = std::chrono::steady_clock::now();
    const CoverSolution v2 = solve_exact(p, force_bnb);
    const double t_v2 = ms_since(t0);

    if (std::abs(v1.cost - v2.cost) > 1e-9) {
      std::printf("ERROR: configurations disagree on %dx%d: %f / %f\n",
                  c.rows, c.cols, v1.cost, v2.cost);
      return 1;
    }
    const double ratio = t_v2 / t_v1;
    std::printf("%5d %5d | %9zu %8.1fms | %9zu %8.1fms | %8.5f %8.5f\n",
                c.rows, c.cols, v1.nodes_explored, t_v1, v2.nodes_explored,
                t_v2, ratio, c.recorded_ratio);
    if (c.rows == 20 && c.cols == 2000 && t_v2 * 5.0 > t_v1) {
      std::printf("FAIL %dx%d: v2 %.1fms vs legacy %.1fms (< 5x speedup)\n",
                  c.rows, c.cols, t_v2, t_v1);
      ++failures;
    }
    if (c.recorded_ratio > 0.0 && t_v1 >= 1.0 &&
        ratio > c.recorded_ratio * 1.2) {
      std::printf(
          "FAIL %dx%d: v2/legacy wall ratio %.5f vs recorded %.5f (>20%%)\n",
          c.rows, c.cols, ratio, c.recorded_ratio);
      ++failures;
    }
  }

  std::puts("\n=== BnB reduction ablation (20x100, density 0.2) ===");
  const CoverProblem p = corpus_problem(20, 100, 0.2, 111);
  BnbOptions no_dom = force_bnb;
  no_dom.use_row_dominance = false;
  no_dom.use_column_dominance = false;
  BnbOptions no_lb = force_bnb;
  no_lb.use_mis_lower_bound = false;
  for (const auto& [name, opts] :
       {std::pair{"all reductions", force_bnb},
        std::pair{"no dominance", no_dom},
        std::pair{"no MIS bound", no_lb}}) {
    const auto t0 = std::chrono::steady_clock::now();
    const CoverSolution s = solve_exact(p, opts);
    std::printf("%16s: cost %.2f, %zu nodes, %.1f ms\n", name, s.cost,
                s.nodes_explored, ms_since(t0));
  }
  return failures == 0 ? 0 : 1;
}
