// Solver v2 bound machinery: the subgradient Lagrangian relaxation
// (ucp/lagrangian.hpp) and the reduced-cost fixing rule built on it.
//
// The contracts under test are the ones branch-and-bound correctness hangs
// on:
//   * L(lambda) is a valid lower bound for every lambda >= 0, and the
//     ascent's best iterate DOMINATES the greedy independent-rows (MIS)
//     bound (it starts from multipliers that reproduce it exactly);
//   * reduced-cost fixing never removes a column that belongs to ANY
//     optimal cover (strict comparison against the incumbent);
//   * degraded solver exits report the Lagrangian root bound.
#include <cmath>
#include <limits>
#include <random>

#include <gtest/gtest.h>

#include "cover_corpus.hpp"
#include "support/deadline.hpp"
#include "ucp/bnb.hpp"
#include "ucp/dp.hpp"
#include "ucp/greedy.hpp"
#include "ucp/lagrangian.hpp"

namespace cdcs::ucp {
namespace {

/// Exact dual value L(lambda) recomputed independently of the ascent code.
double dual_value(const CoverProblem& p, const std::vector<double>& lambda) {
  double value = 0.0;
  for (std::size_t r = 0; r < p.num_rows(); ++r) value += lambda[r];
  for (std::size_t j = 0; j < p.num_columns(); ++j) {
    double rc = p.column(j).weight;
    p.column(j).rows.for_each([&](std::size_t r) { rc -= lambda[r]; });
    if (rc < 0.0) value += rc;
  }
  return value;
}

// Bound hierarchy on random instances small enough for the exact DP:
//   0 <= MIS bound <= Lagrangian bound <= optimum.
TEST(Lagrangian, BoundHierarchyOnRandomInstances) {
  for (unsigned seed = 0; seed < 20; ++seed) {
    std::mt19937 meta(seed * 7919 + 3);
    const int rows = std::uniform_int_distribution<int>(4, 12)(meta);
    const int cols = std::uniform_int_distribution<int>(rows, 40)(meta);
    const double density =
        std::uniform_real_distribution<double>(0.15, 0.5)(meta);
    const CoverProblem p = corpus_problem(rows, cols, density, seed);

    const CoverSolution opt = solve_dp(p);
    ASSERT_TRUE(opt.optimal);

    const double mis = independent_rows_lower_bound(p);
    const double lagr = lagrangian_root_bound(p, solve_greedy(p).cost, 100);

    EXPECT_GE(mis, 0.0);
    EXPECT_GE(lagr, mis - 1e-9) << "seed " << seed;
    EXPECT_LE(lagr, opt.cost + 1e-6) << "seed " << seed;
  }
}

// subgradient_bound's reported (bound, multipliers) pair is self-consistent:
// re-evaluating L at the returned multipliers reproduces the bound, so the
// bound really is L(lambda) for an explicit lambda >= 0 -- a machine-checked
// certificate, not just a number.
TEST(Lagrangian, ReportedBoundMatchesItsMultipliers) {
  const CoverProblem p = corpus_problem(10, 40, 0.3, 42);
  Bitset uncovered(p.num_rows());
  uncovered.set_all();
  Bitset available(p.num_columns());
  available.set_all();

  const CoverSolution greedy = solve_greedy(p);
  const LagrangianBound lb =
      subgradient_bound(p, uncovered, available, greedy.cost, 100);
  for (double m : lb.multipliers) EXPECT_GE(m, 0.0);
  EXPECT_NEAR(dual_value(p, lb.multipliers), lb.bound, 1e-9);
}

// The MIS-seeded start reproduces the MIS bound exactly: independent rows
// share no available column, so every reduced cost stays >= 0 and L
// collapses to the sum of the seeds. This is the dominance argument.
TEST(Lagrangian, MisSeedReproducesMisBound) {
  for (unsigned seed = 100; seed < 110; ++seed) {
    const CoverProblem p = corpus_problem(8, 30, 0.3, seed);
    Bitset uncovered(p.num_rows());
    uncovered.set_all();
    Bitset available(p.num_columns());
    available.set_all();
    const std::vector<double> lambda = mis_multipliers(p, uncovered, available);
    EXPECT_NEAR(dual_value(p, lambda), independent_rows_lower_bound(p), 1e-9)
        << "seed " << seed;
  }
}

// Reduced-cost fixing safety: enumerate EVERY optimal cover by brute force
// and check that no column in any of them is fixed out at the root, with the
// incumbent set to the exact optimum (the tightest budget the solver ever
// fixes against).
TEST(Lagrangian, FixingPreservesEveryOptimalCover) {
  for (unsigned seed = 0; seed < 12; ++seed) {
    std::mt19937 meta(seed * 131 + 7);
    const int rows = std::uniform_int_distribution<int>(4, 7)(meta);
    const int cols = std::uniform_int_distribution<int>(8, 14)(meta);
    const CoverProblem p = corpus_problem(rows, cols, 0.35, 1000 + seed);

    const CoverSolution opt = solve_dp(p);
    ASSERT_TRUE(opt.optimal);

    // Columns appearing in at least one optimal cover.
    std::vector<bool> in_some_optimum(p.num_columns(), false);
    const std::size_t n = p.num_columns();
    ASSERT_LE(n, 22u) << "brute force would be too slow";
    for (std::size_t mask = 0; mask < (std::size_t{1} << n); ++mask) {
      std::vector<std::size_t> chosen;
      for (std::size_t j = 0; j < n; ++j) {
        if (mask & (std::size_t{1} << j)) chosen.push_back(j);
      }
      if (!p.covers_all(chosen)) continue;
      if (p.cost_of(chosen) <= opt.cost + 1e-9) {
        for (std::size_t j : chosen) in_some_optimum[j] = true;
      }
    }

    Bitset uncovered(p.num_rows());
    uncovered.set_all();
    Bitset available(p.num_columns());
    available.set_all();
    const LagrangianBound lagr =
        subgradient_bound(p, uncovered, available, opt.cost, 100);

    // The fixing rule from ucp/bnb.cpp, with the optimum as incumbent.
    for (std::size_t j = 0; j < p.num_columns(); ++j) {
      const double through =
          lagr.bound + std::max(0.0, lagr.reduced_costs[j]);
      const bool fixed_out = through > opt.cost * (1.0 + 1e-12) + 1e-9;
      if (fixed_out) {
        EXPECT_FALSE(in_some_optimum[j])
            << "seed " << seed << ": column " << j
            << " is in an optimal cover but was fixed out (bound "
            << lagr.bound << ", rc " << lagr.reduced_costs[j] << ", opt "
            << opt.cost << ")";
      }
    }
  }
}

// Degraded exits carry the Lagrangian root bound: expire the deadline
// instantly and check the reported lower_bound dominates the independent-
// rows bound and still sits below the (greedy) incumbent cost.
TEST(Lagrangian, DeadlineExpiryReportsRootBound) {
  const CoverProblem p = corpus_problem(25, 120, 0.2, 77);

  BnbOptions opt;
  opt.backend = "bnb_v2";
  opt.deadline = support::Deadline::expire_after_checks(0);
  const CoverSolution s = solve_exact(p, opt);

  EXPECT_FALSE(s.optimal);
  EXPECT_EQ(s.stop, CoverStop::kDeadline);
  EXPECT_GE(s.lower_bound, independent_rows_lower_bound(p) - 1e-9);
  EXPECT_GT(s.lower_bound, 0.0);
  // The bound must be valid: never above the cost of the returned cover.
  EXPECT_LE(s.lower_bound, s.cost + 1e-9);

  // Same contract through the dense-DP dispatch path (rows <= 20).
  const CoverProblem small = corpus_problem(15, 60, 0.25, 78);
  BnbOptions dp_opt;
  dp_opt.deadline = support::Deadline::expire_after_checks(0);
  const CoverSolution d = solve_exact(small, dp_opt);
  EXPECT_FALSE(d.optimal);
  EXPECT_EQ(d.stop, CoverStop::kDeadline);
  EXPECT_GE(d.lower_bound, independent_rows_lower_bound(small) - 1e-9);
  EXPECT_GT(d.lower_bound, 0.0);
  EXPECT_LE(d.lower_bound, d.cost + 1e-9);
}

// The exact dense DP and the depth-first bnb_v2 return the same
// proven-optimal cost even on instances with many cost ties, and a tiny node
// budget degrades gracefully to a feasible, unproven cover.
TEST(Lagrangian, BestFirstMatchesDfsAndCapsGracefully) {
  for (unsigned seed = 300; seed < 306; ++seed) {
    const CoverProblem p = corpus_problem(14, 80, 0.25, seed);
    BnbOptions dfs;
    dfs.backend = "bnb_v2";
    BnbOptions dp;
    dp.backend = "dense_dp";

    const CoverSolution a = solve_exact(p, dfs);
    const CoverSolution b = solve_exact(p, dp);
    ASSERT_TRUE(a.optimal);
    ASSERT_TRUE(b.optimal);
    EXPECT_NEAR(a.cost, b.cost, 1e-9) << "seed " << seed;
  }

  // A tiny node budget must still return a feasible cover, just unproven.
  const CoverProblem p = corpus_problem(22, 150, 0.2, 321);
  BnbOptions capped;
  capped.backend = "bnb_v2";
  capped.max_nodes = 2;
  capped.use_lagrangian_bound = false;  // keep the root from proving optimality
  capped.use_reduced_cost_fixing = false;
  const CoverSolution s = solve_exact(p, capped);
  EXPECT_TRUE(p.covers_all(s.chosen));
  EXPECT_TRUE(std::isfinite(s.cost));
  EXPECT_FALSE(s.optimal);
  EXPECT_EQ(s.stop, CoverStop::kNodeBudget);
}

}  // namespace
}  // namespace cdcs::ucp
