// The cover-solver backend registry (ucp/cover_solver.hpp): registry
// surface, byte-identity of the default dispatch with the backend it
// picks, and the CoverStop contract across every backend.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "cover_corpus.hpp"
#include "support/deadline.hpp"
#include "support/fault.hpp"
#include "ucp/bnb.hpp"
#include "ucp/cover_solver.hpp"

namespace {

using namespace cdcs;
using ucp::BnbOptions;
using ucp::CoverProblem;
using ucp::CoverSolution;
using ucp::CoverStop;
using ucp::corpus_problem;

BnbOptions backend_options(const std::string& name) {
  BnbOptions o;
  o.backend = name;
  return o;
}


TEST(CoverSolverRegistry, FixedPriorityOrder) {
  const std::vector<std::string> names = ucp::registered_cover_solver_names();
  const std::vector<std::string> expected = {"dense_dp", "bnb_v2"};
  EXPECT_EQ(names, expected);
  for (const std::string& n : names) {
    const ucp::CoverSolver* s = ucp::find_cover_solver(n);
    ASSERT_NE(s, nullptr) << n;
    EXPECT_EQ(s->name(), n);
  }
  EXPECT_EQ(ucp::find_cover_solver("no_such_backend"), nullptr);
  EXPECT_EQ(ucp::registered_cover_solver_list(), "dense_dp, bnb_v2");
}

TEST(CoverSolverRegistry, UnknownOrInapplicableBackendThrows) {
  const CoverProblem small = corpus_problem(10, 30, 0.30, 101);
  EXPECT_THROW(ucp::solve_exact(small, backend_options("no_such_backend")),
               std::invalid_argument);
  // dense_dp is structurally limited to kDenseDpMaxRows rows.
  const CoverProblem wide = corpus_problem(30, 90, 0.20, 131);
  EXPECT_FALSE(ucp::find_cover_solver("dense_dp")->applicable(wide));
  EXPECT_THROW(ucp::solve_exact(wide, backend_options("dense_dp")),
               std::invalid_argument);
}

TEST(CoverSolverRegistry, SolutionCarriesInstanceFeatures) {
  const CoverProblem p = corpus_problem(10, 30, 0.30, 101);
  const CoverSolution s = ucp::solve_exact(p, backend_options("bnb_v2"));
  EXPECT_EQ(s.backend, "bnb_v2");
  EXPECT_EQ(s.rows, 10u);
  EXPECT_EQ(s.cols, 40u);  // 30 random columns + 10 singletons
  EXPECT_GT(s.density, 0.0);
  EXPECT_LE(s.density, 1.0);
  EXPECT_DOUBLE_EQ(s.density, ucp::cover_density(p));
}

// Every backend proves the same optimal cost on the corpus, including the
// tie-heavy 14x80 seeds where many covers share the optimal cost. (The v1
// reference tree, bnb_v2 with the v2 bounds off, is pinned by
// Exact.SeedCorpusNodeCounts.) On the bench_ucp_solver instances the cost
// and each backend's node count are pinned as first recorded: nodes may
// shrink, never grow (0 = not pinned).
TEST(CoverSolverMatrix, AllBackendsProveEqualCost) {
  const struct {
    int rows, cols;
    double density;
    unsigned seed;
    double cost;
    std::size_t dense_dp_nodes, bnb_v2_nodes;
  } kCorpus[] = {
      {10, 30, 0.30, 101, 5.637716, 54, 4},
      {12, 200, 0.25, 103, 2.721377, 302, 18},
      {15, 60, 0.25, 106, 7.214682, 711, 36},
      {20, 100, 0.20, 111, 7.833386, 7947, 14},
      {20, 2000, 0.15, 111, 3.010318, 84897, 214},
      {14, 80, 0.25, 300, 0, 0, 0},
      {14, 80, 0.25, 301, 0, 0, 0},
      {14, 80, 0.25, 302, 0, 0, 0},
      {14, 80, 0.25, 303, 0, 0, 0},
      {14, 80, 0.25, 304, 0, 0, 0},
      {14, 80, 0.25, 305, 0, 0, 0},
  };
  for (const auto& c : kCorpus) {
    const CoverProblem p = corpus_problem(c.rows, c.cols, c.density, c.seed);
    const CoverSolution reference = ucp::solve_exact(p, {});
    ASSERT_TRUE(reference.optimal);
    if (c.cost > 0) {
      EXPECT_NEAR(reference.cost, c.cost, 1e-6) << c.rows << "x" << c.cols;
    }
    for (const ucp::CoverSolver* solver : ucp::registered_cover_solvers()) {
      if (!solver->applicable(p)) continue;
      const CoverSolution s =
          ucp::solve_exact(p, backend_options(std::string(solver->name())));
      EXPECT_TRUE(s.optimal) << solver->name();
      EXPECT_NEAR(s.cost, reference.cost, 1e-9)
          << solver->name() << " on " << c.rows << "x" << c.cols;
      EXPECT_DOUBLE_EQ(s.lower_bound, s.cost) << solver->name();
      EXPECT_TRUE(p.covers_all(s.chosen)) << solver->name();
      EXPECT_EQ(s.backend, solver->name());
      const std::size_t max_nodes =
          solver->name() == "dense_dp" ? c.dense_dp_nodes : c.bnb_v2_nodes;
      if (max_nodes > 0) {
        EXPECT_LE(s.nodes_explored, max_nodes)
            << solver->name() << " on " << c.rows << "x" << c.cols;
      }
    }
  }
}

// Naming the backend the default dispatch picks is byte-identical to naming
// none: dense_dp up to kDefaultDenseDpRows rows, bnb_v2 above.
TEST(CoverSolverMatrix, BackendSelectionIsByteIdenticalToLegacyDispatch) {
  const struct {
    int rows, cols;
    double density;
    unsigned seed;
    const char* picked;
  } kCases[] = {
      {15, 60, 0.25, 106, "dense_dp"},
      {20, 100, 0.20, 111, "dense_dp"},
      {21, 100, 0.20, 111, "bnb_v2"},
      {30, 120, 0.15, 131, "bnb_v2"},
  };
  for (const auto& c : kCases) {
    const CoverProblem p = corpus_problem(c.rows, c.cols, c.density, c.seed);
    const CoverSolution automatic = ucp::solve_exact(p, {});
    const CoverSolution named = ucp::solve_exact(p, backend_options(c.picked));
    EXPECT_EQ(automatic.backend, c.picked) << c.rows << "x" << c.cols;
    EXPECT_EQ(named.chosen, automatic.chosen);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(named.cost),
              std::bit_cast<std::uint64_t>(automatic.cost));
    EXPECT_EQ(named.nodes_explored, automatic.nodes_explored);
  }
}

// Above the cutoff the default runs depth-first B&B, and "bnb_v2" names that
// same tree: both reproduce the pinned cover, cost bits and node count.
TEST(CoverSolverMatrix, DefaultAboveCutoffIsBnbV2) {
  const CoverProblem p = corpus_problem(22, 150, 0.2, 320);
  const std::vector<std::size_t> kChosen = {0, 13, 27, 82, 134, 141};
  for (const BnbOptions& options : {BnbOptions{}, backend_options("bnb_v2")}) {
    const CoverSolution s = ucp::solve_exact(p, options);
    EXPECT_TRUE(s.optimal);
    EXPECT_EQ(s.backend, "bnb_v2");
    EXPECT_EQ(s.chosen, kChosen);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(s.cost), 0x40207d0a1f8963d1u);
    EXPECT_EQ(s.nodes_explored, 30u);
  }
}

// The dense DP evaluates at most 2^(R-1) states, so the default node budget
// (10M) admits its full 24 rows (2^23 states). Checking the budget against
// 2^R instead refused every 24-row cover and handed back the greedy seed.
TEST(CoverSolverMatrix, DenseDpSolves24RowsWithinDefaultBudget) {
  const CoverProblem p = corpus_problem(24, 60, 0.15, 241);
  const CoverSolution bnb = ucp::solve_exact(p, backend_options("bnb_v2"));
  ASSERT_TRUE(bnb.optimal);
  const CoverSolution dp = ucp::solve_exact(p, backend_options("dense_dp"));
  EXPECT_TRUE(dp.optimal);
  EXPECT_EQ(dp.stop, CoverStop::kCompleted);
  EXPECT_GT(dp.nodes_explored, 0u);
  EXPECT_TRUE(p.covers_all(dp.chosen));
  EXPECT_DOUBLE_EQ(dp.cost, bnb.cost);
}

// The CoverStop contract across every backend: the same budget produces the
// same stop reason, a feasible incumbent, and an honest lower bound.
TEST(CoverStopContract, DeadlineStopsEveryBackend) {
  const CoverProblem p = corpus_problem(15, 60, 0.25, 106);
  const double optimum = ucp::solve_exact(p, {}).cost;
  for (const std::string& name : ucp::registered_cover_solver_names()) {
    BnbOptions o = backend_options(name);
    o.deadline = support::Deadline::expire_after_checks(0);
    const CoverSolution s = ucp::solve_exact(p, o);
    EXPECT_FALSE(s.optimal) << name;
    EXPECT_EQ(s.stop, CoverStop::kDeadline) << name;
    EXPECT_TRUE(s.deadline_expired) << name;
    EXPECT_TRUE(p.covers_all(s.chosen)) << name;  // incumbent survives
    EXPECT_GT(s.lower_bound, 0.0) << name;
    EXPECT_LE(s.lower_bound, optimum + 1e-9) << name;
  }
}

TEST(CoverStopContract, NodeBudgetStopsEveryBackend) {
  const CoverProblem p = corpus_problem(15, 60, 0.25, 106);
  const double optimum = ucp::solve_exact(p, {}).cost;
  for (const std::string& name : ucp::registered_cover_solver_names()) {
    BnbOptions o = backend_options(name);
    o.max_nodes = 1;
    const CoverSolution s = ucp::solve_exact(p, o);
    EXPECT_FALSE(s.optimal) << name;
    EXPECT_EQ(s.stop, CoverStop::kNodeBudget) << name;
    EXPECT_FALSE(s.deadline_expired) << name;
    EXPECT_TRUE(p.covers_all(s.chosen)) << name;
    EXPECT_GE(s.lower_bound, 0.0) << name;
    EXPECT_LE(s.lower_bound, optimum + 1e-9) << name;
  }
}

TEST(CoverStopContract, InjectedFaultAbortsEveryBackend) {
  const CoverProblem p = corpus_problem(15, 60, 0.25, 106);
  for (const std::string& name : ucp::registered_cover_solver_names()) {
    auto plan = support::FaultPlan::parse("ucp.frontier@1");
    ASSERT_TRUE(plan.ok());
    support::FaultInjector injector(*plan);
    BnbOptions o = backend_options(name);
    o.fault_injector = &injector;
    const CoverSolution s = ucp::solve_exact(p, o);
    EXPECT_FALSE(s.optimal) << name;
    EXPECT_EQ(s.stop, CoverStop::kAborted) << name;
  }
}

}  // namespace
