#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cover_corpus.hpp"
#include "support/deadline.hpp"
#include "support/fault.hpp"
#include "ucp/bnb.hpp"
#include "ucp/dp.hpp"
#include "ucp/greedy.hpp"

namespace cdcs::ucp {
namespace {

TEST(Bitset, BasicOps) {
  Bitset b(130);
  EXPECT_TRUE(b.none());
  b.set(0);
  b.set(64);
  b.set(129);
  EXPECT_EQ(b.count(), 3u);
  EXPECT_TRUE(b.test(64));
  EXPECT_FALSE(b.test(63));
  b.reset(64);
  EXPECT_EQ(b.count(), 2u);
  EXPECT_EQ(b.first(), 0u);

  Bitset c(130);
  c.set(0);
  EXPECT_TRUE(c.is_subset_of(b));
  EXPECT_FALSE(b.is_subset_of(c));
  EXPECT_TRUE(b.intersects(c));
  EXPECT_EQ(b.intersection_count(c), 1u);

  b.subtract(c);
  EXPECT_FALSE(b.test(0));
  EXPECT_TRUE(b.test(129));

  std::vector<std::size_t> seen;
  b.for_each([&](std::size_t i) { seen.push_back(i); });
  EXPECT_EQ(seen, (std::vector<std::size_t>{129}));
}

TEST(Bitset, WordParallelOps) {
  // The ops added for the branch-and-bound rewrite: each must agree with
  // the obvious per-bit definition, including across word boundaries.
  Bitset a(130);
  a.set(1);
  a.set(63);
  a.set(64);
  a.set(129);
  Bitset b(130);
  b.set(63);
  b.set(64);
  b.set(100);

  EXPECT_EQ(a.intersection_count_capped(b, 1), 1u);  // stops at the cap
  EXPECT_EQ(a.intersection_count_capped(b, 8), 2u);

  Bitset mask(130);
  mask.set(63);
  EXPECT_TRUE(a.intersects_masked(b, mask));  // a & b & mask has bit 63
  mask.reset(63);
  mask.set(1);
  EXPECT_FALSE(a.intersects_masked(b, mask));  // b lacks bit 1

  // (a & mask) subset of b: mask={1} selects only bit 1, absent from b.
  EXPECT_FALSE(a.and_is_subset_of(mask, b));
  Bitset mask2(130);
  mask2.set(63);
  mask2.set(64);
  EXPECT_TRUE(a.and_is_subset_of(mask2, b));

  Bitset u(130);
  u.set(2);
  u.unite_and(a, b);  // u |= a & b = {63, 64}
  EXPECT_TRUE(u.test(2));
  EXPECT_TRUE(u.test(63));
  EXPECT_TRUE(u.test(64));
  EXPECT_EQ(u.count(), 3u);

  EXPECT_EQ(a.first_and(b), 63u);
  EXPECT_EQ(a.first_and(Bitset(130)), a.size());  // empty intersection

  std::vector<std::size_t> seen;
  a.for_each_and(b, [&](std::size_t i) { seen.push_back(i); });
  EXPECT_EQ(seen, (std::vector<std::size_t>{63, 64}));

  seen.clear();
  const bool stopped = a.for_each_until([&](std::size_t i) {
    seen.push_back(i);
    return i >= 64;  // stop once past the first word
  });
  EXPECT_TRUE(stopped);
  EXPECT_EQ(seen, (std::vector<std::size_t>{1, 63, 64}));

  Bitset full(130);
  full.set_all();
  EXPECT_EQ(full.count(), 130u);  // tail word must stay masked
  EXPECT_FALSE(full.test(130));
}

TEST(CoverProblem, RowCoverTransposeTracksMutation) {
  CoverProblem p(3);
  p.add_column({0, 1}, 1.0);
  p.add_column({1, 2}, 1.0);
  EXPECT_TRUE(p.row_cover(1).test(0));
  EXPECT_TRUE(p.row_cover(1).test(1));
  EXPECT_FALSE(p.row_cover(0).test(1));

  // Adding a column must invalidate the cached transpose.
  p.add_column({0, 2}, 1.0);
  EXPECT_TRUE(p.row_cover(0).test(2));
  EXPECT_EQ(p.row_cover(2).count(), 2u);
}

CoverProblem tiny_problem() {
  // rows {0,1,2}; columns: A={0,1} w=3, B={1,2} w=3, C={0,1,2} w=5, D={2} w=1.
  CoverProblem p(3);
  p.add_column({0, 1}, 3.0);
  p.add_column({1, 2}, 3.0);
  p.add_column({0, 1, 2}, 5.0);
  p.add_column({2}, 1.0);
  return p;
}

TEST(CoverProblem, Construction) {
  const CoverProblem p = tiny_problem();
  EXPECT_EQ(p.num_rows(), 3u);
  EXPECT_EQ(p.num_columns(), 4u);
  EXPECT_TRUE(p.feasible());
  EXPECT_TRUE(p.covers_all({2}));
  EXPECT_FALSE(p.covers_all({0}));
  EXPECT_DOUBLE_EQ(p.cost_of({0, 3}), 4.0);
}

TEST(CoverProblem, RejectsBadColumns) {
  CoverProblem p(3);
  EXPECT_THROW(p.add_column({0}, -1.0), std::invalid_argument);
  EXPECT_THROW(p.add_column({7}, 1.0), std::out_of_range);
  EXPECT_THROW(p.add_column({}, 1.0), std::invalid_argument);
}

TEST(Exact, SolvesTinyProblem) {
  const CoverSolution s = solve_exact(tiny_problem());
  // Optimum: A {0,1} + D {2} = 4.
  EXPECT_TRUE(s.optimal);
  EXPECT_DOUBLE_EQ(s.cost, 4.0);
  EXPECT_EQ(s.chosen, (std::vector<std::size_t>{0, 3}));
}

TEST(Exact, EssentialColumnIsForced) {
  CoverProblem p(2);
  p.add_column({0}, 10.0);  // only column covering row 0
  p.add_column({1}, 1.0);
  p.add_column({1}, 2.0);
  const CoverSolution s = solve_exact(p);
  EXPECT_DOUBLE_EQ(s.cost, 11.0);
}

TEST(Exact, InfeasibleReported) {
  CoverProblem p(2);
  p.add_column({0}, 1.0);  // row 1 uncoverable
  const CoverSolution s = solve_exact(p);
  EXPECT_TRUE(s.chosen.empty());
  EXPECT_FALSE(s.optimal);
  EXPECT_TRUE(std::isinf(s.cost));
}

TEST(Exact, EmptyProblemIsTrivial) {
  CoverProblem p(0);
  const CoverSolution s = solve_exact(p);
  EXPECT_TRUE(s.optimal);
  EXPECT_DOUBLE_EQ(s.cost, 0.0);
  EXPECT_TRUE(s.chosen.empty());
}

TEST(Greedy, CanBeSuboptimal) {
  // Classic greedy trap: the big column's ratio (0.9) beats the optimum's
  // blocks (1.0 each), but taking it strands row 3 with an expensive
  // singleton: greedy = 2.7 + 1.5 = 4.2 > optimum 4.0.
  CoverProblem p(4);
  p.add_column({0, 1, 2}, 2.7);  // ratio 0.9 -- greedy picks this
  p.add_column({0, 1}, 2.0);     // optimum: {0,1} + {2,3} = 4.0
  p.add_column({2, 3}, 2.0);
  p.add_column({3}, 1.5);
  const CoverSolution g = solve_greedy(p);
  const CoverSolution e = solve_exact(p);
  EXPECT_TRUE(e.optimal);
  EXPECT_DOUBLE_EQ(e.cost, 4.0);
  EXPECT_GT(g.cost, e.cost);
  EXPECT_TRUE(p.covers_all(g.chosen));
}

TEST(Greedy, InfeasibleGivesInfiniteCost) {
  CoverProblem p(2);
  p.add_column({0}, 1.0);
  EXPECT_TRUE(std::isinf(solve_greedy(p).cost));
}

/// Brute-force oracle: tries all 2^columns subsets.
double brute_force_optimum(const CoverProblem& p) {
  const std::size_t n = p.num_columns();
  double best = std::numeric_limits<double>::infinity();
  for (std::size_t mask = 0; mask < (std::size_t{1} << n); ++mask) {
    std::vector<std::size_t> chosen;
    for (std::size_t j = 0; j < n; ++j) {
      if (mask & (std::size_t{1} << j)) chosen.push_back(j);
    }
    if (p.covers_all(chosen)) best = std::min(best, p.cost_of(chosen));
  }
  return best;
}

class ExactVsBruteForce : public ::testing::TestWithParam<int> {};

TEST_P(ExactVsBruteForce, RandomMatrices) {
  std::mt19937 rng(GetParam() * 1000 + 17);
  std::uniform_int_distribution<int> rows_dist(3, 9);
  std::uniform_real_distribution<double> w(0.5, 10.0);
  std::uniform_real_distribution<double> density(0.0, 1.0);

  const int rows = rows_dist(rng);
  const int cols = std::uniform_int_distribution<int>(rows, 14)(rng);
  CoverProblem p(rows);
  int added = 0;
  for (int j = 0; j < cols; ++j) {
    std::vector<std::size_t> covered;
    for (int r = 0; r < rows; ++r) {
      if (density(rng) < 0.4) covered.push_back(r);
    }
    if (covered.empty()) covered.push_back(j % rows);
    p.add_column(covered, w(rng));
    ++added;
  }
  // Ensure feasibility with per-row singletons.
  for (int r = 0; r < rows; ++r) p.add_column({static_cast<std::size_t>(r)}, 8.0);

  const double oracle = brute_force_optimum(p);

  // Default dispatch (dense DP for these row counts).
  const CoverSolution s = solve_exact(p);
  EXPECT_TRUE(s.optimal);
  EXPECT_TRUE(p.covers_all(s.chosen));
  EXPECT_NEAR(s.cost, oracle, 1e-9);
  EXPECT_NEAR(p.cost_of(s.chosen), s.cost, 1e-9);

  // Named branch-and-bound must agree.
  BnbOptions branch_only;
  branch_only.backend = "bnb_v2";
  const CoverSolution b = solve_exact(p, branch_only);
  EXPECT_TRUE(b.optimal);
  EXPECT_TRUE(p.covers_all(b.chosen));
  EXPECT_NEAR(b.cost, oracle, 1e-9);

  // The DP entry point directly.
  const CoverSolution d = solve_dp(p);
  EXPECT_TRUE(d.optimal);
  EXPECT_NEAR(d.cost, oracle, 1e-9);

  const CoverSolution g = solve_greedy(p);
  EXPECT_GE(g.cost, s.cost - 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExactVsBruteForce, ::testing::Range(0, 12));

TEST(DenseDp, EdgeCases) {
  // Zero rows: trivially optimal and empty.
  const CoverSolution empty = solve_dp(CoverProblem(0));
  EXPECT_TRUE(empty.optimal);
  EXPECT_DOUBLE_EQ(empty.cost, 0.0);

  // Infeasible: row 1 uncoverable.
  CoverProblem p(2);
  p.add_column({0}, 1.0);
  const CoverSolution inf = solve_dp(p);
  EXPECT_FALSE(inf.optimal);
  EXPECT_TRUE(std::isinf(inf.cost));

  // Row-count guard.
  EXPECT_THROW(solve_dp(CoverProblem(kDenseDpMaxRows + 1)),
               std::invalid_argument);

  // A column may cover rows redundantly with another; dedup must keep the
  // cheaper and still find the optimum.
  CoverProblem q(2);
  q.add_column({0, 1}, 5.0);
  q.add_column({0, 1}, 3.0);  // same mask, cheaper
  const CoverSolution s = solve_dp(q);
  EXPECT_DOUBLE_EQ(s.cost, 3.0);
  EXPECT_EQ(s.chosen, (std::vector<std::size_t>{1}));
}

// The dense DP drops a column whose row mask repeats a cheaper one. Adding
// such columns to a matrix must change nothing: same cost bits, same chosen
// columns (the originals, which sort first), same state count. With
// equal-weight duplicates either copy may be chosen, so only the cost and
// the chosen masks are compared.
TEST(DenseDp, DuplicateMaskColumnsChangeNothing) {
  for (const std::size_t rows : {4u, 9u, 14u}) {
    for (std::uint32_t seed = 0; seed < 6; ++seed) {
      std::mt19937 rng(seed * 131 + static_cast<std::uint32_t>(rows));
      std::uniform_real_distribution<double> weight(1.0, 9.0);
      std::uniform_real_distribution<double> unit(0.0, 1.0);
      CoverProblem p(rows);
      for (int j = 0; j < 40; ++j) {
        std::vector<std::size_t> covered;
        for (std::size_t r = 0; r < rows; ++r) {
          if (unit(rng) < 0.3) covered.push_back(r);
        }
        if (covered.empty()) covered.push_back(j % rows);
        p.add_column(covered, weight(rng));
      }
      for (std::size_t r = 0; r < rows; ++r) {
        p.add_column({r}, 9.0 + 0.01 * static_cast<double>(r));
      }

      CoverProblem heavier = p;  // duplicates at strictly higher weight
      CoverProblem equal = p;    // duplicates at the same weight
      for (std::size_t j = 0; j < p.num_columns(); j += 2) {
        std::vector<std::size_t> covered;
        p.column(j).rows.for_each([&](std::size_t r) { covered.push_back(r); });
        heavier.add_column(covered, p.column(j).weight * (1.0 + unit(rng)));
        equal.add_column(covered, p.column(j).weight);
      }

      const CoverSolution base = solve_dp(p);
      ASSERT_TRUE(base.optimal);
      const CoverSolution h = solve_dp(heavier);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(h.cost),
                std::bit_cast<std::uint64_t>(base.cost));
      EXPECT_EQ(h.chosen, base.chosen);
      EXPECT_EQ(h.nodes_explored, base.nodes_explored);

      const CoverSolution e = solve_dp(equal);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(e.cost),
                std::bit_cast<std::uint64_t>(base.cost));
      auto masks = [](const CoverProblem& q, const CoverSolution& s) {
        std::vector<std::vector<std::size_t>> out;
        for (std::size_t j : s.chosen) {
          std::vector<std::size_t> covered;
          q.column(j).rows.for_each(
              [&](std::size_t r) { covered.push_back(r); });
          out.push_back(covered);
        }
        std::sort(out.begin(), out.end());
        return out;
      };
      EXPECT_EQ(masks(equal, e), masks(p, base));
    }
  }
}

// The dense DP as a full bottom-up sweep of all 2^R row masks, over the
// same flat cheapest-first rows and duplicate-mask dedupe, with no
// unprofitable-column reduction. It is the reference the reachable-state
// evaluation must reproduce bit for bit.
CoverSolution bottom_up_dp_reference(const CoverProblem& problem,
                                     const support::Deadline& deadline = {}) {
  const std::size_t rows = problem.num_rows();
  CoverSolution sol;
  if (rows == 0) {
    sol.optimal = true;
    return sol;
  }
  const std::size_t num_cols = problem.num_columns();
  std::vector<std::uint32_t> col_mask(num_cols, 0);
  for (std::size_t j = 0; j < num_cols; ++j) {
    problem.column(j).rows.for_each([&](std::size_t r) {
      col_mask[j] |= (std::uint32_t{1} << r);
    });
  }
  struct Entry {
    double weight;
    std::uint32_t mask;
    std::uint32_t column;
  };
  std::vector<Entry> entries;
  std::vector<std::size_t> row_begin(rows + 1, 0);
  {
    std::vector<std::uint32_t> order(num_cols);
    for (std::size_t j = 0; j < num_cols; ++j) order[j] = j;
    std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
      return problem.column(a).weight < problem.column(b).weight;
    });
    std::vector<bool> seen_mask(std::size_t{1} << rows, false);
    std::vector<std::uint32_t> kept;
    kept.reserve(num_cols);
    for (std::uint32_t j : order) {
      if (seen_mask[col_mask[j]]) continue;
      seen_mask[col_mask[j]] = true;
      kept.push_back(j);
    }
    for (std::uint32_t j : kept) {
      for (std::uint32_t m = col_mask[j]; m != 0; m &= m - 1) {
        ++row_begin[static_cast<std::size_t>(std::countr_zero(m)) + 1];
      }
    }
    for (std::size_t r = 0; r < rows; ++r) row_begin[r + 1] += row_begin[r];
    entries.resize(row_begin[rows]);
    std::vector<std::size_t> fill(row_begin.begin(), row_begin.end() - 1);
    for (std::uint32_t j : kept) {
      const Entry e{problem.column(j).weight, col_mask[j], j};
      for (std::uint32_t m = col_mask[j]; m != 0; m &= m - 1) {
        entries[fill[static_cast<std::size_t>(std::countr_zero(m))]++] = e;
      }
    }
  }

  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::size_t full = (std::size_t{1} << rows) - 1;
  std::vector<double> dp(full + 1, kInf);
  std::vector<std::uint32_t> choice(full + 1, UINT32_MAX);
  dp[0] = 0.0;

  for (std::size_t m = 1; m <= full; ++m) {
    if ((m & 0xFFF) == 0 && deadline.expired()) {
      sol.cost = kInf;
      sol.nodes_explored = m;
      sol.stop = CoverStop::kDeadline;
      return sol;
    }
    const std::size_t r = std::countr_zero(m);
    double best = kInf;
    std::uint32_t best_col = UINT32_MAX;
    const Entry* const end = entries.data() + row_begin[r + 1];
    for (const Entry* e = entries.data() + row_begin[r]; e != end; ++e) {
      if (e->weight >= best) break;
      const double rest = dp[m & ~static_cast<std::size_t>(e->mask)];
      if (rest + e->weight < best) {
        best = rest + e->weight;
        best_col = e->column;
      }
    }
    dp[m] = best;
    choice[m] = best_col;
  }

  sol.nodes_explored = full + 1;
  if (!std::isfinite(dp[full])) {
    sol.cost = kInf;
    return sol;
  }
  sol.cost = dp[full];
  sol.optimal = true;
  std::size_t m = full;
  while (m != 0) {
    const std::uint32_t j = choice[m];
    sol.chosen.push_back(j);
    m &= ~static_cast<std::size_t>(col_mask[j]);
  }
  std::sort(sol.chosen.begin(), sol.chosen.end());
  return sol;
}

std::vector<std::size_t> rows_of(const CoverProblem& p, std::size_t j) {
  std::vector<std::size_t> covered;
  p.column(j).rows.for_each([&](std::size_t r) { covered.push_back(r); });
  return covered;
}

/// A seeded cover matrix in one of several shapes: k <= 4 merges like the
/// pipeline's clusters or denser columns; integer weights (many equal-weight
/// ties across different masks) or real ones; some rows without a singleton;
/// repeated masks at equal and at higher weight; and, for some seeds, a row
/// no column covers.
CoverProblem random_dp_matrix(std::size_t rows, std::uint32_t seed) {
  std::mt19937 rng(seed * 7919 + static_cast<std::uint32_t>(rows));
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  const bool k_bounded = seed % 3 != 0;
  const bool integer_weights = seed % 2 == 0;
  const bool infeasible = rows > 1 && seed % 7 == 3;
  const std::size_t usable = infeasible ? rows - 1 : rows;
  auto weight = [&](std::size_t size) {
    if (integer_weights) {
      return static_cast<double>(1 + rng() % (3 * size + 2));
    }
    return static_cast<double>(size) * (0.4 + unit(rng));
  };
  CoverProblem p(rows);
  const std::size_t cols = 2 * rows + rng() % (4 * rows + 1);
  for (std::size_t j = 0; j < cols; ++j) {
    std::vector<std::size_t> covered;
    if (k_bounded) {
      const std::size_t k = 2 + rng() % 3;
      for (std::size_t i = 0; i < k; ++i) covered.push_back(rng() % usable);
      std::sort(covered.begin(), covered.end());
      covered.erase(std::unique(covered.begin(), covered.end()), covered.end());
    } else {
      for (std::size_t r = 0; r < usable; ++r) {
        if (unit(rng) < 0.35) covered.push_back(r);
      }
      if (covered.empty()) covered.push_back(j % usable);
    }
    p.add_column(covered, weight(covered.size()));
  }
  for (std::size_t r = 0; r < usable; ++r) {
    if (unit(rng) < 0.8) p.add_column({r}, weight(1));
  }
  const std::size_t originals = p.num_columns();
  for (std::size_t j = 0; j < originals; j += 5) {
    const double w = p.column(j).weight;
    p.add_column(rows_of(p, j), j % 2 == 0 ? w : w + 1.0);
  }
  return p;
}

void expect_same_solution(const CoverSolution& got, const CoverSolution& ref,
                          const std::string& what) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.cost),
            std::bit_cast<std::uint64_t>(ref.cost))
      << what << ": " << got.cost << " vs " << ref.cost;
  EXPECT_EQ(got.chosen, ref.chosen) << what;
  EXPECT_EQ(got.optimal, ref.optimal) << what;
  EXPECT_EQ(got.stop, ref.stop) << what;
}

// The reachable-state DP returns the bottom-up table's cost bits, chosen
// columns and feasibility on every shape, and evaluates at most
// 2^(R-1) + 1 states.
TEST(DenseDp, ReachableStatesMatchBottomUpReference) {
  std::vector<std::pair<std::size_t, std::uint32_t>> cases;
  for (std::size_t rows = 1; rows <= 20; ++rows) {
    for (std::uint32_t seed = 0; seed < 7; ++seed) cases.emplace_back(rows, seed);
  }
  cases.emplace_back(22, 1);
  cases.emplace_back(24, 2);
  std::size_t feasible = 0;
  std::size_t infeasible = 0;
  for (const auto& [rows, seed] : cases) {
    const CoverProblem p = random_dp_matrix(rows, seed);
    const std::string what =
        std::to_string(rows) + " rows, seed " + std::to_string(seed);
    const CoverSolution ref = bottom_up_dp_reference(p);
    const CoverSolution got = solve_dp(p);
    expect_same_solution(got, ref, what);
    EXPECT_LE(got.nodes_explored, (std::size_t{1} << (rows - 1)) + 1) << what;
    ++(got.optimal ? feasible : infeasible);
  }
  EXPECT_GT(feasible, 100u);
  EXPECT_GT(infeasible, 10u);
}

// A column strictly costlier than its rows' cheapest singletons can never
// win a state: appending such columns changes no output bit, and the
// reduction drops them before they spawn a single state.
TEST(DenseDp, UnprofitableColumnsChangeNothing) {
  for (const std::size_t rows : {3u, 8u, 13u, 18u}) {
    for (std::uint32_t seed = 0; seed < 6; ++seed) {
      CoverProblem p = random_dp_matrix(rows, seed);
      std::vector<double> singleton(rows, std::numeric_limits<double>::infinity());
      for (std::size_t j = 0; j < p.num_columns(); ++j) {
        const std::vector<std::size_t> covered = rows_of(p, j);
        if (covered.size() == 1) {
          singleton[covered[0]] = std::min(singleton[covered[0]], p.column(j).weight);
        }
      }
      for (std::size_t r = 0; r < rows; ++r) {
        if (std::isinf(singleton[r])) {
          singleton[r] = 10.0 + static_cast<double>(r);
          p.add_column({r}, singleton[r]);
        }
      }
      const CoverSolution base = solve_dp(p);

      std::mt19937 rng(seed + 17);
      std::uniform_real_distribution<double> unit(0.0, 1.0);
      CoverProblem padded = p;
      for (int extra = 0; extra < 3 * static_cast<int>(rows); ++extra) {
        std::vector<std::size_t> covered;
        for (std::size_t r = 0; r < rows; ++r) {
          if (unit(rng) < 0.3) covered.push_back(r);
        }
        if (covered.size() < 2) continue;
        double sigma = 0.0;
        for (std::size_t r : covered) sigma += singleton[r];
        padded.add_column(covered, sigma * (1.0 + 1e-6 + unit(rng)));
      }
      const std::string what =
          std::to_string(rows) + " rows, seed " + std::to_string(seed);
      const CoverSolution got = solve_dp(padded);
      expect_same_solution(got, bottom_up_dp_reference(padded), what);
      // Against the unpadded matrix: the same optimum. With real weights
      // (odd seeds) there are no equal-weight ties between masks, so the
      // same masks are chosen and the same states evaluated; integer
      // weights tie, and the unstable cheapest-first sort of a longer
      // column list may break a tie the other way.
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got.cost),
                std::bit_cast<std::uint64_t>(base.cost))
          << what;
      if (seed % 2 == 1) {
        auto masks = [](const CoverProblem& q, const CoverSolution& s) {
          std::vector<std::vector<std::size_t>> out;
          for (std::size_t j : s.chosen) out.push_back(rows_of(q, j));
          std::sort(out.begin(), out.end());
          return out;
        };
        EXPECT_EQ(masks(padded, got), masks(p, base)) << what;
        EXPECT_EQ(got.nodes_explored, base.nodes_explored) << what;
      }
    }
  }
}

// The reduction needs a singleton on every row of the column: here row 1
// has none, so the merged column is the only way to cover it.
TEST(DenseDp, ReductionSkipsRowsWithoutSingletons) {
  CoverProblem p(3);
  p.add_column({0}, 1.0);
  p.add_column({2}, 1.0);
  p.add_column({0, 1}, 100.0);
  p.add_column({0, 2}, 50.0);  // unprofitable: singletons cost 2
  const CoverSolution s = solve_dp(p);
  EXPECT_TRUE(s.optimal);
  EXPECT_DOUBLE_EQ(s.cost, 101.0);
  EXPECT_EQ(s.chosen, (std::vector<std::size_t>{1, 2}));
  expect_same_solution(s, bottom_up_dp_reference(p), "no singleton");
}

// Only the states the lowest-row recursion reaches are evaluated: on every
// k <= 4 merge of 20 rows at profitable weights, about 13% of the 2^20
// masks.
TEST(DenseDp, DenseKBoundedMatrixReachesFewStates) {
  constexpr std::size_t kRows = 20;
  CoverProblem p(kRows);
  std::mt19937 rng(5);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  for (std::uint32_t mask = 1; mask < (1u << kRows); ++mask) {
    const int k = std::popcount(mask);
    if (k > 4) continue;
    std::vector<std::size_t> covered;
    for (std::size_t r = 0; r < kRows; ++r) {
      if (mask & (1u << r)) covered.push_back(r);
    }
    p.add_column(covered, static_cast<double>(k) * (0.7 + 0.3 * unit(rng)));
  }
  const CoverSolution s = solve_dp(p);
  ASSERT_TRUE(s.optimal);
  EXPECT_LT(s.nodes_explored, (std::size_t{1} << kRows) / 7);
  expect_same_solution(s, bottom_up_dp_reference(p), "dense k<=4");
}

// The dense DP as it stood before the per-row projection and the gathered
// scan: the memoised top-down recursion over the cheapest-first row lists,
// shortened only by the duplicate-mask and unprofitable-column reductions.
// The reduced scans must reproduce it bit for bit and state for state.
CoverSolution top_down_dp_reference(const CoverProblem& problem,
                                    const support::Deadline& deadline = {}) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::size_t rows = problem.num_rows();
  const std::size_t num_cols = problem.num_columns();
  std::vector<std::uint32_t> col_mask(num_cols, 0);
  for (std::size_t j = 0; j < num_cols; ++j) {
    for (std::size_t r : rows_of(problem, j)) col_mask[j] |= 1u << r;
  }
  std::vector<std::uint32_t> order(num_cols);
  for (std::size_t j = 0; j < num_cols; ++j) order[j] = j;
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    return problem.column(a).weight < problem.column(b).weight;
  });

  // The unprofitable-column rule: a merged column costlier than its rows'
  // cheapest singletons by more than 1e-9 * (sigma + U).
  std::vector<bool> drop(num_cols, false);
  {
    std::vector<double> singleton(rows, kInf);
    std::vector<double> cheapest(rows, kInf);
    for (std::size_t j = 0; j < num_cols; ++j) {
      const double w = problem.column(j).weight;
      for (std::size_t r : rows_of(problem, j)) {
        cheapest[r] = std::min(cheapest[r], w);
      }
      if (std::has_single_bit(col_mask[j])) {
        const auto r = static_cast<std::size_t>(std::countr_zero(col_mask[j]));
        singleton[r] = std::min(singleton[r], w);
      }
    }
    double bound = 0.0;
    for (std::size_t r = 0; r < rows; ++r) bound += cheapest[r];
    for (std::size_t j = 0; std::isfinite(bound) && j < num_cols; ++j) {
      if (std::has_single_bit(col_mask[j])) continue;
      double sigma = 0.0;
      for (std::size_t r : rows_of(problem, j)) sigma += singleton[r];
      drop[j] = problem.column(j).weight > sigma + 1e-9 * (sigma + bound);
    }
  }

  struct Entry {
    double weight;
    std::uint32_t mask;
    std::uint32_t column;
  };
  std::vector<std::vector<Entry>> lists(rows);
  std::vector<bool> seen_mask(std::size_t{1} << rows, false);
  for (std::uint32_t j : order) {
    if (drop[j] || seen_mask[col_mask[j]]) continue;
    seen_mask[col_mask[j]] = true;
    for (std::size_t r : rows_of(problem, j)) {
      lists[r].push_back({problem.column(j).weight, col_mask[j], j});
    }
  }

  struct Memo {
    const std::vector<std::vector<Entry>>& lists;
    const support::Deadline& deadline;
    std::vector<double> dp;
    std::vector<std::uint32_t> choice;
    std::size_t evaluated = 1;
    bool expired = false;

    double evaluate(std::size_t m, std::uint32_t& best_col) {
      double best = kInf;
      best_col = UINT32_MAX;
      for (const Entry& e : lists[static_cast<std::size_t>(std::countr_zero(m))]) {
        if (e.weight >= best) break;
        const double rest = value(m & ~static_cast<std::size_t>(e.mask));
        if (expired) return kInf;
        if (rest + e.weight < best) {
          best = rest + e.weight;
          best_col = e.column;
        }
      }
      return best;
    }
    double value(std::size_t m) {
      if (!std::isnan(dp[m >> 1])) return dp[m >> 1];
      if ((++evaluated & 0xFFF) == 0 && deadline.expired()) {
        expired = true;
        return kInf;
      }
      std::uint32_t col = UINT32_MAX;
      const double v = evaluate(m, col);
      if (expired) return kInf;
      dp[m >> 1] = v;
      choice[m >> 1] = col;
      return v;
    }
  };

  CoverSolution sol;
  if (rows == 0) {
    sol.optimal = true;
    return sol;
  }
  const std::size_t half = std::size_t{1} << (rows - 1);
  Memo memo{lists, deadline,
            std::vector<double>(half, std::numeric_limits<double>::quiet_NaN()),
            std::vector<std::uint32_t>(half, UINT32_MAX)};
  memo.dp[0] = 0.0;
  const std::size_t full = (std::size_t{1} << rows) - 1;
  std::uint32_t root = UINT32_MAX;
  const double cost = memo.evaluate(full, root);
  sol.nodes_explored = memo.evaluated;
  if (memo.expired) {
    sol.cost = kInf;
    sol.stop = CoverStop::kDeadline;
    return sol;
  }
  if (!std::isfinite(cost)) {
    sol.cost = kInf;
    return sol;
  }
  sol.cost = cost;
  sol.optimal = true;
  std::size_t m = full;
  for (std::uint32_t j = root;; j = memo.choice[m >> 1]) {
    sol.chosen.push_back(j);
    m &= ~static_cast<std::size_t>(col_mask[j]);
    if (m == 0) break;
  }
  std::sort(sol.chosen.begin(), sol.chosen.end());
  return sol;
}

std::vector<detail::DpScan> supported_scans() {
  std::vector<detail::DpScan> out;
  for (const detail::DpScan scan :
       {detail::DpScan::kPortable, detail::DpScan::kAvx2}) {
    if (detail::dp_scan_supported(scan)) out.push_back(scan);
  }
  return out;
}

std::string scan_name(detail::DpScan scan) {
  return scan == detail::DpScan::kAvx2 ? "avx2" : "portable";
}

/// random_dp_matrix plus, for every third column of two or more rows, a
/// column whose masks agree with it on every row from its second-lowest up:
/// its lowest row dropped, or moved one row down. So row lists hold entries
/// with equal projections, at equal weight, at higher weight and (as the
/// copy sorts first) at lower weight. Odd seeds also zero some weights.
CoverProblem projection_dp_matrix(std::size_t rows, std::uint32_t seed) {
  CoverProblem p = random_dp_matrix(rows, seed);
  const std::size_t originals = p.num_columns();
  for (std::size_t j = 0; j < originals; j += 3) {
    std::vector<std::size_t> covered = rows_of(p, j);
    if (covered.size() < 2) continue;
    const double w = p.column(j).weight;
    const std::size_t kind = (j / 3) % 3;
    const double copy_weight = kind == 0 ? w : kind == 1 ? w + 1.0 : w / 2.0;
    const std::size_t lowest = covered.front();
    covered.erase(covered.begin());
    p.add_column(covered, copy_weight);
    if (lowest > 0) {
      covered.insert(covered.begin(), lowest - 1);
      p.add_column(covered, w);
    }
  }
  if (seed % 2 == 1) {
    CoverProblem zeroed(rows);
    for (std::size_t j = 0; j < p.num_columns(); ++j) {
      zeroed.add_column(rows_of(p, j), j % 11 == 4 ? 0.0 : p.column(j).weight);
    }
    return zeroed;
  }
  return p;
}

// The per-row projection and both scan bodies reproduce the unreduced
// top-down scan on every seeded shape: the same cost bits, chosen columns,
// stop reason and evaluated states.
TEST(DenseDp, ProjectionAndScanBodiesMatchTopDownReference) {
  std::vector<std::pair<std::size_t, std::uint32_t>> cases;
  for (std::size_t rows = 1; rows <= 20; ++rows) {
    for (std::uint32_t seed = 0; seed < 7; ++seed) cases.emplace_back(rows, seed);
  }
  cases.emplace_back(22, 1);
  cases.emplace_back(24, 2);
  ASSERT_EQ(cases.size(), 142u);
  std::size_t projected = 0;
  for (const auto& [rows, seed] : cases) {
    for (const bool with_copies : {false, true}) {
      const CoverProblem p = with_copies ? projection_dp_matrix(rows, seed)
                                         : random_dp_matrix(rows, seed);
      const CoverSolution ref = top_down_dp_reference(p);
      for (const detail::DpScan scan : supported_scans()) {
        const std::string what = std::to_string(rows) + " rows, seed " +
                                 std::to_string(seed) +
                                 (with_copies ? ", copies, " : ", ") +
                                 scan_name(scan);
        const CoverSolution got = detail::solve_dp_with(scan, p);
        expect_same_solution(got, ref, what);
        EXPECT_EQ(got.nodes_explored, ref.nodes_explored) << what;
      }
      projected += with_copies && ref.optimal;
    }
  }
  EXPECT_GT(projected, 100u);
}

// Two columns that differ only below row 2 share row 2's projection: row
// 2's list keeps the cheaper one, and the optimum and its columns are
// those of the unreduced scan, at equal and at higher weight.
TEST(DenseDp, EqualProjectionKeepsTheCheaperColumn) {
  for (const double second : {4.0, 6.0}) {
    CoverProblem p(4);
    p.add_column({0}, 1.0);
    p.add_column({1}, 1.0);
    p.add_column({0, 2, 3}, 4.0);
    p.add_column({1, 2, 3}, second);
    p.add_column({2}, 3.0);
    p.add_column({3}, 3.0);
    const CoverSolution ref = top_down_dp_reference(p);
    ASSERT_TRUE(ref.optimal);
    EXPECT_DOUBLE_EQ(ref.cost, 5.0);
    for (const detail::DpScan scan : supported_scans()) {
      const CoverSolution got = detail::solve_dp_with(scan, p);
      expect_same_solution(got, ref, scan_name(scan));
      EXPECT_EQ(got.nodes_explored, ref.nodes_explored) << scan_name(scan);
    }
  }
}

/// A 20-row matrix whose recursion reaches well over 4096 states, so the
/// deadline and the ucp.frontier fault are polled mid-evaluation.
CoverProblem deep_dp_matrix() {
  constexpr std::size_t kRows = 20;
  CoverProblem p(kRows);
  std::mt19937 rng(23);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  for (int j = 0; j < 600; ++j) {
    std::vector<std::size_t> covered;
    for (std::size_t r = 0; r < kRows; ++r) {
      if (unit(rng) < 0.2) covered.push_back(r);
    }
    if (covered.empty()) covered.push_back(j % kRows);
    p.add_column(covered, static_cast<double>(covered.size()) * (0.5 + unit(rng)));
  }
  for (std::size_t r = 0; r < kRows; ++r) p.add_column({r}, 2.0);
  return p;
}

TEST(DenseDp, DeadlineAndFrontierFaultExits) {
  const CoverProblem p = deep_dp_matrix();
  const CoverSolution full = solve_dp(p);
  ASSERT_TRUE(full.optimal);
  ASSERT_GT(full.nodes_explored, 4096u);

  const CoverSolution ref_expired =
      bottom_up_dp_reference(p, support::Deadline::expire_after_checks(0));
  for (const detail::DpScan scan : supported_scans()) {
    const std::string what = scan_name(scan);
    expect_same_solution(detail::solve_dp_with(scan, p), full, what);
    EXPECT_EQ(detail::solve_dp_with(scan, p).nodes_explored,
              full.nodes_explored)
        << what;

    // The first poll, at the 4096th evaluated state, sees the expiry -- the
    // same state count the bottom-up sweep stops at.
    const CoverSolution expired = detail::solve_dp_with(
        scan, p, support::Deadline::expire_after_checks(0));
    EXPECT_EQ(expired.stop, CoverStop::kDeadline) << what;
    EXPECT_FALSE(expired.optimal) << what;
    EXPECT_TRUE(std::isinf(expired.cost)) << what;
    EXPECT_EQ(expired.nodes_explored, 4096u) << what;
    EXPECT_EQ(ref_expired.stop, expired.stop) << what;
    EXPECT_EQ(ref_expired.nodes_explored, expired.nodes_explored) << what;

    // ucp.frontier on the DP itself: hit 1 is the up-front consultation,
    // hit 2 the first poll.
    for (const int hit : {1, 2}) {
      auto plan =
          support::FaultPlan::parse("ucp.frontier@" + std::to_string(hit));
      ASSERT_TRUE(plan.ok());
      support::FaultInjector injector(*plan);
      const CoverSolution s = detail::solve_dp_with(
          scan, p, {}, std::numeric_limits<std::size_t>::max(), &injector);
      EXPECT_EQ(s.stop, CoverStop::kAborted) << what << hit;
      EXPECT_TRUE(std::isinf(s.cost)) << what << hit;
      EXPECT_EQ(s.nodes_explored, hit == 1 ? 0u : 4096u) << what << hit;
      EXPECT_EQ(injector.total_fires(), 1u) << what << hit;
    }
  }

  // Through the dispatcher, an abandoned DP hands back the seeded fallback
  // with the DP's stop reason. Its own pre-check consumes the first poll.
  BnbOptions late;
  late.deadline = support::Deadline::expire_after_checks(1);
  const CoverSolution fallback = solve_exact(p, late);
  EXPECT_EQ(fallback.backend, "dense_dp");
  EXPECT_EQ(fallback.stop, CoverStop::kDeadline);
  EXPECT_FALSE(fallback.optimal);
  EXPECT_TRUE(p.covers_all(fallback.chosen));
  EXPECT_GE(fallback.cost, full.cost);
  EXPECT_EQ(fallback.nodes_explored, 4096u);

  // ucp.frontier: hit 1 is the up-front consultation, hit 2 the first poll.
  for (const int hit : {1, 2}) {
    auto plan = support::FaultPlan::parse("ucp.frontier@" + std::to_string(hit));
    ASSERT_TRUE(plan.ok());
    support::FaultInjector injector(*plan);
    BnbOptions faulted;
    faulted.fault_injector = &injector;
    const CoverSolution s = solve_exact(p, faulted);
    EXPECT_EQ(s.stop, CoverStop::kAborted) << hit;
    EXPECT_FALSE(s.optimal) << hit;
    EXPECT_TRUE(p.covers_all(s.chosen)) << hit;
    EXPECT_GE(s.cost, full.cost) << hit;
    EXPECT_EQ(s.nodes_explored, hit == 1 ? 0u : 4096u) << hit;
    EXPECT_EQ(injector.total_fires(), 1u) << hit;
  }
}

TEST(Exact, ReductionAblationsAgree) {
  std::mt19937 rng(99);
  std::uniform_real_distribution<double> w(0.5, 10.0);
  std::uniform_real_distribution<double> density(0.0, 1.0);
  CoverProblem p(8);
  for (int j = 0; j < 18; ++j) {
    std::vector<std::size_t> covered;
    for (int r = 0; r < 8; ++r) {
      if (density(rng) < 0.35) covered.push_back(r);
    }
    if (covered.empty()) covered.push_back(j % 8);
    p.add_column(covered, w(rng));
  }
  for (int r = 0; r < 8; ++r) p.add_column({static_cast<std::size_t>(r)}, 9.0);

  BnbOptions all;
  BnbOptions no_dom;
  no_dom.use_row_dominance = false;
  no_dom.use_column_dominance = false;
  BnbOptions no_lb;
  no_lb.use_mis_lower_bound = false;
  const double c1 = solve_exact(p, all).cost;
  const double c2 = solve_exact(p, no_dom).cost;
  const double c3 = solve_exact(p, no_lb).cost;
  EXPECT_NEAR(c1, c2, 1e-9);
  EXPECT_NEAR(c1, c3, 1e-9);
}

TEST(Exact, NodeBudgetReturnsIncumbent) {
  CoverProblem p(6);
  std::mt19937 rng(5);
  std::uniform_real_distribution<double> w(0.5, 10.0);
  for (int j = 0; j < 30; ++j) {
    std::vector<std::size_t> covered;
    for (int r = 0; r < 6; ++r) {
      if ((rng() & 3) == 0) covered.push_back(r);
    }
    if (covered.empty()) covered.push_back(j % 6);
    p.add_column(covered, w(rng));
  }
  for (int r = 0; r < 6; ++r) p.add_column({static_cast<std::size_t>(r)}, 9.0);
  BnbOptions tight;
  tight.max_nodes = 1;
  tight.backend = "bnb_v2";  // the branching path under test
  // With the root Lagrangian bound on, one node can be enough to PROVE the
  // greedy incumbent optimal; disable it so the budget genuinely bites.
  tight.use_lagrangian_bound = false;
  tight.use_reduced_cost_fixing = false;
  const CoverSolution s = solve_exact(p, tight);
  EXPECT_FALSE(s.optimal);           // budget exhausted
  EXPECT_TRUE(p.covers_all(s.chosen));  // but still feasible (greedy incumbent)
}

/// The v1 reference configuration: bnb_v2 with Lagrangian bounds and
/// reduced-cost fixing off. Solver v2 promises this reproduces the legacy
/// search tree node-for-node.
BnbOptions legacy_options() {
  BnbOptions opt;
  opt.backend = "bnb_v2";
  opt.use_lagrangian_bound = false;
  opt.use_reduced_cost_fixing = false;
  return opt;
}

// The bitset rewrite of the branch-and-bound reductions (essential-column
// scan, row/column dominance, MIS bound) must not change the search tree:
// every predicate, visit order, and tie-break is word-parallel but
// semantically identical to the scalar version. These node counts were
// captured from the pre-bitset implementation on the bench_ucp_solver
// corpus; any drift here means the reductions changed behaviour, not just
// speed. Solver v2 keeps this tree reachable behind legacy_options(). The
// corpus's 20x2000 instance has its own test below.
TEST(Exact, SeedCorpusNodeCounts) {
  const BnbOptions force_bnb = legacy_options();

  const struct {
    int rows, cols;
    double density;
    std::size_t expected_nodes;
  } corpus[] = {
      {10, 30, 0.30, 7},
      {12, 200, 0.25, 33},
      {15, 60, 0.25, 98},
      {15, 1000, 0.20, 973},
      {20, 100, 0.20, 123},
  };
  for (const auto& c : corpus) {
    const CoverProblem p =
        corpus_problem(c.rows, c.cols, c.density, 91 + c.rows);
    const CoverSolution s = solve_exact(p, force_bnb);
    EXPECT_TRUE(s.optimal);
    EXPECT_EQ(s.nodes_explored, c.expected_nodes)
        << c.rows << "x" << c.cols << " density " << c.density;
  }

  // The reduction ablation instance from the bench, all three variants.
  const CoverProblem p = corpus_problem(20, 100, 0.2, 111);
  BnbOptions no_dom = force_bnb;
  no_dom.use_row_dominance = false;
  no_dom.use_column_dominance = false;
  BnbOptions no_lb = force_bnb;
  no_lb.use_mis_lower_bound = false;
  EXPECT_EQ(solve_exact(p, force_bnb).nodes_explored, 123u);
  EXPECT_EQ(solve_exact(p, no_dom).nodes_explored, 329u);
  EXPECT_EQ(solve_exact(p, no_lb).nodes_explored, 126u);
}

// Solver v2 contract: both configurations (legacy, v2 with Lagrangian
// bounds + reduced-cost fixing) prove the SAME optimal cover cost on the
// corpus, and the v2 bounds never expand more nodes than the legacy tree.
// The recorded costs and v2 node ceilings are the bench_ucp_solver corpus
// as first measured; v2 may get cheaper, never dearer.
TEST(Exact, SolverV2CostEqualityAndNodeReduction) {
  const struct {
    int rows, cols;
    double density;
    double cost;
    std::size_t max_nodes;
  } corpus[] = {
      {10, 30, 0.30, 5.637716, 4},   {12, 200, 0.25, 2.721377, 18},
      {15, 60, 0.25, 7.214682, 36},  {15, 1000, 0.20, 2.594182, 42},
      {20, 100, 0.20, 7.833386, 14},
  };
  for (const auto& c : corpus) {
    const CoverProblem p =
        corpus_problem(c.rows, c.cols, c.density, 91 + c.rows);

    const CoverSolution legacy = solve_exact(p, legacy_options());

    BnbOptions v2;
    v2.backend = "bnb_v2";
    const CoverSolution dfs = solve_exact(p, v2);

    ASSERT_TRUE(legacy.optimal);
    ASSERT_TRUE(dfs.optimal);
    EXPECT_NEAR(dfs.cost, legacy.cost, 1e-9)
        << c.rows << "x" << c.cols << " density " << c.density;
    EXPECT_NEAR(dfs.cost, c.cost, 1e-6) << c.rows << "x" << c.cols;
    EXPECT_TRUE(p.covers_all(dfs.chosen));
    EXPECT_LE(dfs.nodes_explored, legacy.nodes_explored);
    EXPECT_LE(dfs.nodes_explored, c.max_nodes) << c.rows << "x" << c.cols;
    // Optimal exits report a tight bound.
    EXPECT_NEAR(dfs.lower_bound, dfs.cost, 1e-9);
  }
}

// The corpus's hardest instance, 20x2000 at density 0.15: the legacy tree
// pinned node-for-node, the v2 cost equal to it, and the v2 bounds cutting
// the tree at least tenfold. Kept apart from the two tests above because
// its legacy solve takes seconds.
TEST(Exact, SolverV2CutsLargestCorpusTreeTenfold) {
  const CoverProblem p = corpus_problem(20, 2000, 0.15, 91 + 20);

  const CoverSolution legacy = solve_exact(p, legacy_options());
  ASSERT_TRUE(legacy.optimal);
  EXPECT_EQ(legacy.nodes_explored, 16857u);

  BnbOptions v2;
  v2.backend = "bnb_v2";
  const CoverSolution dfs = solve_exact(p, v2);
  ASSERT_TRUE(dfs.optimal);
  EXPECT_NEAR(dfs.cost, legacy.cost, 1e-9);
  EXPECT_NEAR(dfs.cost, 3.010318, 1e-6);
  EXPECT_TRUE(p.covers_all(dfs.chosen));
  EXPECT_LE(dfs.nodes_explored, 214u);
  EXPECT_LE(dfs.nodes_explored * 10, legacy.nodes_explored);
  EXPECT_NEAR(dfs.lower_bound, dfs.cost, 1e-9);
}

// A warm-start cover seeds the incumbent: with a warm start matching the
// optimum, the search only needs to PROVE optimality, never to find it.
TEST(Exact, WarmStartSeedsIncumbent) {
  const CoverProblem p = corpus_problem(15, 60, 0.25, 91 + 15);
  BnbOptions plain;
  plain.backend = "bnb_v2";
  const CoverSolution base = solve_exact(p, plain);
  ASSERT_TRUE(base.optimal);

  BnbOptions warmed = plain;
  warmed.warm_start = base.chosen;
  const CoverSolution warm = solve_exact(p, warmed);
  EXPECT_TRUE(warm.optimal);
  EXPECT_NEAR(warm.cost, base.cost, 1e-9);
  EXPECT_LE(warm.nodes_explored, base.nodes_explored);

  // An invalid warm start (not a cover / out of range) is ignored, not
  // trusted.
  BnbOptions bogus = plain;
  bogus.warm_start = {p.num_columns() + 5};
  const CoverSolution b = solve_exact(p, bogus);
  EXPECT_TRUE(b.optimal);
  EXPECT_NEAR(b.cost, base.cost, 1e-9);
}

// Two solves of one instance must explore the same tree node-for-node --
// the bit-identity invariant the incremental engine rests on.
TEST(Exact, EmptyWarmMultipliersIsColdTree) {
  const CoverProblem p = corpus_problem(20, 100, 0.2, 111);
  BnbOptions cold;
  cold.backend = "bnb_v2";
  const CoverSolution a = solve_exact(p, cold);
  const CoverSolution b = solve_exact(p, cold);
  EXPECT_EQ(a.nodes_explored, b.nodes_explored);
  EXPECT_EQ(a.chosen, b.chosen);
  EXPECT_EQ(a.cost, b.cost);
}

}  // namespace
}  // namespace cdcs::ucp
