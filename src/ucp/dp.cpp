#include "ucp/dp.hpp"

#include <algorithm>
#include <cmath>
#include <bit>
#include <limits>
#include <stdexcept>
#include <vector>

#include "support/fault.hpp"

namespace cdcs::ucp {

CoverSolution solve_dp(const CoverProblem& problem,
                       const support::Deadline& deadline,
                       std::size_t max_states,
                       support::FaultInjector* injector) {
  const std::size_t rows = problem.num_rows();
  if (rows > kDenseDpMaxRows) {
    throw std::invalid_argument("solve_dp: too many rows for the dense DP");
  }
  CoverSolution sol;
  if (rows == 0) {
    sol.optimal = true;
    return sol;
  }
  // The table is all-or-nothing: a half-filled DP yields no incumbent, so a
  // budget that cannot fit every state refuses up front with zero work.
  if ((std::size_t{1} << rows) > max_states) {
    sol.cost = std::numeric_limits<double>::infinity();
    sol.stop = CoverStop::kNodeBudget;
    return sol;
  }
  if (injector != nullptr && injector->should_fail(support::fault_sites::kUcpFrontier)) {
    sol.cost = std::numeric_limits<double>::infinity();
    sol.stop = CoverStop::kAborted;
    return sol;
  }

  // Column row-masks.
  const std::size_t num_cols = problem.num_columns();
  std::vector<std::uint32_t> col_mask(num_cols, 0);
  for (std::size_t j = 0; j < num_cols; ++j) {
    problem.column(j).rows.for_each([&](std::size_t r) {
      col_mask[j] |= (std::uint32_t{1} << r);
    });
  }

  // Per-row column lists, cheapest-first (better pruning locality), stored
  // flat: row r's entries are entries[row_begin[r] .. row_begin[r + 1]).
  // A column whose mask repeats that of a column earlier in the order is
  // dropped -- an exact reduction: it covers the same rows at no lower
  // weight, so it can never strictly improve a state, and the strict `<`
  // below would never choose it.
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
    // Direct-address hash over the 2^rows possible masks.
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
    if ((m & 0xFFF) == 0) {
      if (deadline.expired()) {
        sol.cost = kInf;
        sol.nodes_explored = m;
        sol.deadline_expired = true;
        sol.stop = CoverStop::kDeadline;
        return sol;
      }
      if (injector != nullptr && injector->should_fail(support::fault_sites::kUcpFrontier)) {
        sol.cost = kInf;
        sol.nodes_explored = m;
        sol.stop = CoverStop::kAborted;
        return sol;
      }
    }
    // The lowest uncovered row must be covered by some column.
    const std::size_t r = std::countr_zero(m);
    double best = kInf;
    std::uint32_t best_col = UINT32_MAX;
    const Entry* const end = entries.data() + row_begin[r + 1];
    for (const Entry* e = entries.data() + row_begin[r]; e != end; ++e) {
      // Cheapest-first order: no later entry can improve.
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
  // Reconstruct; a column may appear once (its mask strictly shrinks m).
  std::size_t m = full;
  while (m != 0) {
    const std::uint32_t j = choice[m];
    sol.chosen.push_back(j);
    m &= ~static_cast<std::size_t>(col_mask[j]);
  }
  std::sort(sol.chosen.begin(), sol.chosen.end());
  return sol;
}

}  // namespace cdcs::ucp
