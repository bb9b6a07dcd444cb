#include "ucp/dp.hpp"

#include <algorithm>
#include <cmath>
#include <bit>
#include <limits>
#include <stdexcept>
#include <vector>

#include "support/fault.hpp"

namespace cdcs::ucp {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Relative margin by which a merged column must exceed its rows' cheapest
/// singletons before the DP drops it (see drop_unprofitable below).
constexpr double kUnprofitableMargin = 1e-9;

/// One entry of a row's column list: the column's weight, its row mask and
/// its index in the problem.
struct Entry {
  double weight;
  std::uint32_t mask;
  std::uint32_t column;
};

/// Marks columns that can never win a DP state: a column S of two or more
/// rows, each of which has a singleton column, with
///
///     w(S) > sigma + 1e-9 * (sigma + U),   sigma = sum over r in S of the
///                                          cheapest singleton of r,
///
/// where U, the sum over all rows of the cheapest column touching the row,
/// bounds every DP value. At any state m whose lowest row r lies in S, the
/// singleton of r sorts strictly before S and is worth at most
/// w(r) + dp[m \ r] <= sigma + dp[m \ S], up to the rounding of at most 2R
/// additions of nonnegative terms that sum to at most about sigma + U. The
/// margin exceeds that rounding by more than five orders of magnitude, so S
/// never passes the strict `<`, and dropping it changes no dp value and no
/// choice. (A margin relative to sigma alone would not do: the dp values
/// compared alongside can be far larger than sigma.) Needs finite
/// nonnegative weights; anything else disables the reduction.
std::vector<bool> drop_unprofitable(const CoverProblem& problem,
                                    const std::vector<std::uint32_t>& col_mask,
                                    std::size_t rows) {
  const std::size_t num_cols = col_mask.size();
  std::vector<bool> drop(num_cols, false);
  std::vector<double> singleton(rows, kInf);
  std::vector<double> cheapest(rows, kInf);
  for (std::size_t j = 0; j < num_cols; ++j) {
    const double w = problem.column(j).weight;
    if (!(std::isfinite(w) && w >= 0.0)) return drop;
    for (std::uint32_t m = col_mask[j]; m != 0; m &= m - 1) {
      const auto r = static_cast<std::size_t>(std::countr_zero(m));
      cheapest[r] = std::min(cheapest[r], w);
    }
    if (std::has_single_bit(col_mask[j])) {
      const auto r = static_cast<std::size_t>(std::countr_zero(col_mask[j]));
      singleton[r] = std::min(singleton[r], w);
    }
  }
  double bound = 0.0;
  for (std::size_t r = 0; r < rows; ++r) bound += cheapest[r];
  if (!std::isfinite(bound)) return drop;  // some row has no column at all

  for (std::size_t j = 0; j < num_cols; ++j) {
    if (std::has_single_bit(col_mask[j])) continue;
    double sigma = 0.0;
    for (std::uint32_t m = col_mask[j]; m != 0; m &= m - 1) {
      sigma += singleton[static_cast<std::size_t>(std::countr_zero(m))];
    }
    // sigma is +inf when a row of the column has no singleton: never drops.
    drop[j] = problem.column(j).weight >
              sigma + kUnprofitableMargin * (sigma + bound);
  }
  return drop;
}

/// Memoised top-down evaluation of the lowest-row recurrence from the full
/// mask. Every state below the root has row 0 covered, so the memo is
/// indexed by m >> 1 and holds 2^(R-1) entries; NaN marks "not evaluated"
/// (no dp value is ever NaN: it only takes values that passed a `<`).
class ReachableDp {
 public:
  ReachableDp(const std::vector<Entry>& entries,
              const std::vector<std::size_t>& row_begin, std::size_t rows,
              const support::Deadline& deadline,
              support::FaultInjector* injector)
      : entries_(entries),
        row_begin_(row_begin),
        deadline_(deadline),
        injector_(injector),
        dp_(std::size_t{1} << (rows - 1),
            std::numeric_limits<double>::quiet_NaN()),
        choice_(dp_.size(), UINT32_MAX) {
    dp_[0] = 0.0;
  }

  /// dp[full] and its column; kInf with stop() != kCompleted when abandoned.
  double solve_root(std::size_t full, std::uint32_t& root_choice) {
    return evaluate(full, root_choice);
  }

  std::uint32_t choice(std::size_t m) const { return choice_[m >> 1]; }
  std::size_t evaluated() const { return evaluated_; }
  CoverStop stop() const { return stop_; }

 private:
  /// The recurrence at state m: the same cheapest-first scan, `weight >=
  /// best` cut and strict `<` as a bottom-up fill, reading each sub-state
  /// through value(), so every dp[m] and choice[m] comes out bit-identical.
  double evaluate(std::size_t m, std::uint32_t& best_col) {
    // The lowest uncovered row must be covered by some column.
    const std::size_t r = std::countr_zero(m);
    double best = kInf;
    best_col = UINT32_MAX;
    const Entry* const end = entries_.data() + row_begin_[r + 1];
    for (const Entry* e = entries_.data() + row_begin_[r]; e != end; ++e) {
      // Cheapest-first order: no later entry can improve.
      if (e->weight >= best) break;
      const double rest = value(m & ~static_cast<std::size_t>(e->mask));
      if (stop_ != CoverStop::kCompleted) return kInf;
      if (rest + e->weight < best) {
        best = rest + e->weight;
        best_col = e->column;
      }
    }
    return best;
  }

  /// dp[m] for a state with row 0 covered, evaluated on first use. The
  /// recursion depth is at most R: each level's lowest row is higher.
  double value(std::size_t m) {
    const std::size_t slot = m >> 1;
    if (!std::isnan(dp_[slot])) return dp_[slot];
    if ((++evaluated_ & 0xFFF) == 0 && poll_stop()) return kInf;
    std::uint32_t col = UINT32_MAX;
    const double v = evaluate(m, col);
    if (stop_ != CoverStop::kCompleted) return kInf;
    dp_[slot] = v;
    choice_[slot] = col;
    return v;
  }

  bool poll_stop() {
    if (deadline_.expired()) {
      stop_ = CoverStop::kDeadline;
    } else if (injector_ != nullptr &&
               injector_->should_fail(support::fault_sites::kUcpFrontier)) {
      stop_ = CoverStop::kAborted;
    }
    return stop_ != CoverStop::kCompleted;
  }

  const std::vector<Entry>& entries_;
  const std::vector<std::size_t>& row_begin_;
  const support::Deadline& deadline_;
  support::FaultInjector* injector_;
  std::vector<double> dp_;
  std::vector<std::uint32_t> choice_;
  std::size_t evaluated_{1};  // the root
  CoverStop stop_{CoverStop::kCompleted};
};

}  // namespace

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
  // The table is all-or-nothing: a half-evaluated DP yields no incumbent,
  // so a budget smaller than the states the recursion can reach (2^(R-1):
  // every state below the root has row 0 covered) refuses up front with
  // zero work.
  if ((std::size_t{1} << (rows - 1)) > max_states) {
    sol.cost = kInf;
    sol.stop = CoverStop::kNodeBudget;
    return sol;
  }
  if (injector != nullptr && injector->should_fail(support::fault_sites::kUcpFrontier)) {
    sol.cost = kInf;
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
  // Two exact reductions shorten them. A column whose mask repeats that of a
  // column earlier in the order is dropped: it covers the same rows at no
  // lower weight, so it can never strictly improve a state, and the strict
  // `<` below would never choose it. So is an unprofitable merged column
  // (drop_unprofitable above).
  std::vector<Entry> entries;
  std::vector<std::size_t> row_begin(rows + 1, 0);
  {
    // Sort every column, then filter: the sort is not stable, so filtering
    // first could reorder equal-weight survivors and move a tie-break.
    std::vector<std::uint32_t> order(num_cols);
    for (std::size_t j = 0; j < num_cols; ++j) order[j] = j;
    std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
      return problem.column(a).weight < problem.column(b).weight;
    });
    const std::vector<bool> unprofitable =
        drop_unprofitable(problem, col_mask, rows);
    // Direct-address hash over the 2^rows possible masks.
    std::vector<bool> seen_mask(std::size_t{1} << rows, false);
    std::vector<std::uint32_t> kept;
    kept.reserve(num_cols);
    for (std::uint32_t j : order) {
      if (unprofitable[j] || seen_mask[col_mask[j]]) continue;
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

  const std::size_t full = (std::size_t{1} << rows) - 1;
  ReachableDp dp(entries, row_begin, rows, deadline, injector);
  std::uint32_t root_choice = UINT32_MAX;
  const double cost = dp.solve_root(full, root_choice);
  sol.nodes_explored = dp.evaluated();
  if (dp.stop() != CoverStop::kCompleted) {
    sol.cost = kInf;
    sol.deadline_expired = dp.stop() == CoverStop::kDeadline;
    sol.stop = dp.stop();
    return sol;
  }
  if (!std::isfinite(cost)) {
    sol.cost = kInf;
    return sol;
  }
  sol.cost = cost;
  sol.optimal = true;
  // Reconstruct; a column may appear once (its mask strictly shrinks m).
  std::size_t m = full;
  for (std::uint32_t j = root_choice;; j = dp.choice(m)) {
    sol.chosen.push_back(j);
    m &= ~static_cast<std::size_t>(col_mask[j]);
    if (m == 0) break;
  }
  std::sort(sol.chosen.begin(), sol.chosen.end());
  return sol;
}

}  // namespace cdcs::ucp
