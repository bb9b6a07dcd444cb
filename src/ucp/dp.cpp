#include "ucp/dp.hpp"

#include <algorithm>
#include <cmath>
#include <bit>
#include <limits>
#include <stdexcept>
#include <vector>

#include "support/fault.hpp"

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#define CDCS_HAVE_AVX2_SCAN 1
#else
#define CDCS_HAVE_AVX2_SCAN 0
#endif

namespace cdcs::ucp {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Relative margin by which a merged column must exceed its rows' cheapest
/// singletons before the DP drops it (see drop_unprofitable below).
constexpr double kUnprofitableMargin = 1e-9;

/// The per-row column lists, stored flat and split by field so that the
/// gathered scan loads four weights and four masks at once: row r's entries
/// are [begin[r], begin[r + 1]), each a column's weight, row mask and index
/// in the problem, cheapest first.
struct RowLists {
  std::vector<double> weight;
  std::vector<std::uint32_t> mask;
  std::vector<std::uint32_t> column;
  std::vector<std::size_t> begin;
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
  ReachableDp(const RowLists& lists, std::size_t rows, bool gathered,
              const support::Deadline& deadline,
              support::FaultInjector* injector)
      : lists_(lists),
        gathered_(gathered),
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
  /// Both scan bodies take exactly these steps.
  double evaluate(std::size_t m, std::uint32_t& best_col) {
    // The lowest uncovered row must be covered by some column.
    const std::size_t r = std::countr_zero(m);
#if CDCS_HAVE_AVX2_SCAN
    if (gathered_) return scan_gathered(m, r, best_col);
#endif
    return scan_portable(m, r, best_col);
  }

  /// One scalar step of the scan at entry i: false once the scan is over
  /// (the cut, or an abandoned table).
  bool step(std::size_t m, std::size_t i, double& best,
            std::uint32_t& best_col) {
    const double w = lists_.weight[i];
    // Cheapest-first order: no later entry can improve.
    if (w >= best) return false;
    const double rest = value(m & ~static_cast<std::size_t>(lists_.mask[i]));
    if (stop_ != CoverStop::kCompleted) return false;
    if (rest + w < best) {
      best = rest + w;
      best_col = lists_.column[i];
    }
    return true;
  }

  double scan_portable(std::size_t m, std::size_t r, std::uint32_t& best_col) {
    double best = kInf;
    best_col = UINT32_MAX;
    const std::size_t end = lists_.begin[r + 1];
    for (std::size_t i = lists_.begin[r]; i != end; ++i) {
      if (!step(m, i, best, best_col)) break;
    }
    return stop_ == CoverStop::kCompleted ? best : kInf;
  }

#if CDCS_HAVE_AVX2_SCAN
  /// The scan four entries at a time, with the four sub-states' dp values
  /// gathered from the memo. A block is taken only when it lies inside the
  /// row and all four sub-states are evaluated: then each scalar step would
  /// read its sub-state without calling evaluate(), and the block computes
  /// the same candidate sums (IEEE adds, no FMA) and applies the same cut
  /// and strict `<` in entry order. Every other entry takes the scalar step.
  [[gnu::target("avx2")]] double scan_gathered(std::size_t m, std::size_t r,
                                               std::uint32_t& best_col) {
    double best = kInf;
    best_col = UINT32_MAX;
    const std::size_t end = lists_.begin[r + 1];
    // m < 2^24, so the state and every memo slot fit a 32-bit lane.
    const __m128i state = _mm_set1_epi32(static_cast<int>(m));
    std::size_t i = lists_.begin[r];
    while (i != end) {
      if (end - i >= 4) {
        const __m128i masks = _mm_loadu_si128(
            reinterpret_cast<const __m128i*>(lists_.mask.data() + i));
        const __m128i slots = _mm_srli_epi32(_mm_andnot_si128(masks, state), 1);
        // The masked form with a zero source: the plain one reads an
        // undefined register GCC warns about.
        const __m256d rest = _mm256_mask_i32gather_pd(
            _mm256_setzero_pd(), dp_.data(), slots,
            _mm256_castsi256_pd(_mm256_set1_epi64x(-1)), 8);
        if (_mm256_movemask_pd(_mm256_cmp_pd(rest, rest, _CMP_UNORD_Q)) == 0) {
          const __m256d w = _mm256_loadu_pd(lists_.weight.data() + i);
          const __m256d cand = _mm256_add_pd(rest, w);
          const __m256d bound = _mm256_set1_pd(best);
          if (_mm256_movemask_pd(_mm256_cmp_pd(cand, bound, _CMP_LT_OQ)) == 0) {
            // No entry improves on best, so best stays; an entry at the cut
            // ends the scan.
            if (_mm256_movemask_pd(_mm256_cmp_pd(w, bound, _CMP_GE_OQ)) != 0) {
              break;
            }
            i += 4;
            continue;
          }
          alignas(32) double sums[4];
          _mm256_store_pd(sums, cand);
          for (std::size_t k = 0; k < 4; ++k, ++i) {
            if (lists_.weight[i] >= best) return best;
            if (sums[k] < best) {
              best = sums[k];
              best_col = lists_.column[i];
            }
          }
          continue;
        }
      }
      if (!step(m, i, best, best_col)) break;
      ++i;
    }
    return stop_ == CoverStop::kCompleted ? best : kInf;
  }
#endif

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

  const RowLists& lists_;
  const bool gathered_;
  const support::Deadline& deadline_;
  support::FaultInjector* injector_;
  std::vector<double> dp_;
  std::vector<std::uint32_t> choice_;
  std::size_t evaluated_{1};  // the root
  CoverStop stop_{CoverStop::kCompleted};
};

}  // namespace

namespace detail {

bool dp_scan_supported(DpScan scan) {
#if CDCS_HAVE_AVX2_SCAN
  if (scan == DpScan::kAvx2) {
    static const bool has_avx2 = __builtin_cpu_supports("avx2");
    return has_avx2;
  }
#endif
  return scan == DpScan::kPortable;
}

CoverSolution solve_dp_with(DpScan scan, const CoverProblem& problem,
                            const support::Deadline& deadline,
                            std::size_t max_states,
                            support::FaultInjector* injector) {
  if (!dp_scan_supported(scan)) {
    throw std::invalid_argument(
        "solve_dp: the gathered scan is not supported on this CPU");
  }
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

  // Per-row column lists, cheapest-first (better pruning locality). Two
  // exact reductions shorten them. An unprofitable merged column is dropped
  // (drop_unprofitable above). So is an entry of row r whose mask restricted
  // to rows >= r repeats that of an entry earlier in the row's list: every
  // state scanning row r has the rows below r covered, so both entries lead
  // to the same sub-state, and the earlier one, at no higher weight, has
  // already evaluated it and wins the strict `<`. The later entry would
  // read that sub-state from the memo, change nothing and evaluate nothing.
  // (A repeated full mask is the special case every row sees.)
  RowLists lists;
  lists.begin.assign(rows + 1, 0);
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
    std::erase_if(order, [&](std::uint32_t j) { return unprofitable[j]; });
    std::size_t capacity = 0;
    for (std::uint32_t j : order) capacity += std::popcount(col_mask[j]);
    lists.weight.reserve(capacity);
    lists.mask.reserve(capacity);
    lists.column.reserve(capacity);
    // Direct-address hash over the 2^rows possible masks, holding one row's
    // keys at a time.
    std::vector<bool> seen_mask(std::size_t{1} << rows, false);
    for (std::size_t r = 0; r < rows; ++r) {
      lists.begin[r] = lists.weight.size();
      const std::uint32_t from_r = ~std::uint32_t{0} << r;
      for (std::uint32_t j : order) {
        const std::uint32_t key = col_mask[j] & from_r;
        if ((key & (std::uint32_t{1} << r)) == 0 || seen_mask[key]) continue;
        seen_mask[key] = true;
        lists.weight.push_back(problem.column(j).weight);
        lists.mask.push_back(col_mask[j]);
        lists.column.push_back(j);
      }
      for (std::size_t i = lists.begin[r]; i != lists.mask.size(); ++i) {
        seen_mask[lists.mask[i] & from_r] = false;
      }
    }
    lists.begin[rows] = lists.weight.size();
  }

  const std::size_t full = (std::size_t{1} << rows) - 1;
  ReachableDp dp(lists, rows, scan == detail::DpScan::kAvx2, deadline,
                 injector);
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

}  // namespace detail

CoverSolution solve_dp(const CoverProblem& problem,
                       const support::Deadline& deadline,
                       std::size_t max_states,
                       support::FaultInjector* injector) {
  static const detail::DpScan scan =
      detail::dp_scan_supported(detail::DpScan::kAvx2)
          ? detail::DpScan::kAvx2
          : detail::DpScan::kPortable;
  return detail::solve_dp_with(scan, problem, deadline, max_states, injector);
}

}  // namespace cdcs::ucp
