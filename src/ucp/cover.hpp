// Weighted Unate Covering Problem (Sec. 3, step 2).
//
// The covering matrix associates a row to each constraint arc and a column to
// each candidate arc implementation; entry (i, j) is 1 when candidate j
// implements arc i, and each column carries the candidate's cost as weight.
// The global optimum of Problem 2.1 is the minimum-weight set of columns
// covering all rows. This module holds the problem representation; solvers
// live in greedy.hpp (fast upper bound) and bnb.hpp (exact branch-and-bound
// in the spirit of the paper's references [4] Goldberg et al. and [8]
// Liao--Devadas, reimplemented from scratch).
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "ucp/bitset.hpp"

namespace cdcs::ucp {

struct Column {
  Bitset rows;    ///< rows covered by this column
  double weight;  ///< candidate cost (must be >= 0)
};

class CoverProblem {
 public:
  explicit CoverProblem(std::size_t num_rows) : num_rows_(num_rows) {}

  std::size_t num_rows() const { return num_rows_; }
  std::size_t num_columns() const { return columns_.size(); }

  /// Adds a column covering `rows` (row indices) with the given weight;
  /// returns its index.
  std::size_t add_column(const std::vector<std::size_t>& rows, double weight);

  const Column& column(std::size_t j) const { return columns_.at(j); }
  const std::vector<Column>& columns() const { return columns_; }

  /// True when every row is covered by at least one column (otherwise no
  /// solution exists).
  bool feasible() const;

  /// Total weight of a column selection.
  double cost_of(const std::vector<std::size_t>& chosen) const;

  /// True when `chosen` covers every row.
  bool covers_all(const std::vector<std::size_t>& chosen) const;

  /// The transpose view: the columns covering row `r`, as a bitset over
  /// column indices. This is what turns the solver's essential-column
  /// detection and row-dominance tests into word-parallel operations
  /// (ucp/bnb.cpp). Built lazily on the first call after the last
  /// add_column and cached; the cache rebuild is O(rows x cols / 64).
  /// NOT safe to call concurrently with add_column or a first post-mutation
  /// call from another thread; the solvers are single-threaded over one
  /// problem, which is the supported usage.
  const Bitset& row_cover(std::size_t r) const;

 private:
  std::size_t num_rows_;
  std::vector<Column> columns_;
  /// Lazy transpose cache for row_cover(); invalidated by add_column.
  mutable std::vector<Bitset> row_cover_;
  mutable bool row_cover_valid_{false};
};

/// Why the solver stopped. Anything other than kCompleted means the
/// returned cover is the best incumbent, not a proven optimum, and tells
/// the caller WHICH budget to raise (node budget vs deadline).
enum class CoverStop {
  kCompleted,   ///< search finished; `optimal` is the proof
  kNodeBudget,  ///< BnbOptions::max_nodes exhausted
  kDeadline,    ///< wall-clock deadline expired
  kAborted,     ///< injected fault ("ucp.frontier") killed the solve
};

/// Stable lowercase name for reports, flight-recorder events, and
/// postmortems ("completed", "node_budget", "deadline", "aborted").
std::string_view to_string(CoverStop stop);

struct CoverSolution {
  std::vector<std::size_t> chosen;  ///< column indices, ascending
  double cost{0.0};
  bool optimal{false};   ///< proven optimal (bnb completed within node budget)
  std::size_t nodes_explored{0};
  /// Proven lower bound on the optimal cost: equals `cost` when `optimal`,
  /// otherwise the strongest root bound the solver established -- the
  /// subgradient Lagrangian root bound when enabled (ucp/lagrangian.hpp),
  /// falling back to the independent-rows bound. Lets callers report an
  /// honest optimality gap for incumbents returned under a budget.
  double lower_bound{0.0};
  /// Why the search stopped (kCompleted unless a budget cut it short).
  CoverStop stop{CoverStop::kCompleted};
  /// The backend that produced this solution (kCoverBackends in
  /// ucp/bnb_options.hpp): "dense_dp" or "bnb_v2".
  std::string backend;
};

/// Honest relative optimality gap (achieved - lower_bound) / lower_bound:
/// 0 when the bound is degenerate (<= 0) or already met. The single gap
/// definition shared by the pipeline's degradation report, io/report, the
/// partitioned synthesizer's stitched bound, and the scaling benches.
double optimality_gap(double achieved, double lower_bound);

/// Root lower bound on the optimal cover cost: greedily collects rows that
/// pairwise share no column (each needs a distinct column, so the sum of
/// their cheapest covers is a valid bound). 0 for an empty row set; also a
/// valid (vacuous) bound when some row is uncoverable.
double independent_rows_lower_bound(const CoverProblem& problem);

}  // namespace cdcs::ucp
