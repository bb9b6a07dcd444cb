// Shared node-level machinery of the exact UCP branch-and-bound, split out
// of ucp/bnb.cpp so the serial solver (bnb.cpp) and the parallel engine
// (parallel_bnb.cpp) expand nodes through ONE implementation of the
// reductions, bounds, and branching rules. Everything here is logic-identical
// to the pre-split solver -- the pinned v1 node counts depend on it -- with
// the sole mechanical change that the incumbent cost is an explicit
// parameter instead of solver state, which is what lets many threads share a
// const NodeEvaluator.
//
// Internal header: not installed, not part of the public ucp API surface.
#pragma once

#include <cstddef>
#include <limits>
#include <vector>

#include "ucp/bitset.hpp"
#include "ucp/bnb_options.hpp"
#include "ucp/cover.hpp"
#include "ucp/lagrangian.hpp"

namespace cdcs::ucp::detail {

inline constexpr double kInfCost = std::numeric_limits<double>::infinity();

struct SearchState {
  Bitset uncovered;  ///< rows still to cover
  Bitset available;  ///< columns still selectable
};

// Stateless-per-node view of the search machinery. Construction is NOT
// thread-safe (it warms CoverProblem's lazy row_cover transpose); every
// method after construction is const and safe to call from many threads at
// once, each on its own SearchState.
class NodeEvaluator {
 public:
  NodeEvaluator(const CoverProblem& problem, const BnbOptions& options);

  /// Applies reductions in place; appends forced columns to `chosen` and
  /// adds their weight to `cost`. Returns false when the branch is
  /// infeasible or its forced cost already meets `best_cost`.
  bool reduce(SearchState& s, double& cost, std::vector<std::size_t>& chosen,
              int depth, double best_cost) const;

  /// Cheapest available column weight for row r (kInfCost when none).
  double cheapest_available(std::size_t r, const Bitset& available) const;

  /// MIS lower bound over the remaining subproblem (0 when disabled).
  double lower_bound(const SearchState& s) const;

  /// Node bound: MIS first (cheap; prunes most nodes), then the Lagrangian
  /// ascent only when MIS alone cannot prune. Returns the subproblem bound
  /// and fills `lagr`/`lagr_ran` for reduced-cost fixing and child
  /// warm-starting.
  double node_bound(const SearchState& s, double cost, int depth,
                    const std::vector<double>& lambda, double best_cost,
                    LagrangianBound& lagr, bool& lagr_ran) const;

  /// Reduced-cost fixing against `best_cost`; returns how many columns were
  /// dropped from `s.available`.
  std::size_t fix_columns(SearchState& s, double cost, double best_cost,
                          const LagrangianBound& lagr) const;

  /// Branching row (fewest available columns) and its columns
  /// cheapest-first.
  std::vector<std::size_t> branch_columns(const SearchState& s) const;

  const CoverProblem& problem() const { return p_; }
  const BnbOptions& options() const { return opt_; }

 private:
  const CoverProblem& p_;
  const BnbOptions& opt_;
  /// Per-row columns sorted by (weight, index): the MIS bound's
  /// cheapest-available probe and the Lagrangian MIS seeding both read it.
  std::vector<std::vector<std::size_t>> row_cols_by_weight_;
};

/// Seeds the incumbent: greedy cover, improved by the caller's warm start
/// when that is a valid, cheaper cover. Fills `best` and returns its cost.
double seed_incumbent(const CoverProblem& problem, const BnbOptions& options,
                      std::vector<std::size_t>& best);

}  // namespace cdcs::ucp::detail
