// Node-level machinery of the exact UCP branch-and-bound (ucp/bnb.cpp): the
// reductions, bounds, and branching rules, plus the incumbent seed the dense
// DP's fallback also uses. Everything here is logic-identical to the v1
// solver -- the pinned v1 node counts depend on it. The incumbent cost is an
// explicit parameter of each method rather than evaluator state; the search
// loop in bnb.cpp owns it.
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

// Stateless-per-node view of the search machinery. Construction warms
// CoverProblem's lazy row_cover transpose; every method after that is const
// and works on the SearchState it is handed.
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
