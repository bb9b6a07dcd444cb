// Configuration for the exact weighted-UCP branch-and-bound (ucp/bnb.hpp),
// split out so callers that only CARRY solver options (SynthesisOptions,
// session engines, CLI flag parsing) need not see the solver itself.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "support/deadline.hpp"

namespace cdcs::support {
class FaultInjector;
}  // namespace cdcs::support

namespace cdcs::ucp {

/// Column dominance is O(columns^2); beyond this depth it is skipped.
inline constexpr int kColumnDominanceMaxDepth = 4;
/// Subgradient iterations at the root (where the bound pays for the whole
/// tree) and at interior nodes (warm-started from the parent, so a few
/// corrective steps suffice).
inline constexpr std::size_t kLagrangianRootIterations = 120;
inline constexpr std::size_t kLagrangianNodeIterations = 8;
/// Reduced-cost fixing runs at the root and then every this many nodes.
inline constexpr std::size_t kReducedCostFixingPeriod = 64;

struct BnbOptions {
  std::size_t max_nodes = 10'000'000;
  /// Wall-clock budget (plus cooperative cancellation); polled once per
  /// branch node and periodically inside the dense DP. On expiry the best
  /// incumbent so far is returned with `optimal = false` and
  /// `deadline_expired = true`.
  support::Deadline deadline;
  bool use_row_dominance = true;
  bool use_column_dominance = true;
  bool use_mis_lower_bound = true;

  /// Subgradient Lagrangian node bounds (dominate the MIS bound; see
  /// ucp/lagrangian.hpp). Disabling this and `use_reduced_cost_fixing`
  /// reproduces the v1 search tree exactly.
  bool use_lagrangian_bound = true;

  /// Permanently drop columns whose reduced cost pushes them strictly past
  /// the incumbent (requires the Lagrangian bound). Applied at the root and
  /// then every kReducedCostFixingPeriod nodes. Never removes a column
  /// belonging to ANY optimal cover (the test is strict).
  bool use_reduced_cost_fixing = true;

  /// Optional borrowed fault injector (not owned). Every backend consults
  /// the "ucp.frontier" site -- bnb_v2 per branch node, the dense DP at
  /// entry and each deadline poll -- and aborts the solve (all-or-nothing:
  /// incumbent intact, optimal = false, stop = kAborted) when it fires.
  support::FaultInjector* fault_injector = nullptr;

  /// Optional feasible cover (column indices) seeding the incumbent on top
  /// of the built-in greedy seed; the cheaper of the two wins. Ignored if it
  /// does not cover every row. The synthesizer passes the point-to-point
  /// singleton cover here so the solver starts with the anytime ladder's
  /// last-resort upper bound already in hand.
  std::vector<std::size_t> warm_start;

  /// The cover-solver backend (ucp/cover_solver.hpp), the one solver
  /// selector: "dense_dp" (exact subset DP, at most kDenseDpMaxRows rows)
  /// or "bnb_v2" (depth-first branch-and-bound). Empty (the default) runs
  /// dense_dp up to kDefaultDenseDpRows rows and bnb_v2 above. Unknown
  /// names throw std::invalid_argument.
  std::string backend;
};

}  // namespace cdcs::ucp
