// Configuration for the exact weighted-UCP branch-and-bound (ucp/bnb.hpp),
// split out so callers that only CARRY solver options (SynthesisOptions,
// session engines, CLI flag parsing) need not see the solver itself.
#pragma once

#include <array>
#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "support/deadline.hpp"

namespace cdcs::support {
class FaultInjector;
}  // namespace cdcs::support

namespace cdcs::ucp {

/// The cover-solver backends BnbOptions::backend can name, in the order
/// --help, diagnostics and the backend matrix tests list them: the exact
/// subset DP (ucp/dp.hpp, at most kDenseDpMaxRows rows) and the depth-first
/// branch-and-bound (ucp/bnb.hpp).
inline constexpr std::array<std::string_view, 2> kCoverBackends = {
    "dense_dp", "bnb_v2"};

/// kCoverBackends joined for diagnostics: "dense_dp, bnb_v2".
inline std::string cover_backend_list() {
  std::string joined;
  for (std::string_view name : kCoverBackends) {
    if (!joined.empty()) joined += ", ";
    joined += name;
  }
  return joined;
}

/// Row count up to which an empty BnbOptions::backend runs dense_dp instead
/// of bnb_v2.
inline constexpr std::size_t kDefaultDenseDpRows = 20;

/// Column dominance is O(columns^2); beyond this depth it is skipped, and
/// within it the deadline is polled once per available column.
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
  /// Wall-clock budget; polled once per branch node (and per column of the
  /// column-dominance pass) and periodically inside the dense DP. On expiry
  /// the best incumbent so far is returned with `optimal = false` and
  /// `stop = kDeadline`.
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

  /// The cover-solver backend, the one solver selector: one of
  /// kCoverBackends, "dense_dp" (exact subset DP, at most kDenseDpMaxRows
  /// rows) or "bnb_v2" (depth-first branch-and-bound). Empty (the default)
  /// runs dense_dp up to kDefaultDenseDpRows rows and bnb_v2 above.
  /// solve_exact throws std::invalid_argument for any other name.
  std::string backend;
};

}  // namespace cdcs::ucp
