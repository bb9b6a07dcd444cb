// Exact dense dynamic program for weighted UCP with few rows.
//
// Covering instances produced by communication synthesis have one row per
// constraint arc -- typically well under 24 -- while the column count can
// reach the thousands (every surviving merging). Branch-and-bound degrades
// badly there (hundreds of near-equal columns per row explode the branching
// factor), but the row-subset state space is tiny: over masks m of still-
// uncovered rows,
//
//     dp[m] = min over columns c covering the lowest row of m of
//             dp[m \ rows(c)] + weight(c)
//
// Every sub-state has a strictly higher lowest row than its parent, so the
// DP is evaluated top-down from the full mask and memoised: it touches only
// the states this recursion reaches (at most 2^(R-1), because every
// state below the root has row 0 covered; far fewer on sparse or k-bounded
// matrices), and only those a column before the cheapest-first cut needs.
// Memory is 2^(R-1) table entries. Time is O(reachable states * entries
// scanned per state), and the scan dominates: on the 12x12 NoC's 18-row
// clusters (4,047 columns) the cut rarely fires and a state scans hundreds
// of entries. Two exact measures cut that cost:
//
//  - Per-row projection. A state whose lowest row is r has every row below
//    r covered, so row r's list keeps one entry per distinct mask
//    restricted to rows >= r -- the cheapest, which is the one the strict
//    `<` keeps anyway.
//  - Two scan bodies. The portable body steps through a row's list one
//    entry at a time. The AVX2 body (picked at run time when the CPU has
//    it) gathers four sub-states' memo values at once and settles the
//    block in one vector compare when all four are already evaluated. It
//    takes the same steps in the same order, so its output is the same.
//
// Neither changes a cost bit, a chosen column, nodes_explored or the
// states at which the deadline is polled (docs/performance.md §17).
// This is the dense_dp backend (ucp/cover_solver.hpp), which solve_exact()
// runs by default up to kDefaultDenseDpRows rows.
#pragma once

#include <cstddef>
#include <limits>

#include "support/deadline.hpp"
#include "ucp/cover.hpp"

namespace cdcs::support {
class FaultInjector;
}  // namespace cdcs::support

namespace cdcs::ucp {

/// Hard cap on rows (memory: a 12-byte table entry per state, 2^(R-1)
/// entries, plus a 2^R-bit mask table). solve_dp refuses above it.
inline constexpr std::size_t kDenseDpMaxRows = 24;

/// Exact minimum-weight cover via subset DP. Throws std::invalid_argument
/// when num_rows exceeds kDenseDpMaxRows. Infeasible -> cost = +infinity,
/// empty chosen, optimal = false. `nodes_explored` counts the DP states
/// actually evaluated, the root included (at most 2^(R-1)).
/// Before the recursion the DP drops, exactly, every column whose row mask
/// repeats a cheaper one and every merged column strictly costlier than its
/// rows' cheapest singletons; cost bits and chosen columns are those of the
/// full bottom-up table over the unreduced matrix.
/// The deadline is polled every 4096 evaluated states; on expiry the DP
/// abandons the table and returns an empty solution flagged
/// `deadline_expired` (the caller falls back to the greedy incumbent).
/// `max_states` is the DP's share of the caller's node budget: when the
/// states the recursion can reach (2^(R-1)) outnumber it, the solve is
/// refused up front (stop = kNodeBudget, zero work done) rather than
/// half-evaluated -- a partial DP table yields no incumbent, so there is
/// nothing useful to salvage mid-run. The default budget (10M) admits
/// kDenseDpMaxRows = 24 rows. `injector` (borrowed, may be null) is
/// consulted at the "ucp.frontier" site once at the start and at every
/// deadline poll; a firing abandons the table with stop = kAborted.
CoverSolution solve_dp(
    const CoverProblem& problem, const support::Deadline& deadline = {},
    std::size_t max_states = std::numeric_limits<std::size_t>::max(),
    support::FaultInjector* injector = nullptr);

namespace detail {

/// The two bodies of the DP's row scan. They give identical results; the
/// choice exists for tests that run both.
enum class DpScan { kPortable, kAvx2 };

/// True when `scan` can run on this CPU (kPortable always can).
bool dp_scan_supported(DpScan scan);

/// solve_dp with the given scan body; solve_dp uses kAvx2 when supported.
/// Throws std::invalid_argument when `scan` is not supported.
CoverSolution solve_dp_with(
    DpScan scan, const CoverProblem& problem,
    const support::Deadline& deadline = {},
    std::size_t max_states = std::numeric_limits<std::size_t>::max(),
    support::FaultInjector* injector = nullptr);

}  // namespace detail

}  // namespace cdcs::ucp
