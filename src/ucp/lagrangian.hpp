// Subgradient Lagrangian relaxation for weighted unate covering.
//
// Relaxing the row-covering constraints of
//
//     min  sum_j w_j x_j   s.t.  sum_{j : r in rows(j)} x_j >= 1  (r in U)
//
// with multipliers lambda >= 0 gives the dual function
//
//     L(lambda) = sum_{r in U} lambda_r
//               + sum_{j in A} min(0, w_j - sum_{r in rows(j) & U} lambda_r)
//
// which is a valid lower bound on the optimal cover cost of the subproblem
// (uncovered rows U, available columns A) for EVERY lambda >= 0. The inner
// minimization is trivial (take column j exactly when its reduced cost
// rc_j = w_j - sum lambda is negative), so evaluating L is one pass over the
// available columns; maximizing over lambda is done by standard projected
// subgradient ascent with the Held--Karp step rule, in the spirit of the
// Caprara--Fischetti--Toth Lagrangian heuristic for set covering.
//
// Two structural guarantees the branch-and-bound relies on:
//   * Seeded from `mis_multipliers`, L(lambda_0) equals the greedy
//     maximal-independent-rows (MIS) bound exactly -- independent rows share
//     no available column, so every reduced cost stays nonnegative and L
//     collapses to the sum of the seeds. Since the ascent reports the best
//     iterate, the Lagrangian bound therefore DOMINATES the MIS bound.
//   * The reduced costs at the best iterate support exact column fixing:
//     any cover using column j costs at least L(lambda) + max(0, rc_j), so
//     when that exceeds the incumbent strictly, j can be discarded without
//     losing ANY optimal cover (ucp/bnb.cpp).
#pragma once

#include <cstddef>
#include <vector>

#include "ucp/cover.hpp"

namespace cdcs::ucp {

/// Outcome of one subgradient ascent on a covering subproblem.
struct LagrangianBound {
  /// Best L(lambda) seen: a valid lower bound on the subproblem optimum.
  double bound{0.0};
  /// The multipliers attaining `bound` (indexed by row; zero on rows outside
  /// the subproblem). Warm-start material for child nodes.
  std::vector<double> multipliers;
  /// Reduced cost w_j - sum_{r in rows(j) & uncovered} lambda_r at the best
  /// lambda, indexed by column; zero for unavailable columns. Pairs with
  /// `bound` for reduced-cost fixing.
  std::vector<double> reduced_costs;
  std::size_t iterations{0};
};

/// Multipliers reproducing the greedy independent-rows bound: for each row
/// picked by the MIS greedy (scanning `uncovered` ascending, blocking the
/// available columns of picked rows), lambda_r = cheapest available covering
/// weight; zero elsewhere. L(lambda) == the MIS bound exactly.
std::vector<double> mis_multipliers(const CoverProblem& problem,
                                    const Bitset& uncovered,
                                    const Bitset& available);

/// Maximizes L(lambda) over the subproblem (uncovered, available) by
/// projected subgradient ascent of at most `iterations` steps (the Held--Karp
/// step schedule is fixed in lagrangian.cpp). `upper_bound` is the incumbent
/// cost of the SUBPROBLEM (global incumbent minus the cost already committed
/// on the path); it sizes the steps and allows early exit once L proves the
/// incumbent unbeatable. Starts from `warm_start` multipliers when given
/// (clamped to >= 0, restricted to uncovered rows), else from
/// mis_multipliers -- so the returned bound is always >= the MIS bound when
/// no warm start is supplied, and >= max(L(warm_start), 0) otherwise.
LagrangianBound subgradient_bound(const CoverProblem& problem,
                                  const Bitset& uncovered,
                                  const Bitset& available,
                                  double upper_bound, std::size_t iterations,
                                  const std::vector<double>* warm_start = nullptr);

/// Root lower bound on the full problem: max(independent-rows bound,
/// subgradient bound seeded from it), with `upper_bound` (the cost of a
/// known cover) sizing the steps. This is what degraded (deadline/budget)
/// runs report as CoverSolution::lower_bound so callers get an honest
/// optimality gap; solve_exact passes its incumbent's cost.
double lagrangian_root_bound(const CoverProblem& problem, double upper_bound,
                             std::size_t iterations);

}  // namespace cdcs::ucp
