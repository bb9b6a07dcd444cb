// Exact weighted-UCP branch-and-bound (solver v2).
//
// A from-scratch reimplementation of the classic covering-solver toolbox the
// paper points at ([4] Goldberg/Carloni/Villa/Brayton/Sangiovanni-
// Vincentelli, [8] Liao--Devadas), extended with the bound machinery of the
// set-covering literature (Caprara/Fischetti/Toth-style Lagrangian
// relaxation):
//   * essential-column extraction (a row covered by a single column),
//   * row dominance (a row whose every covering column also covers another
//     row is automatically satisfied and can be ignored),
//   * column dominance (a column covering a subset of another's remaining
//     rows at no lower weight can be discarded),
//   * a maximal-independent-set lower bound (rows pairwise sharing no column
//     each require a distinct column, so the sum of their cheapest covers is
//     a valid bound), served from per-row weight-sorted column lists so each
//     node probes a handful of entries instead of rescanning every column,
//   * a subgradient Lagrangian lower bound (ucp/lagrangian.hpp) that
//     provably dominates the MIS bound at the root and is warm-started from
//     the parent's multipliers at every child node,
//   * reduced-cost column fixing: with node bound L and reduced costs rc,
//     any cover through column j costs >= L + max(0, rc_j); columns pushed
//     strictly past the incumbent are discarded (at the root and
//     periodically during the search) without losing any optimal cover,
//   * incumbent seeding from the greedy cover and an optional caller-
//     provided warm start, so pruning has a real upper bound at node zero,
//   * branching on the hardest row (fewest available columns), trying its
//     columns cheapest-first, with the standard inclusion/exclusion
//     completeness argument, explored depth-first.
// Every configuration returns the same optimal cover cost; the legacy
// configuration (Lagrangian + fixing off) reproduces the v1 search tree
// node-for-node, which determinism tests pin. The solver is exact
// whenever it finishes within the node budget; the `optimal` flag reports
// this.
//
// BnbOptions itself lives in ucp/bnb_options.hpp so option-carrying types
// (SynthesisOptions, engines, CLIs) need not include the solver.
#pragma once

#include "ucp/bnb_options.hpp"
#include "ucp/cover.hpp"

namespace cdcs::ucp {

/// Exact minimum-weight cover. Returns cost = +infinity and empty `chosen`
/// when the problem is infeasible. `optimal` is true when the search
/// completed within `max_nodes` (otherwise the best incumbent is returned).
/// Non-optimal exits report the Lagrangian root bound (fallback:
/// independent-rows bound) in CoverSolution::lower_bound.
///
/// Runs the backend `options.backend` names (ucp/cover_solver.hpp); empty
/// means dense_dp up to kDefaultDenseDpRows rows and bnb_v2 above.
/// Throws std::invalid_argument for unknown names or a named backend that
/// cannot handle the instance (e.g. dense_dp above kDenseDpMaxRows rows).
/// Defined with the registry in ucp/cover_solver.cpp.
CoverSolution solve_exact(const CoverProblem& problem,
                          const BnbOptions& options = {});

namespace detail {
/// The bnb_v2 engine: serial depth-first branch-and-bound. `lower_bound`
/// holds the bound established at the root node (0 when the root was never
/// evaluated); solve_exact turns it into the reported bound. Internal:
/// callers go through solve_exact.
CoverSolution solve_serial_bnb(const CoverProblem& problem,
                               const BnbOptions& options);
}  // namespace detail

}  // namespace cdcs::ucp
