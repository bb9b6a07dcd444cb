// Greedy weighted set-cover heuristic: repeatedly picks the column with the
// best weight-per-newly-covered-row ratio. Classic ln(n)-approximation; used
// as the initial upper bound for the exact branch-and-bound and as the
// heuristic baseline in the UCP benchmark.
#pragma once

#include <cstddef>
#include <vector>

#include "ucp/cover.hpp"

namespace cdcs::ucp {

/// Returns a feasible cover, or an empty solution with cost = +infinity when
/// the problem itself is infeasible. `optimal` is always false.
CoverSolution solve_greedy(const CoverProblem& problem);

/// The incumbent both exact engines start from (bnb_v2) or fall back to
/// (an abandoned dense DP): the greedy cover, replaced by `warm_start` when
/// that is a valid, cheaper cover. Fills `best` and returns its cost.
double seed_incumbent(const CoverProblem& problem,
                      const std::vector<std::size_t>& warm_start,
                      std::vector<std::size_t>& best);

}  // namespace cdcs::ucp
