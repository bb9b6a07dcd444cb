// Deterministic parallel branch-and-bound for the weighted UCP, the
// parallel_bnb backend (docs/performance.md section 8).
//
// Round-synchronous: each round pops the top rounds_batch_size frontier
// nodes sequentially, expands them in parallel as PURE functions of the
// round-start incumbent, and merges children sequentially in batch order.
// The explored tree is a function of (instance, options) only, so
// nodes_explored, the final cover, and CoverSolution::explored_fingerprint
// are bit-identical at any thread count.
//
// Internal header: callers go through ucp::solve_exact with
// BnbOptions::backend = "parallel_bnb".
#pragma once

#include "ucp/bnb_options.hpp"
#include "ucp/cover.hpp"

namespace cdcs::ucp {

/// Runs the rounds engine on `options.threads` workers (borrowing
/// `options.pool` when set). `lower_bound` holds the bound established at
/// the root node; solve_exact turns it into the reported bound.
CoverSolution solve_parallel_bnb(const CoverProblem& problem,
                                 const BnbOptions& options);

}  // namespace cdcs::ucp
