// Top-level constraint-driven communication synthesis (Problem 2.1).
//
// Pipeline, exactly as Sec. 3 describes:
//   1. sanitize             -- reject structurally invalid inputs up front
//                              (model/sanitize.hpp);
//   2. generate_candidates  -- Fig. 2: point-to-point optima + non-pruned
//                              k-way mergings, each priced by the placement
//                              optimizer;
//   3. weighted UCP         -- rows = constraint arcs, columns = candidates,
//                              solved exactly by branch-and-bound;
//   4. assemble             -- materialize the winning columns into the
//                              final implementation graph;
//   5. validate             -- independent Def 2.4 / flow check.
//
// Resilience: synthesize() never throws and always returns a *valid* cover
// when one exists, even under a wall-clock deadline. On resource exhaustion
// it degrades along an explicit anytime ladder (docs/robustness.md):
//
//   exact optimum  ->  best incumbent  ->  greedy cover  ->  per-arc
//                                                            point-to-point
//
// and reports which rung it landed on (plus a lower bound and optimality
// gap) in SynthesisResult::degradation.
//
// The result types live in synth/result.hpp and the options in
// synth/options.hpp; the staged pipeline these wrappers drive is
// synth/pipeline.hpp, and the incremental session entry point is
// synth/engine.hpp. Including this header pulls neither the assembler nor
// the cover solver.
#pragma once

#include "support/status.hpp"
#include "synth/options.hpp"
#include "synth/result.hpp"

namespace cdcs::synth {

/// Solves Problem 2.1 for (cg, library). The returned implementation graph
/// keeps references to `cg` and `library`; both must outlive the result.
///
/// Never throws. Error statuses:
///   * kInvalidInput -- cg/library fail the model::check_inputs gate;
///   * kInfeasible   -- some arc has no point-to-point implementation at all;
///   * kInternal     -- an invariant broke downstream (a bug, not bad input).
/// A deadline (SynthesisOptions::deadline) is NOT an error: the result
/// degrades along the anytime ladder and `result.degradation` says how.
///
/// The cover solver runs with `options.solver` (backend, Lagrangian
/// bounds, reduced-cost fixing, ...), its incumbent warm-started with the
/// point-to-point singleton cover, so pruning starts from the anytime
/// ladder's last-resort upper bound.
///
/// Runs the staged pipeline (synth/pipeline.hpp) once, with no session
/// state, or the partitioned path on large instances; edit streams should
/// hold a synth::Engine session (synth/engine.hpp) open instead of calling
/// this in a loop.
support::Expected<SynthesisResult> synthesize(
    const model::ConstraintGraph& cg, const commlib::Library& library,
    const SynthesisOptions& options = {});

/// The result keeps pointers to `cg` and `library`, so a temporary graph
/// or library would leave it dangling: bind both to named objects first.
support::Expected<SynthesisResult> synthesize(
    const model::ConstraintGraph& cg, const commlib::Library&& library,
    const SynthesisOptions& options = {}) = delete;
support::Expected<SynthesisResult> synthesize(
    const model::ConstraintGraph&& cg, const commlib::Library& library,
    const SynthesisOptions& options = {}) = delete;

}  // namespace cdcs::synth
