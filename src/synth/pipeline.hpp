// The staged synthesis pipeline (Fig. 2 + covering + materialization),
// factored out of the one-shot synthesize() wrappers so the incremental
// synth::Engine drives the SAME stages over its session state:
//
//   generate  -- candidate enumeration + pricing (candidate_generator.hpp;
//                pricing memoized via SynthesisOptions::pricing_cache)
//   cover     -- build the UCP matrix and solve it exactly, or reuse the
//                session's previous solution when the matrix and solver
//                configuration are bit-identical to the last solve
//   ladder    -- anytime degradation (exact -> incumbent -> greedy -> ptp)
//   assemble  -- materialize the chosen columns (assemble.hpp)
//   validate  -- independent Def 2.4 / flow check
//
// Reuse is strictly output-preserving: a SessionState only ever short-cuts
// work whose result is provably bit-identical to redoing it (the cover
// signature captures every solver input), so a warm run returns exactly the
// bytes a cold run would -- the invariant the incremental oracle tests pin
// (docs/architecture.md).
#pragma once

#include <cstddef>
#include <vector>

#include "support/status.hpp"
#include "synth/options.hpp"
#include "synth/result.hpp"
#include "ucp/cover.hpp"

namespace cdcs::synth {

/// Persistent cover-solver state a session threads through run_pipeline.
/// The one-shot synthesize() wrappers pass nullptr (every stage runs cold).
struct SessionState {
  /// Signature of the last exactly-solved cover instance: the full UCP
  /// matrix plus every solver option that steers the search (see
  /// cover_signature in pipeline.cpp). Empty = nothing reusable held.
  std::vector<double> last_cover_signature;
  /// What solve_exact returned for that signature (stored pre-ladder, so
  /// fault injection and fallbacks never contaminate it).
  ucp::CoverSolution last_cover;

  /// Session counters (Engine::stats()).
  std::size_t cover_solves{0};
  std::size_t cover_reuses{0};
};

/// Stage 2 -> 3 bridge: the UCP matrix (row i = constraint arc i, one
/// column per candidate, weighted by candidate cost).
ucp::CoverProblem build_cover_problem(std::size_t num_rows,
                                      const CandidateSet& set);

/// Outcome of stages 3-4 (cover + anytime ladder) over one candidate set:
/// the cover actually returned (after any fallback rung) and the
/// degradation report explaining which rung produced it. Split out of
/// run_pipeline so the partitioned synthesizer can run cover + ladder per
/// cluster and assemble/validate ONCE on the stitched whole.
struct CoverOutcome {
  ucp::CoverSolution cover;
  DegradationReport degradation;
};

/// Stages 3-4: build the UCP matrix from `set`, solve it with
/// `options.solver` (or reuse the session's bit-identical previous solve),
/// and walk the anytime ladder. `num_rows` is the arc count of the
/// (sub)instance; `session` may be nullptr.
support::Expected<CoverOutcome> cover_and_ladder(
    std::size_t num_rows, const CandidateSet& set,
    const SynthesisOptions& options, SessionState* session);

/// Stage 5: materialize result.cover into result.implementation /
/// total_cost and run the independent Def 2.4 validation. Requires
/// result.candidate_set and result.cover to be filled; may throw (the
/// assembler rejects non-covering selections), which the synthesize()
/// catch-all converts to a Status.
void assemble_and_validate(const model::ConstraintGraph& cg,
                           const commlib::Library& library,
                           const SynthesisOptions& options,
                           SynthesisResult& result);

/// Stages 2-5 end to end. `session` may be nullptr (one-shot run). Does not
/// gate inputs and may throw; synthesize()/Engine::apply wrap it in the
/// check_inputs gate and the catch-all.
support::Expected<SynthesisResult> run_pipeline(
    const model::ConstraintGraph& cg, const commlib::Library& library,
    const SynthesisOptions& options, SessionState* session);

}  // namespace cdcs::synth
