#include "synth/pipeline.hpp"

#include <cstdint>
#include <numeric>
#include <utility>

#include "model/validator.hpp"
#include "support/fault.hpp"
#include "support/flight_recorder.hpp"
#include "support/metrics.hpp"
#include "synth/assemble.hpp"
#include "synth/candidate_generator.hpp"
#include "ucp/bnb.hpp"
#include "ucp/greedy.hpp"

namespace cdcs::synth {
namespace {

/// Bit-exact signature of one cover solve: the full matrix plus every
/// BnbOptions field the search reads. Two runs with equal signatures (and
/// unlimited deadlines) are the same deterministic computation, so the
/// previous CoverSolution -- nodes_explored, bounds and all -- IS the
/// result of redoing the solve. Encoded as doubles: every encoded
/// integer (row/column indices, node budgets) is far below 2^53, so the
/// round-trip is exact.
std::vector<double> cover_signature(std::size_t num_rows,
                                    const CandidateSet& set,
                                    const ucp::BnbOptions& solver) {
  std::vector<double> sig;
  sig.reserve(8 + set.candidates.size() * 4 + solver.warm_start.size());
  sig.push_back(static_cast<double>(num_rows));
  sig.push_back(static_cast<double>(set.candidates.size()));
  for (const Candidate& c : set.candidates) {
    sig.push_back(c.cost);
    sig.push_back(static_cast<double>(c.arcs.size()));
    for (model::ArcId a : c.arcs) sig.push_back(static_cast<double>(a.index()));
  }
  sig.push_back(static_cast<double>(solver.max_nodes));
  sig.push_back(static_cast<double>(
      (std::uint64_t{solver.use_row_dominance} << 0) |
      (std::uint64_t{solver.use_column_dominance} << 1) |
      (std::uint64_t{solver.use_mis_lower_bound} << 2) |
      (std::uint64_t{solver.use_lagrangian_bound} << 3) |
      (std::uint64_t{solver.use_reduced_cost_fixing} << 4)));
  sig.push_back(static_cast<double>(solver.warm_start.size()));
  for (std::size_t j : solver.warm_start) {
    sig.push_back(static_cast<double>(j));
  }
  // Backend selection changes which engine runs, so it is part of the
  // solve's identity (length + characters; each char value is exact as a
  // double).
  sig.push_back(static_cast<double>(solver.backend.size()));
  for (char ch : solver.backend) {
    sig.push_back(static_cast<double>(static_cast<unsigned char>(ch)));
  }
  return sig;
}

/// The solver configuration stage 3 actually runs: `options.solver` with
/// the pipeline deadline inherited, fault injection applied, and -- when
/// warm_start is empty and the singletons exist -- the point-to-point
/// singleton cover seeded as the incumbent.
ucp::BnbOptions effective_solver(const SynthesisOptions& options,
                                 std::size_t num_rows,
                                 std::size_t num_candidates) {
  ucp::BnbOptions solver = options.solver;
  if (solver.deadline.unlimited()) solver.deadline = options.deadline;
  if (options.fault_injection.fires(support::fault_sites::kUcpSolve)) {
    solver.deadline = support::Deadline::expire_after_checks(0);
  }
  // Let the cover backends consult the armed plan's "ucp.frontier" site.
  if (solver.fault_injector == nullptr &&
      options.fault_injection.injector != nullptr) {
    solver.fault_injector = options.fault_injection.injector.get();
  }
  // Seed the incumbent with the anytime ladder's last rung: generation
  // emits the singletons first (candidate i covers exactly arc i), so
  // {0..rows-1} is always a feasible cover and branch-and-bound pruning
  // starts with a real upper bound even when greedy underperforms.
  if (solver.warm_start.empty() && num_candidates >= num_rows) {
    solver.warm_start.resize(num_rows);
    std::iota(solver.warm_start.begin(), solver.warm_start.end(),
              std::size_t{0});
  }
  return solver;
}

}  // namespace

ucp::CoverProblem build_cover_problem(std::size_t num_rows,
                                      const CandidateSet& set) {
  ucp::CoverProblem cover(num_rows);
  for (const Candidate& c : set.candidates) {
    std::vector<std::size_t> rows;
    rows.reserve(c.arcs.size());
    for (model::ArcId a : c.arcs) rows.push_back(a.index());
    cover.add_column(rows, c.cost);
  }
  return cover;
}

support::Expected<CoverOutcome> cover_and_ladder(
    std::size_t num_rows, const CandidateSet& set,
    const SynthesisOptions& options, SessionState* session) {
  const GenerationStats& stats = set.stats;
  auto& registry = support::MetricsRegistry::global();
  CoverOutcome result;

  const ucp::CoverProblem cover = build_cover_problem(num_rows, set);
  const ucp::BnbOptions solver =
      effective_solver(options, num_rows, set.candidates.size());

  // Cover stage: reuse the session's previous solution when this instance
  // is bit-identical to the one it solved (same matrix, same solver
  // configuration, no deadline in play -- an expired deadline makes the
  // result time-dependent, which a signature cannot capture). Solves with
  // an armed fault injector are excluded too (its hit counters are
  // stateful: replaying a cached result would skip consultations the plan
  // is counting on).
  const bool reusable = session != nullptr && solver.deadline.unlimited() &&
                        solver.fault_injector == nullptr;
  std::vector<double> signature;
  if (reusable) {
    signature = cover_signature(num_rows, set, solver);
  }
  if (reusable && !session->last_cover_signature.empty() &&
      signature == session->last_cover_signature) {
    support::Span span("cover", "pipeline", "{\"reused\":true}");
    result.cover = session->last_cover;
    session->cover_reuses += 1;
    registry.counter("ucp.cover_reuses").add(1);
    support::flight_record("stage", "cover reused");
  } else {
    support::ScopedTimer span("cover", "pipeline",
                              &registry.histogram("synth.stage.cover.us"),
                              &registry.counter("synth.stage.cover.wall_us"));
    result.cover = ucp::solve_exact(cover, solver);
    registry.counter("ucp.solves").add(1);
    registry.counter("ucp.nodes_explored").add(result.cover.nodes_explored);
    support::flight_record(
        "backend", "cover backend=" + result.cover.backend + " stop=" +
                       std::string(to_string(result.cover.stop)) +
                       (result.cover.optimal ? " optimal" : " incumbent"));
    if (session != nullptr) {
      session->cover_solves += 1;
      if (reusable) {
        session->last_cover_signature = std::move(signature);
        session->last_cover = result.cover;
      } else {
        // A deadline-bound solve is not reusable; drop any stale state so
        // a later unlimited run cannot match against it.
        session->last_cover_signature.clear();
        session->last_cover = {};
      }
    }
  }

  {
  support::ScopedTimer ladder_span(
      "ladder", "pipeline", &registry.histogram("synth.stage.ladder.us"),
      &registry.counter("synth.stage.ladder.wall_us"));
  DegradationReport& deg = result.degradation;
  deg.lower_bound = result.cover.lower_bound;

  if (options.fault_injection.fires(support::fault_sites::kUcpIncumbent)) {
    result.cover.chosen.clear();
    result.cover.cost = 0.0;
    result.cover.optimal = false;
  }

  const bool generation_complete =
      !stats.enumeration_truncated && !stats.deadline_expired;
  const bool solver_usable = num_rows == 0 ||
                             (!result.cover.chosen.empty() &&
                              cover.covers_all(result.cover.chosen));

  if (solver_usable) {
    if (result.cover.optimal && generation_complete) {
      deg.stage = SynthesisStage::kExact;
    } else {
      deg.stage = SynthesisStage::kIncumbent;
      if (!result.cover.optimal) {
        switch (result.cover.stop) {
          case ucp::CoverStop::kDeadline:
            deg.reason =
                "deadline expired in the cover solver; best incumbent "
                "returned";
            break;
          case ucp::CoverStop::kAborted:
            deg.reason =
                "cover solver aborted by injected fault; best incumbent "
                "returned";
            break;
          default:
            deg.reason =
                "cover solver node budget exhausted; best incumbent "
                "returned";
            break;
        }
      } else {
        deg.reason = stats.deadline_expired
                         ? "deadline expired during candidate enumeration; "
                           "cover is optimal over the partial candidate set"
                         : "candidate enumeration truncated at "
                           "max_subsets_per_k; cover is optimal over the "
                           "partial candidate set";
      }
    }
  } else {
    // The solver produced nothing usable (deadline hit before any incumbent,
    // or fault injection discarded it). Greedy cover next.
    ucp::CoverSolution greedy;
    if (!options.fault_injection.fires(support::fault_sites::kUcpGreedy)) {
      greedy = ucp::solve_greedy(cover);
    }
    if (!greedy.chosen.empty() && cover.covers_all(greedy.chosen)) {
      result.cover = std::move(greedy);
      result.cover.deadline_expired = true;
      deg.stage = SynthesisStage::kGreedy;
      deg.reason = "cover solver returned no usable incumbent; greedy cover";
    } else {
      // Last rung: one optimum point-to-point link per arc. Generation
      // emits the singletons first (candidate i covers exactly arc i) and
      // never deadline-gates them, so this cover always exists here.
      if (set.candidates.size() < num_rows) {
        return support::Status::Internal(
            "point-to-point fallback: candidate set is missing singletons");
      }
      result.cover = ucp::CoverSolution{};
      result.cover.chosen.resize(num_rows);
      std::iota(result.cover.chosen.begin(), result.cover.chosen.end(),
                std::size_t{0});
      result.cover.cost = cover.cost_of(result.cover.chosen);
      result.cover.deadline_expired = true;
      deg.stage = SynthesisStage::kPointToPoint;
      deg.reason =
          "no usable incumbent and no greedy cover; every arc implemented "
          "point-to-point";
    }
    result.cover.lower_bound = deg.lower_bound;
  }
  // For exact runs the bound equals the achieved cost, so the gap is 0
  // either way; computing it unconditionally lets reporting surface the
  // bound-relative gap whenever a meaningful lower bound exists.
  deg.optimality_gap = ucp::optimality_gap(result.cover.cost, deg.lower_bound);
  if (deg.degraded()) {
    registry.counter("synth.degraded_runs").add(1);
    support::trace_instant("degraded", "pipeline",
                           "{\"stage\":\"" +
                               std::string(to_string(deg.stage)) + "\"}");
    support::flight_record(
        "ladder", "degraded to " + std::string(to_string(deg.stage)) +
                      " stop=" + std::string(to_string(result.cover.stop)) +
                      ": " + deg.reason);
    // A degraded exit (stage past exact: incumbent/greedy/point-to-point,
    // which subsumes deadline expiry and kAborted) is a postmortem trigger.
    support::maybe_dump_postmortem(
        "degraded", std::string(to_string(deg.stage)) + ": " + deg.reason);
  }
  }  // ladder span
  return result;
}

void assemble_and_validate(const model::ConstraintGraph& cg,
                           const commlib::Library& library,
                           const SynthesisOptions& options,
                           SynthesisResult& result) {
  auto& registry = support::MetricsRegistry::global();
  {
    support::ScopedTimer span(
        "assemble", "pipeline", &registry.histogram("synth.stage.assemble.us"),
        &registry.counter("synth.stage.assemble.wall_us"));
    result.implementation = assemble(cg, library,
                                     result.candidate_set.candidates,
                                     result.cover.chosen);
    result.total_cost = result.implementation->cost();
  }
  {
    support::ScopedTimer span(
        "validate", "pipeline", &registry.histogram("synth.stage.validate.us"),
        &registry.counter("synth.stage.validate.wall_us"));
    result.validation = model::validate(*result.implementation, options.policy);
  }
  support::flight_record(
      "stage", "assembled cost=" + std::to_string(result.total_cost) +
                   (result.validation.ok() ? " valid" : " INVALID"));
}

support::Expected<SynthesisResult> run_pipeline(
    const model::ConstraintGraph& cg, const commlib::Library& library,
    const SynthesisOptions& options, SessionState* session) {
  SynthesisResult result;
  support::Expected<CandidateSet> gen =
      generate_candidates(cg, library, options);
  if (!gen.ok()) {
    return std::move(gen).take_status().with_context("candidate generation");
  }
  result.candidate_set = *std::move(gen);
  support::Expected<CoverOutcome> outcome = cover_and_ladder(
      cg.num_channels(), result.candidate_set, options, session);
  if (!outcome.ok()) return std::move(outcome).take_status();
  result.cover = std::move(outcome->cover);
  result.degradation = std::move(outcome->degradation);
  assemble_and_validate(cg, library, options, result);
  support::MetricsRegistry::global().counter("synth.runs").add(1);
  return result;
}

}  // namespace cdcs::synth
