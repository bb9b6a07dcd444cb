#include "synth/engine.hpp"

#include <exception>
#include <memory>
#include <string>
#include <utility>

#include "model/sanitize.hpp"
#include "support/fault.hpp"
#include "support/flight_recorder.hpp"
#include "support/metrics.hpp"
#include "support/obs_context.hpp"

namespace cdcs::synth {

Engine::Engine(model::ConstraintGraph graph, commlib::Library library,
               SynthesisOptions options)
    : graph_(std::move(graph)),
      library_(std::move(library)),
      options_(std::move(options)) {
  if (options_.pricing_cache == nullptr) {
    options_.pricing_cache = &own_cache_;
  }
  cache_baseline_ = options_.pricing_cache->stats();
}

support::Expected<SynthesisResult> Engine::apply(const model::Delta& delta) {
  support::Span span("engine.apply", "engine",
                     "{\"revision\":" + std::to_string(graph_.revision()) +
                         ",\"ops\":" + std::to_string(delta.ops.size()) + "}");
  support::flight_record("stage",
                         "engine.apply revision=" +
                             std::to_string(graph_.revision()) +
                             " ops=" + std::to_string(delta.ops.size()));
  // All-or-nothing: snapshot every piece of session state this apply can
  // touch, so any downstream failure (journal append, injected fault,
  // synthesis error) restores the session byte-for-byte.
  model::ConstraintGraph graph_before = graph_;
  SessionState session_before = session_;
  SessionStats stats_before = stats_;

  support::Expected<model::DeltaEffect> effect =
      model::apply_delta(graph_, delta);
  if (!effect.ok()) {
    // apply_delta is itself atomic: nothing to roll back.
    return std::move(effect).take_status().with_context("Engine::apply");
  }
  stats_.last_dirty_arcs = effect->dirty_arcs.size();
  stats_.revision = graph_.revision();
  support::MetricsRegistry::global()
      .counter("engine.dirty_arcs")
      .add(effect->dirty_arcs.size());

  // Write-ahead: the delta lands on disk before synthesis runs, so a crash
  // during (or after) the solve still replays this batch on recovery.
  bool journaled = false;
  if (journal_.is_open()) {
    support::Status logged = journal_.append_delta(delta);
    if (!logged.ok()) {
      rollback_apply(std::move(graph_before), std::move(session_before),
                     std::move(stats_before), /*journaled=*/false);
      return std::move(logged).with_context("Engine::apply");
    }
    journaled = true;
  }

  if (options_.fault_injection.fires(support::fault_sites::kEngineApply)) {
    rollback_apply(std::move(graph_before), std::move(session_before),
                   std::move(stats_before), journaled);
    return support::Status::Internal(
               "injected fault at " +
               std::string(support::fault_sites::kEngineApply))
        .with_context("Engine::apply");
  }

  support::Expected<SynthesisResult> result = synthesize_current();
  if (!result.ok()) {
    rollback_apply(std::move(graph_before), std::move(session_before),
                   std::move(stats_before), journaled);
  }
  return result;
}

void Engine::rollback_apply(model::ConstraintGraph&& graph,
                            SessionState&& session, SessionStats&& stats,
                            bool journaled) {
  graph_ = std::move(graph);
  session_ = std::move(session);
  stats_ = std::move(stats);
  support::MetricsRegistry::global().counter("engine.rollbacks").add(1);
  if (journaled && journal_.is_open()) {
    support::Status truncated = journal_.truncate_last_record();
    if (!truncated.ok()) {
      // The file now holds a record for a batch the session rolled back.
      // Stop journaling rather than let the log diverge from the session;
      // recovery from this file would replay one batch too many.
      journal_.close();
    }
  }
}

support::Status Engine::open_journal(const std::string& path,
                                     io::JournalOptions journal_options) {
  if (journal_options.injector == nullptr) {
    journal_options.injector = options_.fault_injection.injector;
  }
  support::Expected<io::JournalWriter> writer =
      io::JournalWriter::create(path, graph_, std::move(journal_options));
  if (!writer.ok()) {
    return std::move(writer).take_status().with_context(
        "Engine::open_journal");
  }
  journal_ = *std::move(writer);
  return support::Status::Ok();
}

support::Expected<std::unique_ptr<Engine>> Engine::recover(
    const std::string& journal_path, commlib::Library library,
    SynthesisOptions options, RecoveryReport* report,
    io::JournalOptions journal_options) {
  support::Span span("engine.recover", "engine");
  if (options.fault_injection.fires(support::fault_sites::kEngineRecover)) {
    return support::Status::Internal(
               "injected fault at " +
               std::string(support::fault_sites::kEngineRecover))
        .with_context("Engine::recover('" + journal_path + "')");
  }
  support::Expected<io::JournalContents> contents =
      io::read_journal(journal_path);
  if (!contents.ok()) {
    return std::move(contents).take_status().with_context("Engine::recover");
  }

  // Replay graph-only: synthesis is a deterministic function of the graph,
  // so one resynthesize() on the result reproduces the uninterrupted
  // session's last solution bit-for-bit.
  model::ConstraintGraph graph = std::move(contents->base);
  std::uint64_t replayed = 0;
  for (const model::Delta& delta : contents->deltas) {
    support::Expected<model::DeltaEffect> effect =
        model::apply_delta(graph, delta);
    if (!effect.ok()) {
      // The record checksummed clean, so a replay failure means the journal
      // and the session logic disagree -- corruption or a bug, not a torn
      // tail.
      return std::move(effect)
          .take_status()
          .with_context("replaying journal record " +
                        std::to_string(replayed + 2))
          .with_context("Engine::recover('" + journal_path + "')");
    }
    ++replayed;
  }

  if (journal_options.injector == nullptr) {
    journal_options.injector = options.fault_injection.injector;
  }
  support::Expected<io::JournalWriter> writer = io::JournalWriter::append_to(
      journal_path, contents->valid_prefix_bytes,
      std::move(contents->record_offsets), std::move(journal_options));
  if (!writer.ok()) {
    return std::move(writer).take_status().with_context("Engine::recover");
  }

  if (report != nullptr) {
    report->records_recovered = contents->records_recovered;
    report->deltas_replayed = replayed;
    report->bytes_dropped = contents->bytes_dropped;
    report->tail_truncated = contents->tail_truncated();
  }
  auto engine = std::make_unique<Engine>(std::move(graph), std::move(library),
                                         std::move(options));
  engine->journal_ = *std::move(writer);
  support::MetricsRegistry::global().counter("engine.recoveries").add(1);
  support::flight_record("stage", "engine.recover replayed=" +
                                      std::to_string(replayed));
  return engine;
}

support::Expected<SynthesisResult> Engine::resynthesize() {
  support::Span span("engine.resynthesize", "engine");
  stats_.last_dirty_arcs = 0;
  stats_.revision = graph_.revision();
  return synthesize_current();
}

support::Expected<SynthesisResult> Engine::synthesize_current() {
  // Everything this solve emits -- spans, counters, flight events -- is
  // attributed to its revision, nesting under any session-level scope the
  // caller (CLI --obs-session, a service tenant) already opened.
  support::ObsContext obs_scope("solve=" + std::to_string(graph_.revision()));
  support::Status gate = model::check_inputs(graph_, library_);
  if (!gate.ok()) return std::move(gate).with_context("Engine::apply");
  try {
    support::Expected<SynthesisResult> result =
        run_pipeline(graph_, library_, options_, &session_);
    if (!result.ok()) {
      return std::move(result).take_status().with_context("Engine::apply");
    }
    stats_.applies += 1;
    stats_.cover_solves = session_.cover_solves;
    stats_.cover_reuses = session_.cover_reuses;
    support::MetricsRegistry::global().counter("engine.applies").add(1);
    return result;
  } catch (const std::exception& e) {
    return support::Status::Internal(std::string("unexpected exception: ") +
                                     e.what())
        .with_context("Engine::apply");
  }
}

Engine::SessionStats Engine::stats() const {
  SessionStats s = stats_;
  // Pricing accounting reads the cache's own counters (the single place
  // hits/misses are incremented) rather than re-accumulating per-run
  // deltas, so SessionStats can never drift from PricingCache::Stats.
  const PricingCache::Stats cs = options_.pricing_cache->stats();
  s.pricing_hits =
      cs.hits >= cache_baseline_.hits ? cs.hits - cache_baseline_.hits : 0;
  s.pricing_misses = cs.misses >= cache_baseline_.misses
                         ? cs.misses - cache_baseline_.misses
                         : 0;
  s.revision = graph_.revision();
  return s;
}

}  // namespace cdcs::synth
