// Incremental synthesis engine: a long-lived session over one evolving
// constraint graph.
//
// Where synthesize() is the paper's one-shot batch flow, an Engine answers
// an EDIT STREAM: it owns the graph, the communication library, the pricing
// memoization (the persistent pool of priced candidate structures), and the
// last cover solution, and re-synthesizes after each model::Delta:
//
//     Engine engine(workloads::wan2002(), commlib::wan_library());
//     auto base = engine.resynthesize();
//     model::Delta d;
//     d.ops.push_back(model::SetBandwidthOp{"a3", 25.0});
//     auto next = engine.apply(d);   // warm: only dirty subsets re-price
//
// Reuse model (docs/architecture.md): every apply() re-runs the full
// enumeration (cheap, and the source of the candidate set's determinism),
// but subset pricing -- the dominant cost -- is served from the session
// PricingCache. A subset's cache key is a pure function of its endpoint
// geometry, bandwidths, and the library, so an edit invalidates exactly the
// subsets whose pricing inputs it changed (the DeltaEffect::dirty_arcs and
// every subset containing one): everything else hits. The cover solve is
// likewise skipped when the UCP instance is bit-identical to the previous
// one (SessionState). The solver inputs are exactly a cold run's, so
// apply() output is BIT-IDENTICAL to from-scratch synthesize() on the
// edited graph -- the oracle
// tests/test_incremental.cpp pins at 1/2/8 threads.
//
// Lifetime: results reference the session's graph and library (like
// synthesize() results reference the caller's); the Engine must outlive
// them, and a result's implementation graph describes the session state at
// the apply() that produced it -- read what you need before the next apply.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "commlib/library.hpp"
#include "io/journal.hpp"
#include "model/delta.hpp"
#include "support/status.hpp"
#include "synth/options.hpp"
#include "synth/pipeline.hpp"
#include "synth/pricing_cache.hpp"
#include "synth/result.hpp"

namespace cdcs::synth {

class Engine {
 public:
  /// The session takes the graph and library by value and owns them; edit
  /// them only through apply(). `options.pricing_cache`, when set, is used
  /// (and shared) instead of the engine's own cache and must outlive the
  /// engine.
  Engine(model::ConstraintGraph graph, commlib::Library library,
         SynthesisOptions options = {});

  const model::ConstraintGraph& graph() const { return graph_; }
  const commlib::Library& library() const { return library_; }
  const SynthesisOptions& options() const { return options_; }

  /// Applies `delta` to the session graph and re-synthesizes. ALL-OR-
  /// NOTHING: on any failure -- a rejected batch, a journal append that
  /// exhausts its retries, an injected engine.apply fault, or a synthesis
  /// error -- the whole session (graph, cover-reuse state, stats,
  /// journal) is restored to its pre-apply state, and a
  /// journal record already written for the failed batch is truncated back
  /// out. Error statuses are synthesize()'s plus kInvalidInput for a bad
  /// delta. Like synthesize(), never throws.
  support::Expected<SynthesisResult> apply(const model::Delta& delta);

  /// Re-synthesizes the current graph without edits (an empty apply()).
  support::Expected<SynthesisResult> resynthesize();

  // -- Durability (docs/robustness.md) ------------------------------------
  //
  // open_journal() starts write-ahead logging this session to a journal
  // file (io/journal.hpp): the current graph is snapshotted as the base
  // record, and every subsequent successful apply() appends its delta
  // BEFORE synthesis runs, so a crash at any point leaves base + applied
  // batches on disk. recover() rebuilds the session from such a journal --
  // replaying the deltas over the snapshot graph-only, healing a torn
  // tail by truncating to the last valid record -- and reopens the file
  // for appending. A resynthesize() on the recovered engine returns
  // bit-identical results (same cover cost, same ucp_nodes) to the
  // uninterrupted session's last apply(), because synthesis is a
  // deterministic function of the graph.

  /// Snapshots the current graph into a fresh journal at `path` and turns
  /// on logging for subsequent apply() calls. `journal_options.injector`
  /// defaults to this session's fault injector when unset. Replaces any
  /// journal already open.
  support::Status open_journal(const std::string& path,
                               io::JournalOptions journal_options = {});

  /// Stops journaling (the file keeps its records; nothing is deleted).
  void close_journal() { journal_.close(); }

  bool journaling() const { return journal_.is_open(); }

  struct RecoveryReport {
    std::uint64_t records_recovered{0};  ///< valid records, incl. snapshot
    std::uint64_t deltas_replayed{0};
    std::uint64_t bytes_dropped{0};      ///< torn tail truncated away
    bool tail_truncated{false};
  };

  /// Rebuilds a session from a journal: reads the base snapshot, replays
  /// every recovered delta (graph-only; call resynthesize() on the result
  /// to rebuild the solution), truncates any torn tail, and reopens the
  /// journal for appending. `options.fault_injection` is consulted at the
  /// engine.recover site; `journal_options.injector` defaults from it.
  /// Returns a pointer because Engine is immovable (it owns a mutex-holding
  /// pricing cache).
  static support::Expected<std::unique_ptr<Engine>> recover(
      const std::string& journal_path, commlib::Library library,
      SynthesisOptions options = {},
      RecoveryReport* report = nullptr,
      io::JournalOptions journal_options = {});

  struct SessionStats {
    std::size_t applies{0};        ///< successful apply()/resynthesize() runs
    std::size_t cover_solves{0};   ///< exact cover solves actually run
    std::size_t cover_reuses{0};   ///< cover solves skipped (identical UCP)
    /// Pricing-cache traffic since the engine was constructed -- a snapshot
    /// delta of the cache's own counters (the single source of truth; see
    /// PricingCache::Stats), so it agrees with cache->stats() even when an
    /// apply() fails after generation. Over a cache SHARED with other
    /// concurrent users it includes their traffic too.
    std::size_t pricing_hits{0};
    std::size_t pricing_misses{0};
    std::size_t last_dirty_arcs{0};  ///< dirtied by the latest delta
    std::uint64_t revision{0};       ///< graph revision after latest apply
  };
  SessionStats stats() const;

 private:
  support::Expected<SynthesisResult> synthesize_current();
  /// Restores every piece of session state apply() snapshots, and truncates
  /// the journal record of the failed batch when one was already appended.
  void rollback_apply(model::ConstraintGraph&& graph, SessionState&& session,
                      SessionStats&& stats, bool journaled);

  model::ConstraintGraph graph_;
  commlib::Library library_;
  SynthesisOptions options_;
  PricingCache own_cache_;  ///< used unless options_.pricing_cache is set
  /// Cache counters at construction; stats() reports the delta since.
  PricingCache::Stats cache_baseline_;
  SessionState session_;
  SessionStats stats_;

  /// Write-ahead log of applied deltas; closed unless open_journal() /
  /// recover() armed it.
  io::JournalWriter journal_;
};

}  // namespace cdcs::synth
