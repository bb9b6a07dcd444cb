// SynthesisOptions and fault-injection switches -- the knobs shared by the
// one-shot synthesize() entry points, the incremental synth::Engine, and the
// CLI flag parsers. Split from candidate_generator.hpp so option-carrying
// code does not pull the enumeration machinery (it still sees BnbOptions,
// via the lightweight ucp/bnb_options.hpp, because the solver configuration
// is embedded by value).
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <string_view>

#include "model/validator.hpp"
#include "sim/delay.hpp"
#include "support/deadline.hpp"
#include "support/fault.hpp"
#include "synth/mergeability.hpp"
#include "ucp/bnb_options.hpp"

namespace cdcs::synth {

class PricingCache;

/// Deterministic fault-injection hooks for robustness testing: a
/// support::FaultInjector armed with a --fault-plan (see support/fault.hpp
/// and docs/robustness.md). Every instrumented failure edge calls
/// fires(<site>) and degrades when it returns true. Off in production.
struct FaultInjection {
  /// Plan-driven injector shared across the pipeline, the engine, and the
  /// journal (so one plan sees every site's hits in order). Null = no
  /// plan armed.
  std::shared_ptr<support::FaultInjector> injector;

  /// True when the failure edge `site` must fire now (the injector counts
  /// the hit either way).
  bool fires(std::string_view site) const {
    return injector != nullptr && injector->should_fail(site);
  }

  bool any_armed() const {
    return injector != nullptr && !injector->plan().empty();
  }
};

/// Hierarchical partitioned synthesis (synth/partition.hpp,
/// synth/partitioned_synthesizer.hpp; docs/performance.md). Large instances
/// are clustered geometrically, each cluster is synthesized by the ordinary
/// pipeline, boundary arcs are re-priced and re-covered in their own repair
/// groups, and the per-cluster covers are stitched into one result whose
/// lower_bound is the sum of the cluster Lagrangian roots. Deterministic:
/// the same instance partitions and stitches identically at every thread
/// count. Small instances (below `arc_threshold`) always take the exact
/// single-pipeline path untouched, so pinned costs and node counts on the
/// paper corpus cannot change. The incremental synth::Engine ignores this
/// block (sessions always run the plain pipeline).
struct PartitioningOptions {
  /// Master switch; off = the plain pipeline regardless of instance size.
  bool enabled = false;
  /// Instances with fewer arcs than this run the plain pipeline even when
  /// `enabled` (the exact fallback of docs/performance.md).
  std::size_t arc_threshold = 64;
  /// k-d median splitting of arc midpoints stops once a leaf holds at most
  /// this many arcs; every emitted cluster (interior or repair) obeys it.
  std::size_t max_cluster_arcs = 24;
  /// Slack multiplier on the Lemma 3.1 mergeability radius used to flag
  /// boundary arcs: arc `a` in cluster C is boundary when some other
  /// cluster C' has 2*dist(m_a, bbox(C')) < margin*(d(a) + maxlen(C')).
  /// 1.0 = exactly the radius within which a cross-cluster pair could
  /// survive the geometric pruning; larger = more conservative repair.
  double boundary_margin = 1.0;
  /// Cap on the fraction of arcs extracted into boundary-repair groups
  /// (highest violation margin first; deterministic tie-break on arc
  /// index). Keeps hotspot-style traffic, where every long arc looks
  /// boundary, from collapsing the partition.
  double max_boundary_fraction = 0.25;
  /// Per-cluster cap on merging size (applied as max_merge_k inside each
  /// cluster, taking the caller's own max_merge_k when that is tighter).
  /// A geometrically tight 24-arc cluster would otherwise enumerate
  /// exponentially many large subsets; mergings beyond 4-way essentially
  /// never win in the corpus geometries. 0 = inherit the caller's
  /// max_merge_k unchanged.
  int cluster_max_merge_k = 4;
};

struct SynthesisOptions {
  model::CapacityPolicy policy = model::CapacityPolicy::kSharedSum;
  PivotRule pivot_rule = PivotRule::kMinDistance;

  // Ablation switches (all on = the paper's algorithm).
  bool use_lemma31 = true;    ///< pairwise geometric pruning at k = 2
  bool use_lemma32 = true;    ///< pivot-based geometric pruning at k >= 3
  bool use_theorem31 = true;  ///< progressive per-arc elimination
  bool use_theorem32 = true;  ///< bandwidth-sum pruning

  /// Bounding-box grid pre-filter: bucket arc midpoints into a uniform grid
  /// and skip subsets whose members are so far apart that the Lemma 3.1/3.2
  /// distance tests are GUARANTEED to prune them (a conservative
  /// triangle-inequality bound; see candidate_generator.cpp). Pure speedup:
  /// the surviving candidate set is bit-identical. Skips are counted in
  /// GenerationStats::grid_prefilter_skips_per_k (and, since every skipped
  /// subset would have been geometry-pruned anyway, also in
  /// pruned_geometry_per_k). Only active for subsets whose corresponding
  /// lemma switch is on.
  bool use_grid_prefilter = true;

  /// Drop priced mergings that do not beat the sum of their members'
  /// point-to-point costs. Keeps the UCP matrix lean; never loses the
  /// optimum (the member singletons cover the same rows for less).
  bool drop_unprofitable = false;

  /// Also price the daisy-chain (bus) structure for subsets with a common
  /// endpoint and keep the cheaper of star/chain per subset.
  bool enable_chain_topology = true;

  /// Also price the Steiner-tree structure (Hanan-grid topology) for
  /// subsets with a common endpoint; the cheapest of star/chain/tree wins.
  bool enable_tree_topology = true;

  /// Largest merging size considered; 0 means |A| (the paper's algorithm).
  int max_merge_k = 0;

  /// Safety valve on subset enumeration per k (the paper's examples stay in
  /// the tens; random scaling benches can explode combinatorially).
  std::size_t max_subsets_per_k = 5'000'000;

  /// Delay-constrained synthesis: when set, every candidate must keep the
  /// worst-case delay of each of its channels within `budget` under
  /// `model` (per-length wire delay + per-node processing). Merged
  /// structures whose detours/hops blow the budget are dropped; a
  /// point-to-point singleton violating it makes the instance infeasible
  /// (std::runtime_error), since no structure can be faster than the
  /// dedicated straight-line implementation.
  struct DelayBudget {
    sim::DelayModel model;
    double budget{0.0};
  };
  std::optional<DelayBudget> delay_budget;

  /// Wall-clock budget for the whole synthesis run (generation + covering).
  /// Point-to-point singletons are ALWAYS generated in full -- they are the
  /// last-resort cover -- but merging enumeration stops once the deadline
  /// expires (stats.deadline_expired records this) and the remaining budget
  /// is handed to the cover solver.
  support::Deadline deadline;

  /// Worker threads for subset pricing and partitioned cluster fan-out.
  /// 0 (default) means all hardware threads; N >= 1 is taken literally
  /// (1 = price on the caller's thread). N > 1 fans each k's surviving
  /// subsets out to a fixed pool of N workers, merging results in
  /// enumeration order so the candidate set is BIT-IDENTICAL to the serial
  /// run for every N (docs/performance.md) -- which is why "all hardware
  /// threads" is a safe default. Enumeration and pruning always stay
  /// serial -- they are cheap and their order carries Theorem 3.1
  /// semantics. Determinism tests pin explicit counts anyway so their
  /// fingerprints never depend on the host.
  int threads = 0;

  /// Optional pricing memoization shared across synthesize() calls
  /// (synth/pricing_cache.hpp). Borrowed, not owned; must outlive the run.
  /// Thread-safe; hits skip the placement solves entirely.
  PricingCache* pricing_cache = nullptr;

  /// Deterministic failure forcing for tests; see FaultInjection.
  FaultInjection fault_injection;

  /// Hierarchical partitioned synthesis for large instances; see
  /// PartitioningOptions. Off by default.
  PartitioningOptions partitioning;

  /// Cover-solver configuration (backend, Lagrangian bounds, reduced-cost
  /// fixing, ...). The 3-argument synthesize() overload uses this;
  /// the 4-argument overload overrides it explicitly. The synthesizer
  /// additionally seeds `solver.warm_start` with the point-to-point
  /// singleton cover when the caller left it empty.
  ucp::BnbOptions solver;
};

}  // namespace cdcs::synth
