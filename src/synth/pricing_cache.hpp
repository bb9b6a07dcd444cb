// Memoization cache for subset pricing (the placement NLP / Weiszfeld
// solves that dominate candidate-generation time).
//
// The three structure pricers are pure functions of
//     (subset endpoint geometry, subset bandwidths, norm, capacity policy,
//      communication library),
// so a priced subset can be reused across increasing k within one run,
// across repeated synthesize() calls (Pareto sweeps over delay budgets,
// sensitivity runs), and even across distinct constraint graphs that happen
// to contain geometrically identical subsets. The cache key is the
// canonical subset signature: the per-arc (source, target, bandwidth)
// records in canonical order plus the library fingerprint
// (commlib::Library::fingerprint), the norm, the capacity policy, and the
// structure-enable flags. Anything the pricers read is in the key, so a
// hit is bit-identical to a fresh solve; mutating or swapping the library
// changes its fingerprint and invalidates every entry automatically.
//
// Entries store the RAW priced structures, before delay-budget filtering
// and profitability accounting -- those are cheap per-subset decisions the
// generator re-applies per run, which is what lets a Pareto sweep over
// delay budgets hit the cache at every point.
//
// Plans embed model::ArcId values of the graph they were priced on. The
// key's per-arc records are in CANONICAL order (sorted by the geometry
// record, not by arc id; canonical_subset_order), and a cached plan holds
// canonical positions in place of arc ids. So graphs whose arc ids are
// permuted share one entry -- the same subset shuffled is a HIT, not a
// miss -- and the caller maps the one plan it keeps onto its own arc ids
// (Entry::retargeted). Entries are immutable once inserted and handed out
// as shared pointers, so a hit copies no other plan.
//
// Thread safety: lookup/insert take a mutex around a map probe and a
// reference-count bump (a tree pricing alone takes 8-13 us); hit/miss
// counters are sharded support::Counter metrics -- the SINGLE source of
// truth for cache accounting (GenerationStats and Engine::SessionStats
// report deltas of these counters, never their own increments; see
// docs/observability.md).
// The cache never evicts on its own -- covering instances price at most a
// few thousand subsets -- so correctness never depends on retention policy;
// clear() is the only eviction path and counts what it dropped.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "support/metrics.hpp"
#include "synth/candidate.hpp"
#include "synth/canonical_order.hpp"

namespace cdcs::synth {

class PricingCache {
 public:
  /// Canonical subset signature; see file comment for what must be in here
  /// (everything the pricers read) and why.
  struct Key {
    std::uint64_t library_fingerprint{0};
    geom::Norm norm{};
    model::CapacityPolicy policy{};
    bool chain_enabled{false};
    bool tree_enabled{false};
    /// Five doubles per arc: source x/y, target x/y, bandwidth -- in
    /// CANONICAL order (sorted by the record), not subset order.
    std::vector<double> arc_geometry;

    friend bool operator==(const Key&, const Key&) = default;
  };

  /// The raw pricing outcome for one subset: the realizable merging plans
  /// in star, chain, tree order. A structure that is absent is not
  /// realizable for this subset (a definitive answer, cacheable); pricings
  /// aborted by a deadline are never inserted.
  struct Entry {
    /// Each plan's arcs hold its canonical permutation, not arc ids:
    /// ArcId{c} stands for the arc at canonical position c of the subset.
    std::vector<Plan> plans;

    /// Builds an entry from freshly priced plans of `subset`, rewriting
    /// their arcs to positions in its CANONICAL record order
    /// (`canonical_order`, from canonical_subset_order).
    static Entry make(const std::vector<model::ArcId>& subset,
                      const std::vector<std::uint32_t>& canonical_order,
                      std::vector<Plan> plans);

    /// A copy of plans[i] with its arcs mapped onto `subset` (the caller's
    /// graph, whose canonical record order is `canonical_order`), in the
    /// plan's own order.
    Plan retargeted(std::size_t i, const std::vector<model::ArcId>& subset,
                    const std::vector<std::uint32_t>& canonical_order) const;
  };

  /// Snapshot of the cache's metric counters (the one place hits/misses
  /// are counted; everything else diffs snapshots of this).
  struct Stats {
    std::size_t hits{0};
    std::size_t misses{0};
    std::size_t entries{0};
    /// Entries dropped by clear() over the cache's lifetime.
    std::size_t evictions{0};

    double hit_rate() const {
      const std::size_t total = hits + misses;
      return total == 0 ? 0.0 : static_cast<double>(hits) / total;
    }
  };

  /// The shared entry for `key`, null on a miss (the caller retargets the
  /// plan it keeps onto its own subset's arc ids). Counts a hit or a miss.
  std::shared_ptr<const Entry> lookup(const Key& key);

  /// Inserts (or overwrites) the entry for `key`. Readers holding an
  /// overwritten entry keep it.
  void insert(const Key& key, std::shared_ptr<const Entry> entry);

  Stats stats() const;
  void clear();

 private:
  struct KeyHash {
    std::size_t operator()(const Key& k) const;
  };

  mutable std::mutex mu_;
  std::unordered_map<Key, std::shared_ptr<const Entry>, KeyHash> map_;
  support::Counter hits_;
  support::Counter misses_;
  support::Counter evictions_;
};

/// Builds the canonical signature of `subset` under (cg, library, policy),
/// given the library's fingerprint (commlib::Library::fingerprint) and the
/// subset's canonical_subset_order, which the caller computes once and
/// reuses.
PricingCache::Key make_pricing_key(
    const model::ConstraintGraph& cg, std::uint64_t library_fingerprint,
    const std::vector<model::ArcId>& subset,
    const std::vector<std::uint32_t>& canonical_order,
    model::CapacityPolicy policy, bool chain_enabled, bool tree_enabled);

}  // namespace cdcs::synth
