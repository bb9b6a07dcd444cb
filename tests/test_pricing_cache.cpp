// Pricing-cache correctness: exact hit/miss accounting, bit-identical
// results under repeated synthesize() calls against a shared cache (the
// Pareto-sweep / sensitivity-run use case), and automatic invalidation
// when the library fingerprint changes. The cache never evicts, so these
// tests also pin the "entries only grow" retention behaviour.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <string>

#include "commlib/standard_libraries.hpp"
#include "support/trace.hpp"
#include "synth/pricing_cache.hpp"
#include "synth/synthesizer.hpp"
#include "workloads/wan2002.hpp"

namespace cdcs::synth {
namespace {

TEST(LibraryFingerprint, StableAndDiscriminating) {
  const commlib::Library wan1 = commlib::wan_library();
  const commlib::Library wan2 = commlib::wan_library();
  EXPECT_EQ(wan1.fingerprint(), wan2.fingerprint());  // deterministic
  EXPECT_NE(wan1.fingerprint(), commlib::soc_library().fingerprint());

  // Any element edit that could change a pricing must change the digest.
  commlib::Library extra = commlib::wan_library();
  extra.add_link({.name = "extra", .bandwidth = 1.0, .fixed_cost = 1.0});
  EXPECT_NE(extra.fingerprint(), wan1.fingerprint());

  commlib::Library repriced("wan-2002");
  for (commlib::Link l : wan1.links()) {
    l.cost_per_length *= 1.01;
    repriced.add_link(std::move(l));
  }
  for (const commlib::Node& n : wan1.nodes()) repriced.add_node(n);
  EXPECT_NE(repriced.fingerprint(), wan1.fingerprint());
}

/// The key of `subset` under the WAN library, shared-sum capacity and
/// both merging topologies unless overridden.
PricingCache::Key key_of(
    const model::ConstraintGraph& cg, const std::vector<model::ArcId>& subset,
    const commlib::Library& lib = commlib::wan_library(),
    model::CapacityPolicy policy = model::CapacityPolicy::kSharedSum,
    bool chain_enabled = true) {
  return make_pricing_key(cg, lib.fingerprint(), subset,
                          canonical_subset_order(cg, subset), policy,
                          chain_enabled, /*tree_enabled=*/true);
}

TEST(PricingKey, CanonicalSubsetSignature) {
  const model::ConstraintGraph cg = workloads::wan2002();
  const std::vector<model::ArcId> subset{model::ArcId{0}, model::ArcId{1}};

  const auto k1 = key_of(cg, subset);
  const auto k2 = key_of(cg, subset);
  EXPECT_EQ(k1, k2);
  EXPECT_EQ(k1.arc_geometry.size(), 10u);  // five doubles per arc

  // Every knob the pricers read must separate keys.
  EXPECT_FALSE(k1 == key_of(cg, {model::ArcId{0}, model::ArcId{2}}));
  EXPECT_FALSE(k1 == key_of(cg, subset, commlib::wan_library(),
                            model::CapacityPolicy::kMaxPerConstraint));
  EXPECT_FALSE(k1 == key_of(cg, subset, commlib::wan_library(),
                            model::CapacityPolicy::kSharedSum,
                            /*chain_enabled=*/false));
  EXPECT_FALSE(k1 == key_of(cg, subset, commlib::lan_library()));
}

// The generator fingerprints the library once per call and hands each key
// the canonical order it already computed. The key must equal one built
// anew: a fresh fingerprint and the per-arc records sorted again,
// whatever order the subset arrives in.
TEST(PricingKey, ReusedFingerprintAndOrderGiveTheFreshKey) {
  const model::ConstraintGraph cg = workloads::wan2002();
  const commlib::Library lib = commlib::wan_library();
  const std::uint64_t fingerprint = lib.fingerprint();
  const std::vector<model::ArcId> shuffled{model::ArcId{5}, model::ArcId{0},
                                           model::ArcId{6}, model::ArcId{3}};
  const std::vector<std::uint32_t> order = canonical_subset_order(cg, shuffled);
  const PricingCache::Key key =
      make_pricing_key(cg, fingerprint, shuffled, order,
                       model::CapacityPolicy::kSharedSum, true, true);

  PricingCache::Key fresh;
  fresh.library_fingerprint = commlib::wan_library().fingerprint();
  fresh.norm = cg.norm();
  fresh.policy = model::CapacityPolicy::kSharedSum;
  fresh.chain_enabled = true;
  fresh.tree_enabled = true;
  std::vector<std::array<double, 5>> records;
  for (model::ArcId a : shuffled) records.push_back(arc_geometry_record(cg, a));
  std::sort(records.begin(), records.end());
  for (const auto& r : records) {
    fresh.arc_geometry.insert(fresh.arc_geometry.end(), r.begin(), r.end());
  }
  EXPECT_EQ(key, fresh);
  EXPECT_EQ(key, key_of(cg, {model::ArcId{0}, model::ArcId{3},
                             model::ArcId{5}, model::ArcId{6}}));
}

TEST(PricingCacheAccounting, LookupInsertLookup) {
  PricingCache cache;
  PricingCache::Key key;
  key.library_fingerprint = 42;
  key.arc_geometry = {0, 0, 1, 1, 2.5};

  EXPECT_EQ(cache.lookup(key), nullptr);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 0u);

  // An entry with no plan is a definitive "no structure realizable" answer
  // and must round-trip like any other.
  cache.insert(key, std::make_shared<const PricingCache::Entry>(
                        PricingCache::Entry::make({model::ArcId{0}}, {0}, {})));
  EXPECT_EQ(cache.stats().entries, 1u);

  const auto entry = cache.lookup(key);
  ASSERT_NE(entry, nullptr);
  EXPECT_TRUE(entry->plans.empty());
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_DOUBLE_EQ(cache.stats().hit_rate(), 0.5);

  cache.clear();
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().misses, 0u);
}

TEST(PricingCacheAccounting, RepeatedSynthesisHitsEverySubset) {
  const model::ConstraintGraph cg = workloads::wan2002();
  const commlib::Library lib = commlib::wan_library();
  PricingCache cache;
  SynthesisOptions options;
  options.pricing_cache = &cache;

  const auto first = synthesize(cg, lib, options);
  ASSERT_TRUE(first.ok());
  const auto& s1 = first->candidate_set.stats;
  EXPECT_EQ(s1.pricing_cache_hits, 0u);  // cold cache: every probe misses
  EXPECT_GT(s1.pricing_cache_misses, 0u);
  const std::size_t priced = s1.pricing_cache_misses;
  EXPECT_EQ(priced, 57u);  // every subset the WAN prices
  EXPECT_EQ(cache.stats().entries, priced);  // no evictions, no dupes

  const auto second = synthesize(cg, lib, options);
  ASSERT_TRUE(second.ok());
  const auto& s2 = second->candidate_set.stats;
  EXPECT_EQ(s2.pricing_cache_hits, priced);  // warm: every probe hits
  EXPECT_EQ(s2.pricing_cache_misses, 0u);
  EXPECT_EQ(cache.stats().entries, priced);  // nothing new inserted

  // And the warm-cache result is the same result.
  EXPECT_DOUBLE_EQ(second->total_cost, first->total_cost);
  EXPECT_EQ(second->cover.chosen, first->cover.chosen);
  ASSERT_EQ(second->candidates().size(), first->candidates().size());
  for (std::size_t i = 0; i < first->candidates().size(); ++i) {
    EXPECT_DOUBLE_EQ(second->candidates()[i].cost, first->candidates()[i].cost);
    EXPECT_EQ(second->candidates()[i].arcs, first->candidates()[i].arcs);
  }
}

// Cache hits are answered on the calling thread, and the generator starts
// its pool only for a batch with misses to share, so a warm multi-threaded
// run runs no pool task at all. The cold run at the same thread count does
// fan out (the WAN's larger batches miss in full), which shows the trace
// would catch a task.
TEST(PricingCacheFanOut, WarmRunStartsNoPoolTask) {
  const model::ConstraintGraph cg = workloads::wan2002();
  const commlib::Library lib = commlib::wan_library();
  PricingCache cache;
  SynthesisOptions options;
  options.threads = 4;
  options.pricing_cache = &cache;

  const auto pool_tasks = [](support::ScopedTraceSession& session) {
    session.close();
    std::size_t tasks = 0;
    for (const support::TraceEvent& e : session.sink().snapshot()) {
      if (e.phase == support::TraceEvent::Phase::kBegin &&
          std::string(e.name) == "task") {
        ++tasks;
      }
    }
    return tasks;
  };

  support::ScopedTraceSession cold_session;
  const auto cold = synthesize(cg, lib, options);
  const std::size_t cold_tasks = pool_tasks(cold_session);
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(cold->candidate_set.stats.pricing_cache_misses, 57u);
  EXPECT_GT(cold_tasks, 0u);

  support::ScopedTraceSession warm_session;
  const auto warm = synthesize(cg, lib, options);
  const std::size_t warm_tasks = pool_tasks(warm_session);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm->candidate_set.stats.pricing_cache_hits, 57u);
  EXPECT_EQ(warm->candidate_set.stats.pricing_cache_misses, 0u);
  EXPECT_EQ(warm_tasks, 0u);

  // A hit is the fresh solve's bits, so the candidates are the cold run's,
  // and both are those of a run with no cache at all.
  SynthesisOptions uncached = options;
  uncached.pricing_cache = nullptr;
  const auto fresh = synthesize(cg, lib, uncached);
  ASSERT_TRUE(fresh.ok());
  ASSERT_EQ(warm->candidates().size(), cold->candidates().size());
  ASSERT_EQ(fresh->candidates().size(), cold->candidates().size());
  for (std::size_t i = 0; i < cold->candidates().size(); ++i) {
    const Candidate& w = warm->candidates()[i];
    const Candidate& c = cold->candidates()[i];
    EXPECT_EQ(w.arcs, c.arcs);
    EXPECT_EQ(w.cost, c.cost);
    EXPECT_EQ(w.plan.index(), c.plan.index());
    EXPECT_TRUE(w.plan == c.plan) << "candidate " << i;
    EXPECT_TRUE(fresh->candidates()[i].plan == c.plan) << "candidate " << i;
  }
  EXPECT_EQ(warm->total_cost, cold->total_cost);
  EXPECT_EQ(warm->cover.chosen, cold->cover.chosen);
}

// Two sessions over geometrically identical graphs whose arcs were
// inserted in different orders (so ArcId values are permuted) must share
// cache entries: the key is canonicalized by geometry record, not by the
// caller's subset order. Regression test for the cross-session warm-start
// use case (reload a design file whose channel order changed).
TEST(PricingCacheAccounting, PermutedArcInsertionOrderStillHits) {
  const model::ConstraintGraph cg = workloads::wan2002();

  // Same ports, same channels, reversed insertion order: arc k here is
  // arc (7 - k) in the reference graph.
  model::ConstraintGraph shuffled(geom::Norm::kEuclidean);
  const model::VertexId a = shuffled.add_port("A", {0.0, 0.0});
  const model::VertexId b = shuffled.add_port("B", {4.0, 3.0});
  const model::VertexId c = shuffled.add_port("C", {9.0, 1.0});
  const model::VertexId d = shuffled.add_port("D", {-2.0, -97.0});
  const model::VertexId e = shuffled.add_port("E", {0.0, -100.0});
  const double bw = workloads::kWanBandwidthMbps;
  shuffled.add_channel(e, d, bw, "a8");
  shuffled.add_channel(d, e, bw, "a7");
  shuffled.add_channel(d, c, bw, "a6");
  shuffled.add_channel(d, b, bw, "a5");
  shuffled.add_channel(d, a, bw, "a4");
  shuffled.add_channel(c, a, bw, "a3");
  shuffled.add_channel(c, b, bw, "a2");
  shuffled.add_channel(a, b, bw, "a1");

  const commlib::Library lib = commlib::wan_library();
  PricingCache cache;
  SynthesisOptions options;
  options.pricing_cache = &cache;

  const auto cold = synthesize(cg, lib, options);
  ASSERT_TRUE(cold.ok());
  const std::size_t priced = cold->candidate_set.stats.pricing_cache_misses;
  ASSERT_GT(priced, 0u);

  // The shuffled graph enumerates the geometrically same subsets (in a
  // different order, with different arc ids): every probe must hit.
  const auto warm = synthesize(shuffled, lib, options);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm->candidate_set.stats.pricing_cache_hits, priced);
  EXPECT_EQ(warm->candidate_set.stats.pricing_cache_misses, 0u);
  EXPECT_EQ(cache.stats().entries, priced);

  // And the retargeted plans price identically: same candidate count and
  // the same optimal cost. (The chosen cover itself may be a different
  // equal-cost optimum -- permuting arc ids reorders the candidate list,
  // which legitimately changes UCP tie-breaking.)
  EXPECT_DOUBLE_EQ(warm->total_cost, cold->total_cost);
  ASSERT_EQ(warm->candidates().size(), cold->candidates().size());

  // Each hit is the cold run's plan under the shuffled graph's arc ids:
  // mapped back through the reversal, its arcs are the cold plan's in the
  // same order (a chain's drop order included), and it costs the same.
  const auto reversed = [](model::ArcId a) {
    return model::ArcId{static_cast<std::uint32_t>(7 - a.index())};
  };
  for (const Candidate& w : warm->candidates()) {
    std::vector<model::ArcId> members;
    for (model::ArcId a : w.arcs) members.push_back(reversed(a));
    std::sort(members.begin(), members.end());
    const auto c = std::find_if(
        cold->candidates().begin(), cold->candidates().end(),
        [&](const Candidate& x) { return x.arcs == members; });
    ASSERT_NE(c, cold->candidates().end());
    EXPECT_EQ(std::bit_cast<std::uint64_t>(w.cost),
              std::bit_cast<std::uint64_t>(c->cost));
    ASSERT_EQ(w.plan.index(), c->plan.index());
    Plan mapped = w.plan;
    if (std::vector<model::ArcId>* arcs = plan_arcs(mapped)) {
      for (model::ArcId& a : *arcs) a = reversed(a);
    }
    EXPECT_TRUE(mapped == c->plan);
  }

  // No lookup mutated a shared entry: the original graph, run a third
  // time, gets the cold run's candidates bit for bit.
  const auto again = synthesize(cg, lib, options);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->candidate_set.stats.pricing_cache_misses, 0u);
  ASSERT_EQ(again->candidates().size(), cold->candidates().size());
  for (std::size_t i = 0; i < cold->candidates().size(); ++i) {
    const Candidate& x = again->candidates()[i];
    const Candidate& c = cold->candidates()[i];
    EXPECT_EQ(x.arcs, c.arcs);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(x.cost),
              std::bit_cast<std::uint64_t>(c.cost));
    EXPECT_TRUE(x.plan == c.plan) << "candidate " << i;
  }
  EXPECT_EQ(again->cover.chosen, cold->cover.chosen);
}

TEST(PricingCacheAccounting, LibraryChangeInvalidatesEverything) {
  const model::ConstraintGraph cg = workloads::wan2002();
  const commlib::Library lib = commlib::wan_library();
  PricingCache cache;
  SynthesisOptions options;
  options.pricing_cache = &cache;

  const auto warm = synthesize(cg, lib, options);
  ASSERT_TRUE(warm.ok());
  const std::size_t wan_entries = cache.stats().entries;
  ASSERT_GT(wan_entries, 0u);

  // Reprice every link 10% higher: same names, same geometry, different
  // costs. Every cached plan is now wrong for this library, and the
  // fingerprint keying must make the run miss on every subset.
  commlib::Library pricier("wan-2002-pricier");
  for (commlib::Link l : lib.links()) {
    l.fixed_cost *= 1.1;
    l.cost_per_length *= 1.1;
    pricier.add_link(std::move(l));
  }
  for (const commlib::Node& n : lib.nodes()) pricier.add_node(n);
  ASSERT_NE(pricier.fingerprint(), lib.fingerprint());

  const auto repriced = synthesize(cg, pricier, options);
  ASSERT_TRUE(repriced.ok());
  const auto& s = repriced->candidate_set.stats;
  EXPECT_EQ(s.pricing_cache_hits, 0u);  // no stale reuse
  EXPECT_GT(s.pricing_cache_misses, 0u);
  EXPECT_GT(cache.stats().entries, wan_entries);  // new keys coexist

  // Costs scale with the library, proving plans were re-priced.
  EXPECT_GT(repriced->total_cost, warm->total_cost);

  // The original library still hits its own (untouched) entries.
  const auto again = synthesize(cg, lib, options);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->candidate_set.stats.pricing_cache_misses, 0u);
  EXPECT_DOUBLE_EQ(again->total_cost, warm->total_cost);
}

}  // namespace
}  // namespace cdcs::synth
