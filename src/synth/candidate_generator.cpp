#include "synth/candidate_generator.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <numeric>
#include <span>

#include "support/fault.hpp"
#include "support/metrics.hpp"
#include "support/thread_pool.hpp"
#include "synth/mergeability.hpp"
#include "synth/plan_delay.hpp"
#include "synth/pricing_cache.hpp"

namespace cdcs::synth {
namespace {

/// Raw pricing outcome for one subset, before the delay gate and the
/// profitability check of phase 3: the realizable plans in star, chain,
/// tree order, shared with the cache when one is in use, else owned.
struct PricedSubset {
  std::shared_ptr<const PricingCache::Entry> shared;
  std::vector<Plan> owned;

  const std::vector<Plan>& plans() const {
    return shared ? shared->plans : owned;
  }
};

/// Advances `idx` (ascending positions into a pool of size n) to the next
/// k-combination in lexicographic order; false when exhausted. This is the
/// same visit order as the recursive enumerator it replaced, which is what
/// keeps Theorem 3.1 bookkeeping, truncation points, and candidate order
/// stable across the refactor.
bool next_combination(std::vector<std::size_t>& idx, std::size_t n) {
  const std::size_t k = idx.size();
  for (std::size_t i = k; i-- > 0;) {
    if (idx[i] + (k - i) < n) {
      ++idx[i];
      for (std::size_t j = i + 1; j < k; ++j) idx[j] = idx[j - 1] + 1;
      return true;
    }
  }
  return false;
}

/// Pricer call/latency telemetry, resolved once per generation run so the
/// per-subset hot path touches only the sharded primitives
/// (docs/observability.md lists the metric names).
struct PricerMetrics {
  support::Counter* star_calls;
  support::Counter* chain_calls;
  support::Counter* tree_calls;
  support::Histogram* subset_us;

  static PricerMetrics resolve() {
    auto& reg = support::MetricsRegistry::global();
    return PricerMetrics{&reg.counter("pricer.star.calls"),
                         &reg.counter("pricer.chain.calls"),
                         &reg.counter("pricer.tree.calls"),
                         &reg.histogram("pricer.subset.us")};
  }
};

/// One subset to price: where its result goes and, when a cache is in
/// use, its cache key and canonical order (null otherwise).
struct PricingJob {
  const std::vector<model::ArcId>* subset;
  PricedSubset* out;
  const PricingCache::Key* key;
  const std::vector<std::uint32_t>* canonical_order;
};

/// Prices `jobs` through all enabled structure pricers, caching each result
/// when a cache is in use. The stars are priced as one batch
/// (price_mergings), so their placement solves share the Weiszfeld lanes;
/// chain and tree then run per subset. Pure per subset (pricers read only
/// the subset's geometry, the library, and the policy), which is what makes
/// the parallel fan-out deterministic. Runs on worker threads: everything
/// it touches is either const-shared, the job's own result slot, or the
/// thread-safe cache/deadline/metrics.
void price_jobs(const model::ConstraintGraph& cg,
                const commlib::Library& library,
                const SynthesisOptions& options,
                std::span<const PricingJob> jobs,
                const PricerMetrics& metrics) {
  if (jobs.empty()) return;
  {
    support::Span span("price.star", "pricer");
    metrics.star_calls->add(jobs.size());
    std::vector<std::span<const model::ArcId>> subsets;
    subsets.reserve(jobs.size());
    for (const PricingJob& job : jobs) subsets.emplace_back(*job.subset);
    std::vector<std::optional<MergingPlan>> stars = price_mergings(
        cg, library, subsets, options.policy, &options.deadline);
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      if (stars[j]) jobs[j].out->owned.emplace_back(std::move(*stars[j]));
    }
  }
  for (const PricingJob& job : jobs) {
    const std::vector<model::ArcId>& subset = *job.subset;
    std::vector<Plan>& plans = job.out->owned;
    if (options.enable_chain_topology) {
      support::Span span("price.chain", "pricer");
      metrics.chain_calls->add(1);
      if (std::optional<ChainPlan> chain = price_chain_merging(
              cg, library, subset, options.policy, &options.deadline)) {
        plans.emplace_back(std::move(*chain));
      }
    }
    if (options.enable_tree_topology) {
      support::Span span("price.tree", "pricer");
      metrics.tree_calls->add(1);
      if (std::optional<TreePlan> tree = price_tree_merging(
              cg, library, subset, options.policy, &options.deadline)) {
        plans.emplace_back(std::move(*tree));
      }
    }
    if (options.pricing_cache == nullptr) continue;
    job.out->shared = std::make_shared<const PricingCache::Entry>(
        PricingCache::Entry::make(subset, *job.canonical_order,
                                  std::move(plans)));
    // A pricer that bailed out on an expired deadline returns nullopt
    // without that being a statement about the subset; caching it would
    // poison later (unhurried) runs. latched() is poll-free, so
    // fault-injection budgets are not consumed here.
    if (!options.deadline.latched()) {
      options.pricing_cache->insert(*job.key, job.out->shared);
    }
  }
}

/// Bounding-box grid pre-filter for the geometric pruning tests.
///
/// Arc midpoints m_a = (u_a + v_a)/2 are bucketed into a uniform grid of
/// pitch `g` (the mean arc length). For any of the supported norms
/// (L1/L2/Linf), ||x|| >= |x_axis| per axis, so two midpoints whose cells
/// differ by c cells along some axis are at least (c-1)*g apart. Combined
/// with the triangle inequality
///     Delta(a,b) = ||u_a-u_b|| + ||v_a-v_b|| >= ||(u_a+v_a)-(u_b+v_b)||
///                = 2 ||m_a - m_b||,
/// a subset whose members are provably far apart satisfies the Lemma 3.1 /
/// Lemma 3.2 pruning inequality (Gamma <= Delta) OUTRIGHT -- the filter
/// skips the lemma evaluation only when its outcome is guaranteed, so the
/// surviving candidate set is bit-identical with the filter on or off.
class MidpointGrid {
 public:
  MidpointGrid(const model::ConstraintGraph& cg,
               const std::vector<model::ArcId>& arcs) {
    double total = 0.0;
    for (model::ArcId a : arcs) total += cg.distance(a);
    pitch_ = arcs.empty() ? 0.0 : total / static_cast<double>(arcs.size());
    if (!(pitch_ > 0.0) || !std::isfinite(pitch_)) return;  // degenerate: off
    enabled_ = true;
    const std::size_t n = arcs.size();
    cell_x_.resize(n);
    cell_y_.resize(n);
    for (model::ArcId a : arcs) {
      const geom::Point2D u = cg.position(cg.source(a));
      const geom::Point2D v = cg.position(cg.target(a));
      cell_x_[a.index()] =
          static_cast<std::int64_t>(std::floor((u.x + v.x) * 0.5 / pitch_));
      cell_y_[a.index()] =
          static_cast<std::int64_t>(std::floor((u.y + v.y) * 0.5 / pitch_));
    }
  }

  bool enabled() const { return enabled_; }

  /// Conservative lower bound on ||m_a - m_b||: cells c apart along an axis
  /// put the midpoints at least (c-1)*pitch apart along it, and every
  /// supported norm dominates each per-axis distance.
  double midpoint_distance_lb(model::ArcId a, model::ArcId b) const {
    const std::int64_t dx =
        std::llabs(cell_x_[a.index()] - cell_x_[b.index()]);
    const std::int64_t dy =
        std::llabs(cell_y_[a.index()] - cell_y_[b.index()]);
    const std::int64_t cells = std::max(dx, dy) - 1;
    return cells > 0 ? static_cast<double>(cells) * pitch_ : 0.0;
  }

  /// True when Lemma 3.1 is GUARANTEED to prune the pair {a, b}:
  /// 2*lb(m_a, m_b) >= Gamma(a,b) implies Gamma <= Delta.
  bool guarantees_lemma31(const ArcPairMatrix& gamma, model::ArcId a,
                          model::ArcId b) const {
    return 2.0 * midpoint_distance_lb(a, b) >= gamma(a, b);
  }

  /// True when Lemma 3.2 is GUARANTEED to prune `subset` under `rule`:
  /// the bound is applied pairwise against the pivot the rule would select
  /// (for kAnyPivot the min-distance pivot suffices -- any one passing
  /// pivot makes the any_of fire).
  bool guarantees_lemma32(const model::ConstraintGraph& cg,
                          const ArcPairMatrix& gamma,
                          std::span<const model::ArcId> subset,
                          PivotRule rule) const {
    model::ArcId pivot = subset.front();
    if (rule == PivotRule::kMaxIndex) {
      pivot = *std::max_element(subset.begin(), subset.end());
    } else {
      // kMinDistance's selection (strict <, earliest wins); also a sound
      // pivot choice for kAnyPivot.
      for (model::ArcId a : subset) {
        if (cg.distance(a) < cg.distance(pivot)) pivot = a;
      }
    }
    double sum_gamma = 0.0;
    double sum_lb2 = 0.0;
    for (model::ArcId a : subset) {
      if (a == pivot) continue;
      sum_gamma += gamma(a, pivot);
      sum_lb2 += 2.0 * midpoint_distance_lb(a, pivot);
    }
    return sum_lb2 >= sum_gamma;
  }

 private:
  bool enabled_{false};
  double pitch_{0.0};
  std::vector<std::int64_t> cell_x_;
  std::vector<std::int64_t> cell_y_;
};

}  // namespace

support::Expected<CandidateSet> generate_candidates(
    const model::ConstraintGraph& cg, const commlib::Library& library,
    const SynthesisOptions& options) {
  auto& registry = support::MetricsRegistry::global();
  support::ScopedTimer stage_timer(
      "generate", "pipeline", &registry.histogram("synth.stage.generate.us"),
      &registry.counter("synth.stage.generate.wall_us"));
  // The cache's counters are the one place hits/misses are counted; this
  // run's share is the delta across the run (PricingCache::Stats snapshots).
  const PricingCache::Stats cache_before =
      options.pricing_cache != nullptr ? options.pricing_cache->stats()
                                       : PricingCache::Stats{};
  CandidateSet out;
  const std::vector<model::ArcId> arcs = cg.arcs();
  const std::size_t n = arcs.size();
  const int max_k = options.max_merge_k > 0
                        ? std::min<int>(options.max_merge_k, static_cast<int>(n))
                        : static_cast<int>(n);

  auto& stats = out.stats;
  stats.survivors_per_k.assign(max_k + 1, 0);
  stats.pruned_geometry_per_k.assign(max_k + 1, 0);
  stats.grid_prefilter_skips_per_k.assign(max_k + 1, 0);
  stats.pruned_bandwidth_per_k.assign(max_k + 1, 0);
  stats.unpriceable_per_k.assign(max_k + 1, 0);
  stats.dropped_unprofitable_per_k.assign(max_k + 1, 0);
  stats.arc_eliminated_after_k.assign(n, 0);

  // --- Optimum point-to-point implementations (Def 2.6 / Lemma 2.1). ---
  const DelayConstraint delay_constraint =
      options.delay_budget
          ? DelayConstraint{&options.delay_budget->model,
                            options.delay_budget->budget}
          : DelayConstraint{};
  const DelayConstraint* delay =
      options.delay_budget ? &delay_constraint : nullptr;

  support::Counter& ptp_calls = registry.counter("pricer.ptp.calls");
  std::vector<double> ptp_cost(n, 0.0);
  for (model::ArcId a : arcs) {
    support::Span ptp_span("price.ptp", "pricer");
    ptp_calls.add(1);
    std::optional<PtpPlan> plan =
        best_point_to_point(cg.distance(a), cg.bandwidth(a), library, delay);
    if (!plan) {
      return support::Status::Infeasible(
          "constraint arc '" + cg.channel(a).name +
          "' has no feasible point-to-point implementation in library '" +
          library.name() +
          (options.delay_budget ? "' within the delay budget" : "'"));
    }
    ptp_cost[a.index()] = plan->cost;
    out.candidates.push_back(
        Candidate{.arcs = {a}, .cost = plan->cost, .plan = std::move(*plan)});
  }
  const ArcPairMatrix gamma = gamma_matrix(cg);
  const ArcPairMatrix delta = delta_matrix(cg);
  const std::vector<double> bw = bandwidth_vector(cg);
  const double max_link_bw = library.max_link_bandwidth();
  const MidpointGrid grid(cg, arcs);
  const bool grid_on = options.use_grid_prefilter && grid.enabled();

  const std::size_t threads = support::resolve_thread_count(options.threads);
  stats.threads_used = threads;
  // Started by the first batch with work to share (see phase 2), so a run
  // that the cache answers in full starts no thread.
  std::unique_ptr<support::ThreadPool> pool;
  const PricerMetrics pricer_metrics = PricerMetrics::resolve();
  PricingCache* cache = options.pricing_cache;
  // Every key of this call shares the one library fingerprint.
  const std::uint64_t library_fingerprint =
      cache != nullptr ? library.fingerprint() : 0;

  // Pricing-batch size: large enough to amortize fan-out overhead and keep
  // every worker busy, small enough to bound the held-subsets memory when
  // max_subsets_per_k is in the millions.
  const std::size_t batch_capacity =
      threads > 1 ? std::max<std::size_t>(1024, 8 * threads) : 1024;

  // Per-batch pricing state, reused across batches: result slots in
  // enumeration order, the cache misses to price, and (with a cache) each
  // subset's canonical order and key, which the misses point into.
  std::vector<PricedSubset> priced;
  std::vector<PricingJob> misses;
  std::vector<std::vector<std::uint32_t>> orders;
  std::vector<PricingCache::Key> keys;

  // --- k-way mergings for increasing k (main loop of Fig. 2). ---
  std::vector<bool> active(n, true);
  for (int k = 2; k <= max_k; ++k) {
    std::vector<model::ArcId> pool_arcs;
    for (model::ArcId a : arcs) {
      if (active[a.index()]) pool_arcs.push_back(a);
    }
    if (pool_arcs.size() < static_cast<std::size_t>(k)) break;

    std::vector<bool> participates(n, false);
    std::size_t survivors_this_k = 0;
    std::size_t enumerated_this_k = 0;
    std::vector<model::ArcId> subset(k);
    std::vector<double> subset_bw(k);

    std::vector<std::size_t> idx(k);
    std::iota(idx.begin(), idx.end(), std::size_t{0});
    bool exhausted = false;
    std::vector<std::vector<model::ArcId>> batch;
    batch.reserve(batch_capacity);

    while (!exhausted && !stats.enumeration_truncated &&
           !stats.deadline_expired) {
      // Phase 1 (serial): enumerate in lexicographic order and apply the
      // pruning tests; they are microseconds per subset and their visit
      // order is semantically load-bearing (truncation, Theorem 3.1).
      batch.clear();
      while (batch.size() < batch_capacity && !exhausted) {
        for (int i = 0; i < k; ++i) subset[i] = pool_arcs[idx[i]];
        const auto advance = [&] { exhausted = !next_combination(idx, pool_arcs.size()); };

        ++stats.subsets_examined;
        if (++enumerated_this_k > options.max_subsets_per_k) {
          stats.enumeration_truncated = true;
          break;
        }
        if (options.deadline.expired()) {
          stats.deadline_expired = true;
          break;
        }
        for (int i = 0; i < k; ++i) subset_bw[i] = bw[subset[i].index()];
        if (options.use_theorem32 &&
            theorem32_prunes(subset_bw, max_link_bw)) {
          ++stats.pruned_bandwidth_per_k[k];
          advance();
          continue;
        }
        // Grid pre-filter: skip the lemma evaluation when its firing is
        // guaranteed by the midpoint-cell distances alone. Only sound when
        // the corresponding lemma is enabled (the skip *stands in* for that
        // test), and counted into pruned_geometry_per_k as well so the
        // survivors + pruned_geometry invariant is unchanged.
        const bool grid_skipped =
            grid_on &&
            ((k == 2 && options.use_lemma31 &&
              grid.guarantees_lemma31(gamma, subset[0], subset[1])) ||
             (k >= 3 && options.use_lemma32 &&
              grid.guarantees_lemma32(cg, gamma, subset,
                                      options.pivot_rule)));
        if (grid_skipped) {
          ++stats.pruned_geometry_per_k[k];
          ++stats.grid_prefilter_skips_per_k[k];
          advance();
          continue;
        }
        const bool geometric_pruned =
            (k == 2 && options.use_lemma31 &&
             lemma31_prunes(gamma, delta, subset[0], subset[1])) ||
            (k >= 3 && options.use_lemma32 &&
             lemma32_prunes(cg, gamma, delta, subset, options.pivot_rule));
        if (geometric_pruned) {
          ++stats.pruned_geometry_per_k[k];
          advance();
          continue;
        }
        ++survivors_this_k;
        for (model::ArcId a : subset) participates[a.index()] = true;
        if (options.fault_injection.fires(support::fault_sites::kPricerMerge)) {
          ++stats.unpriceable_per_k[k];
        } else {
          batch.push_back(subset);
        }
        advance();
      }

      // Phase 2a (serial, enumeration order): answer what the cache can on
      // this thread. The pricers canonicalize their input to the subset's
      // geometry order internally (synth/canonical_order.hpp), so the
      // priced result is a pure function of the subset's geometry -- which
      // is exactly what licenses serving it from the cache under whatever
      // arc ids the requesting graph happens to use: a hit is bit-identical
      // to the fresh solve it replaces. A hit only takes a reference to
      // the cache's entry; phase 3 copies and retargets the one plan it
      // keeps. Every subset of the batch is looked up before any is
      // priced, so two subsets with the same key in one batch (identical
      // arc geometry) both count as misses, at any thread count; both
      // price to the same bits.
      priced.assign(batch.size(), PricedSubset{});
      misses.clear();
      orders.resize(cache != nullptr ? batch.size() : 0);
      keys.resize(cache != nullptr ? batch.size() : 0);
      for (std::size_t i = 0; i < batch.size(); ++i) {
        if (cache == nullptr) {
          misses.push_back({&batch[i], &priced[i], nullptr, nullptr});
          continue;
        }
        orders[i] = canonical_subset_order(cg, batch[i]);
        keys[i] = make_pricing_key(cg, library_fingerprint, batch[i],
                                   orders[i], options.policy,
                                   options.enable_chain_topology,
                                   options.enable_tree_topology);
        priced[i].shared = cache->lookup(keys[i]);
        if (!priced[i].shared) {
          misses.push_back({&batch[i], &priced[i], &keys[i], &orders[i]});
        }
      }

      // Phase 2b: price the misses in near-equal contiguous chunks, 4 per
      // pool thread. More than one chunk fans out over the pool, started
      // here the first time; a lone chunk runs inline. Each job writes its
      // own slot of `priced`, so phase 3 reads enumeration order either
      // way and is the same fold as the serial run.
      const std::size_t chunks =
          std::min(misses.size(), threads > 1 ? 4 * threads : 1);
      if (chunks > 1 && !pool) {
        pool = std::make_unique<support::ThreadPool>(threads);
      }
      (void)support::parallel_map_ordered(
          chunks > 1 ? pool.get() : nullptr, chunks, [&](std::size_t c) {
            const std::size_t begin = c * misses.size() / chunks;
            const std::size_t end = (c + 1) * misses.size() / chunks;
            support::ScopedTimer timer("price.subset", "pricer",
                                       pricer_metrics.subset_us);
            price_jobs(cg, library, options,
                       std::span(misses).subspan(begin, end - begin),
                       pricer_metrics);
            return end - begin;  // unused: each job fills its own slot
          });

      // Phase 3 (serial, enumeration order): delay-gate the plans, keep
      // the cheapest per subset (the first of equal costs, so ties break
      // toward the structurally simplest realization), and account
      // profitability.
      for (std::size_t b = 0; b < batch.size(); ++b) {
        PricedSubset& slot = priced[b];
        const std::vector<Plan>& plans = slot.plans();
        const std::vector<model::ArcId>& merged = batch[b];
        std::size_t best = plans.size();
        double cost = 0.0;
        for (std::size_t p = 0; p < plans.size(); ++p) {
          // Delay-constrained synthesis: a merged structure whose slowest
          // channel busts the budget is not a candidate.
          if (options.delay_budget &&
              worst_plan_delay(plans[p], options.delay_budget->model) >
                  options.delay_budget->budget) {
            continue;
          }
          const double c = plan_cost(plans[p]);
          if (best == plans.size() || c < cost) {
            best = p;
            cost = c;
          }
        }
        if (best == plans.size()) {
          ++stats.unpriceable_per_k[k];
          continue;
        }
        if (options.drop_unprofitable) {
          double members = 0.0;
          for (model::ArcId a : merged) members += ptp_cost[a.index()];
          if (cost >= members - 1e-9) {
            ++stats.dropped_unprofitable_per_k[k];
            continue;
          }
        }
        out.candidates.push_back(Candidate{
            .arcs = merged,
            .cost = cost,
            .plan = slot.shared
                        ? slot.shared->retargeted(best, merged, orders[b])
                        : std::move(slot.owned[best])});
      }
    }
    stats.survivors_per_k[k] = survivors_this_k;
    if (stats.deadline_expired) break;

    // Theorem 3.1: an arc in no surviving k-subset can join no larger
    // merging either; drop its Gamma-matrix column for all following k.
    if (options.use_theorem31) {
      for (model::ArcId a : pool_arcs) {
        if (!participates[a.index()]) {
          active[a.index()] = false;
          stats.arc_eliminated_after_k[a.index()] = k;
        }
      }
    }
    if (survivors_this_k == 0) break;  // Gamma's column set is empty
  }
  if (options.pricing_cache != nullptr) {
    // Saturating delta: a concurrent clear() of a shared cache can only
    // shrink the counters; report zero rather than wrapping.
    const PricingCache::Stats after = options.pricing_cache->stats();
    stats.pricing_cache_hits =
        after.hits >= cache_before.hits ? after.hits - cache_before.hits : 0;
    stats.pricing_cache_misses = after.misses >= cache_before.misses
                                     ? after.misses - cache_before.misses
                                     : 0;
    registry.counter("synth.pricing_cache.evictions")
        .add(after.evictions >= cache_before.evictions
                 ? after.evictions - cache_before.evictions
                 : 0);
  }
  registry.counter("synth.subsets_examined").add(stats.subsets_examined);
  registry.counter("synth.candidates").add(out.candidates.size());
  registry.counter("synth.pricing_cache.hits").add(stats.pricing_cache_hits);
  registry.counter("synth.pricing_cache.misses")
      .add(stats.pricing_cache_misses);
  return out;
}

}  // namespace cdcs::synth
