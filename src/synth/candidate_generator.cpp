#include "synth/candidate_generator.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <numeric>

#include "support/fault.hpp"
#include "support/metrics.hpp"
#include "support/thread_pool.hpp"
#include "synth/mergeability.hpp"
#include "synth/plan_delay.hpp"
#include "synth/pricing_cache.hpp"

namespace cdcs::synth {
namespace {

/// Raw pricing outcome for one subset (before delay filtering and
/// profitability accounting, which stay serial in the merge step).
struct PricedStructures {
  std::optional<MergingPlan> star;
  std::optional<ChainPlan> chain;
  std::optional<TreePlan> tree;
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

/// Prices one subset through all enabled structure pricers, consulting the
/// memoization cache when present. Pure per subset (pricers read only the
/// subset's geometry, the library, and the policy), which is what makes the
/// parallel fan-out deterministic. Runs on worker threads: everything it
/// touches is either const-shared or the thread-safe cache/deadline/metrics.
PricedStructures price_subset(const model::ConstraintGraph& cg,
                              const commlib::Library& library,
                              const SynthesisOptions& options,
                              const std::vector<model::ArcId>& subset,
                              const PricerMetrics& metrics) {
  support::ScopedTimer timer("price.subset", "pricer", metrics.subset_us);
  // The pricers canonicalize their input to the subset's geometry order
  // internally (synth/canonical_order.hpp), so the priced result is a pure
  // function of the subset's geometry -- which is exactly what licenses
  // serving it from the cache under whatever arc ids the requesting graph
  // happens to use: a hit is bit-identical to the fresh solve it replaces.
  PricingCache* cache = options.pricing_cache;
  std::optional<PricingCache::Key> key;
  std::vector<std::uint32_t> canonical_order;
  if (cache != nullptr) {
    canonical_order = canonical_subset_order(cg, subset);
    key = make_pricing_key(cg, library, subset, options.policy,
                           options.enable_chain_topology,
                           options.enable_tree_topology);
    if (std::optional<PricingCache::Entry> entry = cache->lookup(*key)) {
      entry->retarget(subset, canonical_order);
      return PricedStructures{std::move(entry->star), std::move(entry->chain),
                              std::move(entry->tree)};
    }
  }

  PricedStructures p;
  {
    support::Span span("price.star", "pricer");
    metrics.star_calls->add(1);
    p.star = price_merging(cg, library, subset, options.policy,
                           &options.deadline);
  }
  if (options.enable_chain_topology) {
    support::Span span("price.chain", "pricer");
    metrics.chain_calls->add(1);
    p.chain = price_chain_merging(cg, library, subset, options.policy, {},
                                  &options.deadline);
  }
  if (options.enable_tree_topology) {
    support::Span span("price.tree", "pricer");
    metrics.tree_calls->add(1);
    p.tree = price_tree_merging(cg, library, subset, options.policy,
                                &options.deadline);
  }
  // A pricer that bailed out on an expired deadline returns nullopt without
  // that being a statement about the subset; caching it would poison later
  // (unhurried) runs. latched() is poll-free, so fault-injection budgets
  // are not consumed here.
  if (cache != nullptr && !options.deadline.latched()) {
    cache->insert(*key, PricingCache::Entry::make(subset, canonical_order,
                                                  p.star, p.chain, p.tree));
  }
  return p;
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
        Candidate{.arcs = {a}, .cost = plan->cost, .ptp = plan});
  }
  const ArcPairMatrix gamma = gamma_matrix(cg);
  const ArcPairMatrix delta = delta_matrix(cg);
  const std::vector<double> bw = bandwidth_vector(cg);
  const double max_link_bw = library.max_link_bandwidth();
  const MidpointGrid grid(cg, arcs);
  const bool grid_on = options.use_grid_prefilter && grid.enabled();

  const std::size_t threads = support::resolve_thread_count(options.threads);
  stats.threads_used = threads;
  std::unique_ptr<support::ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<support::ThreadPool>(threads);
  const PricerMetrics pricer_metrics = PricerMetrics::resolve();

  // Pricing-batch size: large enough to amortize fan-out overhead and keep
  // every worker busy, small enough to bound the held-subsets memory when
  // max_subsets_per_k is in the millions.
  const std::size_t batch_capacity =
      threads > 1 ? std::max<std::size_t>(1024, 8 * threads) : 1024;

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

      // Phase 2: price the surviving subsets. Concurrent when a pool
      // exists, inline otherwise; either way the results come back in
      // enumeration order, so phase 3 is the same fold as the serial run.
      std::vector<PricedStructures> priced = support::parallel_map_ordered(
          pool.get(), batch.size(), [&](std::size_t i) {
            return price_subset(cg, library, options, batch[i],
                                pricer_metrics);
          });

      // Phase 3 (serial, enumeration order): delay-gate the structures,
      // keep the cheapest per subset, and account profitability.
      for (std::size_t b = 0; b < batch.size(); ++b) {
        std::optional<MergingPlan> star = std::move(priced[b].star);
        std::optional<ChainPlan> chain = std::move(priced[b].chain);
        std::optional<TreePlan> tree = std::move(priced[b].tree);
        const std::vector<model::ArcId>& merged = batch[b];
        // Delay-constrained synthesis: a merged structure whose slowest
        // channel busts the budget is not a candidate.
        if (options.delay_budget) {
          const auto& db = *options.delay_budget;
          if (star && worst_arc_delay(*star, db.model) > db.budget) {
            star.reset();
          }
          if (chain && worst_arc_delay(*chain, db.model) > db.budget) {
            chain.reset();
          }
          if (tree && worst_arc_delay(*tree, db.model) > db.budget) {
            tree.reset();
          }
        }
        if (!star && !chain && !tree) {
          ++stats.unpriceable_per_k[k];
          continue;
        }
        // Keep the cheapest structure for this subset.
        constexpr double kInf = std::numeric_limits<double>::infinity();
        const double star_cost = star ? star->cost : kInf;
        const double chain_cost = chain ? chain->cost : kInf;
        const double tree_cost = tree ? tree->cost : kInf;
        const double cost = std::min({star_cost, chain_cost, tree_cost});
        if (options.drop_unprofitable) {
          double members = 0.0;
          for (model::ArcId a : merged) members += ptp_cost[a.index()];
          if (cost >= members - 1e-9) {
            ++stats.dropped_unprofitable_per_k[k];
            continue;
          }
        }
        // Ties break toward the structurally simplest realization.
        Candidate candidate{.arcs = merged, .cost = cost};
        if (star && star_cost == cost) {
          candidate.merging = std::move(star);
        } else if (chain && chain_cost == cost) {
          candidate.chain = std::move(chain);
        } else {
          candidate.tree = std::move(tree);
        }
        out.candidates.push_back(std::move(candidate));
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
