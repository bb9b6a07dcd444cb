#include "synth/partitioned_synthesizer.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "support/metrics.hpp"
#include "support/thread_pool.hpp"
#include "support/trace.hpp"
#include "synth/candidate_generator.hpp"
#include "synth/partition.hpp"
#include "synth/pipeline.hpp"
#include "ucp/cover.hpp"

namespace cdcs::synth {
namespace {

/// Everything one cluster contributes to the stitch.
struct ClusterOutcome {
  CandidateSet set;
  ucp::CoverSolution cover;
  DegradationReport degradation;
};

/// The cluster's arcs as an independent constraint graph. Ports keep their
/// global names and positions (ascending global vertex order), channels
/// keep their global names and bandwidths (ascending global arc order), so
/// every derived quantity -- distances, Gamma/Delta, pricing -- is computed
/// from the exact same doubles as in the full graph.
model::ConstraintGraph cluster_subgraph(const model::ConstraintGraph& cg,
                                        const Cluster& cluster) {
  std::vector<std::uint32_t> verts;
  verts.reserve(cluster.arcs.size() * 2);
  for (model::ArcId a : cluster.arcs) {
    verts.push_back(static_cast<std::uint32_t>(cg.source(a).index()));
    verts.push_back(static_cast<std::uint32_t>(cg.target(a).index()));
  }
  std::sort(verts.begin(), verts.end());
  verts.erase(std::unique(verts.begin(), verts.end()), verts.end());

  model::ConstraintGraph sub(cg.norm());
  std::vector<model::VertexId> local;
  local.reserve(verts.size());
  for (std::uint32_t v : verts) {
    const model::VertexId gv{v};
    local.push_back(sub.add_port(cg.port(gv).name, cg.position(gv)));
  }
  auto local_of = [&](model::VertexId gv) {
    const std::size_t pos = static_cast<std::size_t>(
        std::lower_bound(verts.begin(), verts.end(),
                         static_cast<std::uint32_t>(gv.index())) -
        verts.begin());
    return local[pos];
  };
  for (model::ArcId a : cluster.arcs) {
    sub.add_channel(local_of(cg.source(a)), local_of(cg.target(a)),
                    cg.bandwidth(a), cg.channel(a).name);
  }
  return sub;
}

/// Rewrites cluster-local ArcIds (index i) to global ids (cluster.arcs[i]).
void remap_arc_ids(std::vector<model::ArcId>& arcs,
                   const std::vector<model::ArcId>& global) {
  for (model::ArcId& a : arcs) a = global[a.index()];
}

void remap_candidate(Candidate& c, const std::vector<model::ArcId>& global) {
  remap_arc_ids(c.arcs, global);
  if (c.merging) remap_arc_ids(c.merging->arcs, global);
  if (c.chain) remap_arc_ids(c.chain->arcs, global);
  if (c.tree) remap_arc_ids(c.tree->arcs, global);
}

void add_per_k(std::vector<std::size_t>& into,
               const std::vector<std::size_t>& from) {
  if (into.size() < from.size()) into.resize(from.size(), 0);
  for (std::size_t k = 0; k < from.size(); ++k) into[k] += from[k];
}

/// Folds one cluster's generation stats into the global stats (per-k
/// vectors summed, eliminations mapped to global arc indices, flags OR-ed).
void merge_stats(GenerationStats& into, const GenerationStats& from,
                 const std::vector<model::ArcId>& global) {
  add_per_k(into.survivors_per_k, from.survivors_per_k);
  add_per_k(into.pruned_geometry_per_k, from.pruned_geometry_per_k);
  add_per_k(into.grid_prefilter_skips_per_k, from.grid_prefilter_skips_per_k);
  add_per_k(into.pruned_bandwidth_per_k, from.pruned_bandwidth_per_k);
  add_per_k(into.unpriceable_per_k, from.unpriceable_per_k);
  add_per_k(into.dropped_unprofitable_per_k, from.dropped_unprofitable_per_k);
  for (std::size_t i = 0; i < from.arc_eliminated_after_k.size(); ++i) {
    into.arc_eliminated_after_k[global[i].index()] =
        from.arc_eliminated_after_k[i];
  }
  into.subsets_examined += from.subsets_examined;
  into.enumeration_truncated |= from.enumeration_truncated;
  into.deadline_expired |= from.deadline_expired;
  into.pricing_cache_hits += from.pricing_cache_hits;
  into.pricing_cache_misses += from.pricing_cache_misses;
}

/// The bound is a sum of per-cluster bounds, the cost a sum over the
/// assembled implementation; the two sums round differently, so an exact
/// bound can land a few ulps above the cost it bounds. An excess within
/// 1e-12 relative is that rounding and the reported bound is clamped to
/// the cost. A larger excess is a bug: it is counted in
/// partition.bound_excess and the bound is left as computed, in view.
void clamp_bound_to_cost(SynthesisResult& result) {
  const double cost = result.total_cost;
  DegradationReport& deg = result.degradation;
  if (!(deg.lower_bound > cost)) return;
  if (deg.lower_bound - cost <= 1e-12 * std::abs(cost)) {
    deg.lower_bound = cost;
    result.cover.lower_bound = cost;
  } else {
    support::MetricsRegistry::global().counter("partition.bound_excess").add(1);
  }
}

}  // namespace

bool partitioning_applies(const model::ConstraintGraph& cg,
                          const SynthesisOptions& options) {
  return options.partitioning.enabled &&
         cg.num_channels() >= options.partitioning.arc_threshold;
}

support::Expected<SynthesisResult> synthesize_partitioned(
    const model::ConstraintGraph& cg, const commlib::Library& library,
    const SynthesisOptions& options, const ucp::BnbOptions& solver_options) {
  auto& registry = support::MetricsRegistry::global();

  Partition part;
  {
    support::ScopedTimer span(
        "partition", "pipeline",
        &registry.histogram("synth.stage.partition.us"),
        &registry.counter("synth.stage.partition.wall_us"));
    part = partition_graph(cg, options.partitioning);
  }
  if (part.clusters.size() <= 1) {
    // Degenerate partition: the plain pipeline is the same computation.
    return run_pipeline(cg, library, options, solver_options, nullptr);
  }
  registry.counter("partition.runs").add(1);
  registry.counter("partition.clusters").add(part.clusters.size());
  registry.counter("partition.boundary_arcs").add(part.boundary_arcs.size());
  support::trace_instant(
      "partition", "pipeline",
      "{\"clusters\":" + std::to_string(part.clusters.size()) +
          ",\"interior\":" + std::to_string(part.num_interior) +
          ",\"boundary_arcs\":" + std::to_string(part.boundary_arcs.size()) +
          "}");

  // Parallelism budget: the outer pool fans whole clusters out, and any
  // threads it cannot absorb (more hardware than clusters) are granted to
  // subset pricing INSIDE each cluster solve; the cover solve itself is
  // serial. On hosts where clusters >= threads the per-cluster budget is 1.
  const std::size_t total_threads =
      support::resolve_thread_count(options.threads);
  const std::size_t workers = std::min(total_threads, part.clusters.size());
  const int cluster_budget =
      static_cast<int>(std::max<std::size_t>(1, total_threads / workers));

  // Per-cluster configuration: partitioning must not recurse, and any
  // caller-provided warm start targets the global instance, not a cluster.
  // With a budget above 1 a cluster's pricing makes its own pool (a pool
  // task submitting to its own pool and blocking on the future could
  // deadlock).
  SynthesisOptions cluster_options = options;
  cluster_options.partitioning.enabled = false;
  cluster_options.threads = cluster_budget;
  if (const int cap = options.partitioning.cluster_max_merge_k; cap > 0) {
    cluster_options.max_merge_k = options.max_merge_k > 0
                                      ? std::min(options.max_merge_k, cap)
                                      : cap;
  }
  // Backend selection (cluster_solver.backend) rides along verbatim: each
  // cluster's cover goes through solve_exact's registry dispatch, and the
  // default picks per cluster from its own row count.
  ucp::BnbOptions cluster_solver = solver_options;
  cluster_solver.warm_start.clear();
  cluster_solver.warm_multipliers.clear();

  std::unique_ptr<support::ThreadPool> pool;
  if (workers > 1) pool = std::make_unique<support::ThreadPool>(workers);

  // Largest clusters first: the heavy boundary-repair clusters come last in
  // index order, and queued last they leave the pool idling at the end of
  // the run behind them. Ties keep index order.
  std::vector<std::size_t> largest_first(part.clusters.size());
  std::iota(largest_first.begin(), largest_first.end(), std::size_t{0});
  std::stable_sort(largest_first.begin(), largest_first.end(),
                   [&](std::size_t a, std::size_t b) {
                     return part.clusters[a].arcs.size() >
                            part.clusters[b].arcs.size();
                   });

  std::vector<support::Expected<ClusterOutcome>> outcomes =
      support::parallel_map_ordered(
          pool.get(), part.clusters.size(),
          [&](std::size_t i) -> support::Expected<ClusterOutcome> {
            const Cluster& cl = part.clusters[i];
            support::Span span(
                cl.repair ? "repair-cluster" : "cluster", "partition",
                "{\"index\":" + std::to_string(i) +
                    ",\"arcs\":" + std::to_string(cl.arcs.size()) + "}");
            const model::ConstraintGraph sub = cluster_subgraph(cg, cl);
            support::Expected<CandidateSet> gen =
                generate_candidates(sub, library, cluster_options);
            if (!gen.ok()) {
              return std::move(gen).take_status().with_context(
                  "partitioned cluster " + std::to_string(i) +
                  " candidate generation");
            }
            ClusterOutcome out;
            out.set = *std::move(gen);
            support::Expected<CoverOutcome> covered =
                cover_and_ladder(sub.num_channels(), out.set, cluster_options,
                                 cluster_solver, nullptr);
            if (!covered.ok()) {
              return std::move(covered).take_status().with_context(
                  "partitioned cluster " + std::to_string(i) + " cover");
            }
            out.cover = std::move(covered->cover);
            out.degradation = std::move(covered->degradation);
            return out;
          },
          largest_first);

  // Stitch in cluster order (deterministic regardless of which worker ran
  // which cluster: parallel_map_ordered hands results back in index order).
  SynthesisResult result;
  GenerationStats& stats = result.candidate_set.stats;
  stats.arc_eliminated_after_k.assign(cg.num_channels(), 0);
  stats.threads_used = workers;
  SynthesisStage worst = SynthesisStage::kExact;
  double lower_bound_sum = 0.0;
  std::size_t base = 0;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    if (!outcomes[i].ok()) {
      return std::move(outcomes[i])
          .take_status()
          .with_context("partitioned synthesis");
    }
    ClusterOutcome& out = *outcomes[i];
    const std::vector<model::ArcId>& global = part.clusters[i].arcs;
    merge_stats(stats, out.set.stats, global);
    for (Candidate& c : out.set.candidates) {
      remap_candidate(c, global);
      result.candidate_set.candidates.push_back(std::move(c));
    }
    for (std::size_t j : out.cover.chosen) {
      result.cover.chosen.push_back(base + j);
    }
    base += out.set.candidates.size();
    result.cover.cost += out.cover.cost;
    result.cover.nodes_explored += out.cover.nodes_explored;
    result.cover.deadline_expired |= out.cover.deadline_expired;
    lower_bound_sum += out.degradation.lower_bound;
    worst = std::max(worst, out.degradation.stage);
  }
  // Global optimality across clusters is unproven even when every cluster
  // solved exactly (a cross-cluster merge could in principle beat the
  // stitched optimum, though the partitioner only separated arcs whose
  // pairings the geometry prunes), so the stitched cover is an incumbent
  // with an honest aggregate bound.
  result.cover.optimal = false;
  result.cover.lower_bound = lower_bound_sum;

  DegradationReport& deg = result.degradation;
  deg.stage = std::max(SynthesisStage::kIncumbent, worst);
  deg.lower_bound = lower_bound_sum;
  deg.reason =
      "partitioned synthesis: " + std::to_string(part.clusters.size()) +
      " clusters (" + std::to_string(part.num_interior) + " interior, " +
      std::to_string(part.num_repair()) + " boundary-repair), " +
      std::to_string(part.boundary_arcs.size()) +
      " boundary arcs; per-cluster optima stitched, global optimality "
      "not proven";
  if (worst != SynthesisStage::kExact) {
    deg.reason += "; worst cluster rung: ";
    deg.reason += to_string(worst);
  }
  deg.optimality_gap = ucp::optimality_gap(result.cover.cost, lower_bound_sum);
  registry.counter("synth.degraded_runs").add(1);
  support::trace_instant(
      "degraded", "pipeline",
      "{\"stage\":\"" + std::string(to_string(deg.stage)) + "\"}");

  assemble_and_validate(cg, library, options, result);
  clamp_bound_to_cost(result);
  registry.counter("synth.runs").add(1);
  return result;
}

}  // namespace cdcs::synth
