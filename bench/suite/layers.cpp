#include "layers.hpp"

#include <algorithm>

#include "support/profiler.hpp"

namespace cdcs::bench {

void LayerFold::add_unit(const std::vector<support::TraceEvent>& events,
                         const support::MetricsSnapshot& delta, double wall_ms,
                         int threads) {
  ++units_;
  double cluster_max_us = 0.0;
  for (const support::ProfileEntry& e : support::build_profile(events)) {
    SpanTotals& totals = spans_[e.name];
    totals.count += e.count;
    totals.total_us += static_cast<double>(e.total_us);
    totals.self_us += static_cast<double>(e.self_us);
    if (e.name == "cluster" || e.name == "repair-cluster") {
      cluster_max_us = std::max(cluster_max_us, static_cast<double>(e.max_us));
    }
  }
  cluster_max_ms_.push_back(cluster_max_us / 1000.0);
  for (const auto& [name, value] : delta.counters) counters_[name] += value;
  thread_busy_capacity_us_ += wall_ms * 1000.0 * threads;
}

const LayerFold::SpanTotals& LayerFold::span(const std::string& name) const {
  static const SpanTotals kNone;
  const auto it = spans_.find(name);
  return it == spans_.end() ? kNone : it->second;
}

double LayerFold::counter(const std::string& name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0.0 : static_cast<double>(it->second);
}

std::vector<Metric> LayerFold::metrics(double trace_overhead) const {
  const double n = static_cast<double>(std::max<std::size_t>(units_, 1));
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  auto per_unit_ms = [&](double us) { return us / 1000.0 / n; };

  std::vector<Metric> out;
  auto add = [&out](std::string name, double value, std::string unit) {
    out.push_back({std::move(name), value, std::move(unit)});
  };

  // synth/partition
  const SpanTotals& cluster = span("cluster");
  const SpanTotals& repair = span("repair-cluster");
  add("partition.ms", per_unit_ms(span("partition").total_us), "ms");
  add("partition.clusters", counter("partition.clusters") / n, "count");
  add("partition.boundary_arcs", counter("partition.boundary_arcs") / n,
      "count");
  add("cluster.max_ms",
      cluster_max_ms_.empty()
          ? 0.0
          : *std::max_element(cluster_max_ms_.begin(), cluster_max_ms_.end()),
      "ms");
  add("repair.share",
      ratio(repair.total_us, repair.total_us + cluster.total_us), "ratio");

  // synth/candidate_generator
  const double subsets = counter("synth.subsets_examined");
  add("generate.self_ms", per_unit_ms(span("generate").self_us), "ms");
  add("generate.subsets_examined", subsets / n, "count");
  add("generate.yield", ratio(counter("synth.candidates"), subsets), "ratio");

  // synth/merging_pricer, chain_pricer, tree_pricer, ptp
  for (const char* pricer : {"star", "chain", "tree", "ptp"}) {
    const std::string prefix = std::string("price.") + pricer;
    const SpanTotals& s = span(prefix);
    add(prefix + ".self_ms", per_unit_ms(s.self_us), "ms");
    add(prefix + ".calls", static_cast<double>(s.count) / n, "count");
    add(prefix + ".us_per_call",
        ratio(s.self_us, static_cast<double>(s.count)), "us");
  }

  // synth/pricing_cache
  const double hits = counter("synth.pricing_cache.hits");
  const double misses = counter("synth.pricing_cache.misses");
  add("pricing_cache.hits", hits / n, "count");
  add("pricing_cache.misses", misses / n, "count");
  add("pricing_cache.hit_rate", ratio(hits, hits + misses), "ratio");

  // ucp
  add("ucp.solve.ms", per_unit_ms(span("ucp.solve").total_us), "ms");
  add("ucp.dense_dp.ms", per_unit_ms(span("ucp.dense_dp").total_us), "ms");
  add("ucp.solves", counter("ucp.solves") / n, "count");
  add("ucp.dp_solves", counter("ucp.dp_solves") / n, "count");
  add("ucp.nodes_explored", counter("ucp.nodes_explored") / n, "count");
  double other_backends = 0.0;
  for (const auto& [name, value] : counters_) {
    if (name.starts_with("ucp.backend.") && name.ends_with(".solves")) {
      other_backends += static_cast<double>(value);
    }
  }
  for (const char* backend : {"dense_dp", "dfs_v1", "bnb_v2"}) {
    const std::string name = std::string("ucp.backend.") + backend + ".solves";
    other_backends -= counter(name);
    add(name, counter(name) / n, "count");
  }
  add("ucp.backend.other.solves", other_backends / n, "count");

  // synth/pipeline, synth/assemble, model/validator
  add("ucp.cover_reuses", counter("ucp.cover_reuses") / n, "count");
  add("assemble.ms", per_unit_ms(span("assemble").total_us), "ms");
  add("validate.ms", per_unit_ms(span("validate").total_us), "ms");

  // synth/engine
  add("engine.apply.self_ms", per_unit_ms(span("engine.apply").self_us), "ms");
  add("engine.dirty_arcs", counter("engine.dirty_arcs") / n, "count");

  // support/thread_pool
  const SpanTotals& task = span("task");
  add("pool.tasks", static_cast<double>(task.count) / n, "count");
  add("pool.utilization", ratio(task.total_us, thread_busy_capacity_us_),
      "ratio");

  // support/trace
  add("trace.overhead", trace_overhead, "ratio");
  return out;
}

}  // namespace cdcs::bench
