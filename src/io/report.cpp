#include "io/report.hpp"

#include <algorithm>
#include <cstdint>
#include <sstream>

#include "ucp/cover.hpp"

namespace cdcs::io {
namespace {

std::string arc_list(const std::vector<model::ArcId>& arcs,
                     const model::ConstraintGraph& cg) {
  std::ostringstream os;
  os << '{';
  for (std::size_t i = 0; i < arcs.size(); ++i) {
    if (i > 0) os << ',';
    os << cg.channel(arcs[i]).name;
  }
  os << '}';
  return os.str();
}

std::string plan_summary(const synth::PtpPlan& plan,
                         const commlib::Library& lib) {
  std::ostringstream os;
  os << lib.link(plan.link).name;
  if (plan.segments > 1) os << " x" << plan.segments << " segments";
  if (plan.parallel > 1) os << " x" << plan.parallel << " parallel";
  return os.str();
}

}  // namespace

std::string describe_candidate(const synth::Candidate& c,
                               const model::ConstraintGraph& cg,
                               const commlib::Library& lib) {
  std::ostringstream os;
  std::visit(
      synth::Overloaded{
          [&](const synth::PtpPlan& p) {
            os << cg.channel(c.arcs.front()).name << ": point-to-point "
               << plan_summary(p, lib);
          },
          [&](const synth::MergingPlan& m) {
            os << "merge " << arc_list(c.arcs, cg) << " via "
               << plan_summary(*m.trunk, lib) << " trunk ("
               << m.trunk_bandwidth << " bw)";
            if (m.has_hub) os << ", hub at " << m.hub_pos;
            if (m.has_split) os << ", split at " << m.split_pos;
          },
          [&](const synth::ChainPlan& ch) {
            os << "chain-merge " << arc_list(c.arcs, cg) << " ("
               << (ch.source_rooted ? "source" : "target") << "-rooted, "
               << ch.drop_pos.size() << " drops, first segment "
               << plan_summary(ch.segments.front(), lib) << " @ "
               << ch.segment_bandwidth.front() << " bw)";
          },
          [&](const synth::TreePlan& t) {
            std::size_t junctions = 0;
            for (bool j : t.is_junction) junctions += j;
            os << "tree-merge " << arc_list(c.arcs, cg) << " ("
               << (t.source_rooted ? "source" : "target") << "-rooted, "
               << t.edges.size() << " edges, " << junctions << " junctions)";
          }},
      c.plan);
  os << ", cost " << c.cost;
  return os.str();
}

std::string describe(const synth::SynthesisResult& result,
                     const model::ConstraintGraph& cg,
                     const commlib::Library& lib, bool include_perf_line) {
  std::ostringstream os;
  const auto& stats = result.candidate_set.stats;

  os << "Candidate set: " << cg.num_channels() << " point-to-point";
  for (std::size_t k = 2; k < stats.survivors_per_k.size(); ++k) {
    if (stats.survivors_per_k[k] > 0) {
      os << ", " << stats.survivors_per_k[k] << " " << k << "-way";
    }
  }
  os << " (" << result.candidates().size() << " UCP columns)\n";

  std::size_t grid_skips = 0;
  for (std::size_t s : stats.grid_prefilter_skips_per_k) grid_skips += s;
  if (grid_skips > 0) {
    os << "  grid pre-filter skipped " << grid_skips
       << " geometrically distant subset" << (grid_skips == 1 ? "" : "s")
       << "\n";
  }

  for (std::size_t i = 0; i < stats.arc_eliminated_after_k.size(); ++i) {
    if (stats.arc_eliminated_after_k[i] > 0) {
      os << "  " << cg.channel(model::ArcId{static_cast<std::uint32_t>(i)}).name
         << " eliminated from mergings after k="
         << stats.arc_eliminated_after_k[i] << "\n";
    }
  }

  os << "Selected implementation (cost " << result.total_cost << "):\n";
  for (const synth::Candidate* c : result.selected()) {
    os << "  " << describe_candidate(*c, cg, lib) << '\n';
  }
  os << "UCP: " << (result.cover.optimal ? "proven optimal" : "incumbent")
     << " in " << result.cover.nodes_explored << " nodes";
  if (!result.cover.backend.empty()) {
    os << " via " << result.cover.backend;
  }
  os << '\n';
  if (include_perf_line &&
      (stats.threads_used > 1 ||
       stats.pricing_cache_hits + stats.pricing_cache_misses > 0)) {
    os << "Perf: " << stats.threads_used << " pricing thread"
       << (stats.threads_used == 1 ? "" : "s");
    const std::size_t probes =
        stats.pricing_cache_hits + stats.pricing_cache_misses;
    if (probes > 0) {
      os << ", pricing cache " << stats.pricing_cache_hits << "/" << probes
         << " hits";
    }
    os << '\n';
  }
  const synth::DegradationReport& deg = result.degradation;
  os << "Stage: " << synth::to_string(deg.stage);
  if (deg.degraded()) {
    os << " (" << deg.reason << "; lower bound " << deg.lower_bound
       << ", optimality gap " << deg.optimality_gap * 100.0 << "%)";
  } else if (deg.lower_bound > 0.0) {
    // Exact runs carry a meaningful bound too (== the achieved cost, gap
    // 0%); print it whenever it exists so every run reports how far from
    // the proven floor it landed, not only the degraded ones.
    os << " (lower bound " << deg.lower_bound << ", optimality gap "
       << deg.optimality_gap * 100.0 << "%)";
  }
  os << '\n';
  os << "Validation: "
     << (result.validation.ok() ? "PASS" : "FAIL") << '\n';
  for (const std::string& p : result.validation.problems) {
    os << "  problem: " << p << '\n';
  }
  return os.str();
}

namespace {

std::uint64_t counter_or(const support::MetricsSnapshot& m,
                         const std::string& name) {
  const auto it = m.counters.find(name);
  return it == m.counters.end() ? 0 : it->second;
}

double gauge_or(const support::MetricsSnapshot& m, const std::string& name) {
  const auto it = m.gauges.find(name);
  return it == m.gauges.end() ? 0.0 : it->second;
}

std::string ms_of_us(double us) {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(3);
  os << us / 1000.0 << " ms";
  return os.str();
}

std::string pct(std::uint64_t part, std::uint64_t whole) {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(1);
  os << (whole == 0
             ? 0.0
             : 100.0 * static_cast<double>(part) / static_cast<double>(whole))
     << "%";
  return os.str();
}

}  // namespace

std::string describe_perf(const support::MetricsSnapshot& m,
                          const synth::SynthesisResult* result) {
  std::ostringstream os;
  os << "Perf:\n";

  // Per-stage wall time; present only when timing was enabled for the run.
  static constexpr const char* kStages[] = {"generate", "cover", "ladder",
                                            "assemble", "validate"};
  std::uint64_t total_us = 0;
  for (const char* stage : kStages) {
    total_us += counter_or(m, std::string("synth.stage.") + stage + ".wall_us");
  }
  if (total_us > 0) {
    os << "  stages (wall):";
    const char* sep = " ";
    for (const char* stage : kStages) {
      const std::uint64_t us =
          counter_or(m, std::string("synth.stage.") + stage + ".wall_us");
      os << sep << stage << " " << ms_of_us(static_cast<double>(us));
      sep = ", ";
    }
    os << "\n";
  }

  const std::uint64_t hits = counter_or(m, "synth.pricing_cache.hits");
  const std::uint64_t misses = counter_or(m, "synth.pricing_cache.misses");
  os << "  pricing: " << counter_or(m, "synth.subsets_examined")
     << " subset(s) examined, cache " << hits << "/" << (hits + misses)
     << " hits (" << pct(hits, hits + misses) << ")";
  if (const std::uint64_t ev = counter_or(m, "synth.pricing_cache.evictions");
      ev > 0) {
    os << ", " << ev << " eviction(s)";
  }
  os << "\n";
  os << "  pricers: ptp " << counter_or(m, "pricer.ptp.calls") << ", star "
     << counter_or(m, "pricer.star.calls") << ", chain "
     << counter_or(m, "pricer.chain.calls") << ", tree "
     << counter_or(m, "pricer.tree.calls") << " call(s)";
  if (const auto it = m.histograms.find("pricer.subset.us");
      it != m.histograms.end() && it->second.count > 0) {
    os << "; pricing chunk mean " << ms_of_us(it->second.mean());
  }
  os << "\n";

  os << "  ucp: " << counter_or(m, "ucp.solves") << " solve(s)";
  if (const std::uint64_t dp = counter_or(m, "ucp.dp_solves"); dp > 0) {
    os << " (" << dp << " dense-DP)";
  }
  os << ", " << counter_or(m, "ucp.cover_reuses") << " cover reuse(s), "
     << counter_or(m, "ucp.nodes_explored") << " node(s), "
     << counter_or(m, "ucp.incumbent_updates") << " incumbent update(s), "
     << counter_or(m, "ucp.rc_fixed_columns")
     << " column(s) fixed by reduced cost\n";

  // Per-backend solve/node counters ("ucp.backend.<name>.solves"/".nodes"),
  // emitted by solve_exact for the backend it ran. std::map keys keep the
  // listing alphabetical, hence deterministic.
  {
    const std::string prefix = "ucp.backend.";
    const std::string solves_suffix = ".solves";
    bool first = true;
    for (const auto& [name, value] : m.counters) {
      if (name.rfind(prefix, 0) != 0 ||
          name.size() <= prefix.size() + solves_suffix.size() ||
          name.compare(name.size() - solves_suffix.size(),
                       solves_suffix.size(), solves_suffix) != 0) {
        continue;
      }
      const std::string backend = name.substr(
          prefix.size(), name.size() - prefix.size() - solves_suffix.size());
      os << (first ? "  backends:" : ",") << " " << backend << " " << value
         << " solve(s)/"
         << counter_or(m, prefix + backend + ".nodes") << " node(s)";
      first = false;
    }
    if (!first) os << "\n";
  }

  // Why the winning solve stopped -- and, when the ladder had to step past
  // exact, which rung and why. Degraded runs are diagnosable from the
  // report alone.
  if (result != nullptr) {
    os << "  cover stop: " << ucp::to_string(result->cover.stop);
    if (!result->cover.backend.empty()) {
      os << " (backend " << result->cover.backend << ")";
    }
    os << "\n";
    if (result->degradation.degraded()) {
      os << "  degradation: stage=" << to_string(result->degradation.stage)
         << " -- " << result->degradation.reason << "\n";
    }
  }

  if (const std::uint64_t degraded = counter_or(m, "synth.degraded_runs");
      degraded > 0) {
    os << "  degraded: " << degraded << " of " << counter_or(m, "synth.runs")
       << " run(s)\n";
  }

  const auto tasks = m.histograms.find("thread_pool.task.us");
  const double peak_depth = gauge_or(m, "thread_pool.queue_depth");
  if (peak_depth > 0.0 ||
      (tasks != m.histograms.end() && tasks->second.count > 0)) {
    os << "  thread pool: peak queue depth "
       << static_cast<std::uint64_t>(peak_depth);
    if (tasks != m.histograms.end() && tasks->second.count > 0) {
      os << ", " << tasks->second.count << " task(s), mean "
         << ms_of_us(tasks->second.mean());
    }
    os << "\n";
  }
  return os.str();
}

std::string describe_profile(const std::vector<support::ProfileEntry>& entries,
                             std::size_t top_n) {
  std::ostringstream os;
  os << "Profile (top " << std::min(top_n, entries.size()) << " of "
     << entries.size() << " span(s), by total time):\n";
  // Entries arrive in (scope, name) key order; rank hotspots by inclusive
  // time with the deterministic key order as the tie-break.
  std::vector<const support::ProfileEntry*> ranked;
  ranked.reserve(entries.size());
  for (const support::ProfileEntry& e : entries) ranked.push_back(&e);
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const support::ProfileEntry* a,
                      const support::ProfileEntry* b) {
                     return a->total_us > b->total_us;
                   });
  if (ranked.size() > top_n) ranked.resize(top_n);
  for (const support::ProfileEntry* e : ranked) {
    os << "  " << e->name;
    if (!e->scope.empty()) os << " [" << e->scope << "]";
    const double mean_us =
        e->count == 0 ? 0.0
                      : static_cast<double>(e->total_us) /
                            static_cast<double>(e->count);
    os << ": " << e->count << " call(s), total "
       << ms_of_us(static_cast<double>(e->total_us)) << ", self "
       << ms_of_us(static_cast<double>(e->self_us)) << ", max "
       << ms_of_us(static_cast<double>(e->max_us)) << ", mean "
       << ms_of_us(mean_us) << "\n";
  }
  return os.str();
}

}  // namespace cdcs::io
