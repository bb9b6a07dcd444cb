// File-driven synthesis: the command-line front end for users who want to
// run the synthesizer on their own systems without writing C++.
//
//   ./file_based_synthesis [options] <constraint.graph> <comm.lib>
//
// Options:
//   --policy sum|max         trunk capacity accounting (default: sum)
//   --pivot min-d|any|max-i  Lemma 3.2 pivot rule (default: min-d)
//   --max-k N                largest merging size considered (default: |A|)
//   --lean                   drop unprofitable mergings from the UCP
//   --no-chains              price only star merging structures
//   --tables                 print the Gamma/Delta matrices (paper style)
//   --delay WIRE NODE BUDGET per-length delay, per-node delay, and budget:
//                            prints per-channel worst-path delays and flags
//                            budget violations (the paper's clock-period
//                            assumption check)
//   --deadline-ms MS         wall-clock budget; on expiry the synthesizer
//                            degrades to the best anytime cover and reports
//                            the stage + optimality gap (never fails)
//   --threads N              worker threads for candidate pricing and
//                            per-cluster synthesis (default 0 = all
//                            hardware threads). Results are bit-identical
//                            for every N (docs/performance.md)
//   --partition              enable hierarchical partitioned synthesis:
//                            cluster the arcs geometrically, synthesize
//                            each cluster independently (in parallel), and
//                            stitch the per-cluster optima. Scales to
//                            thousands of arcs; reports the summed cluster
//                            lower bound and the optimality gap. Instances
//                            at or below the threshold still take the
//                            exact path (docs/performance.md)
//   --partition-threshold N  arc count at or below which --partition falls
//                            back to the exact monolithic pipeline
//                            (default 64)
//   --partition-cluster-arcs N  target maximum arcs per cluster
//                            (default 24)
//   --cover-solver NAME      cover-solver backend: dense_dp or bnb_v2.
//                            Default: dense_dp up to 20 rows, bnb_v2
//                            above (docs/performance.md)
//   --no-lagrangian          disable the solver's Lagrangian node bounds
//   --no-rc-fixing           disable reduced-cost column fixing
//   --no-grid-prefilter      disable the geometric grid pre-filter
//   --repair                 sanitize-and-repair the constraint graph
//                            (merge parallel channels by summing bandwidth)
//                            instead of rejecting it; defects the parser
//                            itself rejects (duplicate channel names, bad
//                            numbers) still fail at read time
//   --edit-script FILE       incremental batch mode: replay the edit script
//                            (io/edit_script.hpp format) through ONE
//                            synth::Engine session, re-synthesizing after
//                            each `solve` and reporting per-batch cost,
//                            stage, and reuse statistics. --dot/--save/
//                            --delay and the exit code describe the LAST
//                            result
//   --journal FILE           with --edit-script: write-ahead log the
//                            session to FILE (io/journal.hpp) -- base
//                            snapshot plus every applied batch -- so a
//                            crash at any point is recoverable via
//                            Engine::recover (docs/robustness.md)
//   --fault-plan SPEC        arm deterministic fault injection: rules
//                            'site@n' (nth hit), 'site%k' (every k-th),
//                            'site~p' (seeded probability) joined with
//                            ';', optional 'seed=N'. Sites are listed in
//                            docs/robustness.md; unknown sites fail usage
//   --dot FILE               write the result as Graphviz DOT
//   --save FILE              write the implementation graph (io format)
//   --trace-out FILE         record a Chrome trace_event JSON trace of the
//                            run (load in https://ui.perfetto.dev). The file
//                            is written on EVERY exit path -- a failing
//                            synthesis still flushes a valid (truncated)
//                            trace of what ran (docs/observability.md)
//   --metrics-out FILE       write the run's metrics delta as flat JSON
//                            (counters/gauges/histograms); enables wall-time
//                            timing
//   --report-perf            print the consolidated perf section (per-stage
//                            wall time, cache, UCP telemetry) instead of the
//                            one-line Perf summary; enables timing AND a
//                            trace session so the in-process profiler's
//                            top-N hotspots table can be derived
//   --obs-session LABEL      open an observability scope (e.g. wan_a) for
//                            the whole run: every span/counter/flight event
//                            is attributed 'LABEL/solve=N' in traces and
//                            postmortems (docs/observability.md)
//   --postmortem-dir DIR     arm automatic postmortem dumps: the first
//                            fault fire or degraded exit writes
//                            DIR/postmortem_<n>.json (flight recorder +
//                            metrics + trace ring), exactly once per run
//   --quiet                  suppress the full report (exit code only)
//
// Every value-taking option also accepts --flag=value.
//
// Exit codes (stable; see docs/robustness.md):
//   0 success, 1 validation failure, 2 usage error, 3 parse error,
//   4 invalid input, 5 deadline exceeded, 6 infeasible, 7 internal error.
#include <algorithm>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>

#include "io/dot.hpp"
#include "io/edit_script.hpp"
#include "io/impl_format.hpp"
#include "io/report.hpp"
#include "io/tables.hpp"
#include "io/text_format.hpp"
#include "model/sanitize.hpp"
#include "sim/delay.hpp"
#include "support/fault.hpp"
#include "support/flight_recorder.hpp"
#include "support/metrics.hpp"
#include "support/obs_context.hpp"
#include "support/profiler.hpp"
#include "support/trace.hpp"
#include "synth/engine.hpp"
#include "synth/synthesizer.hpp"
#include "ucp/bnb_options.hpp"

namespace {

int usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0
      << " [options] <constraint.graph> <comm.lib>\n"
         "  --policy sum|max   trunk capacity accounting (default sum)\n"
         "  --pivot min-d|any|max-i   Lemma 3.2 pivot rule (default min-d)\n"
         "  --max-k N          largest merging size considered\n"
         "  --lean             drop unprofitable mergings\n"
         "  --no-chains        star structures only\n"
         "  --tables           print Gamma/Delta matrices\n"
         "  --deadline-ms MS   wall-clock budget (degrades, never fails)\n"
         "  --threads N        pricing worker threads (0 = all hardware)\n"
         "  --partition        hierarchical partitioned synthesis "
         "(large instances)\n"
         "  --partition-threshold N   exact-path fallback arc count "
         "(default 64)\n"
         "  --partition-cluster-arcs N   target max arcs per cluster "
         "(default 24)\n"
         "  --cover-solver NAME   backend (" +
             cdcs::ucp::cover_backend_list() +
             ")\n"
         "  --no-lagrangian    disable Lagrangian solver bounds\n"
         "  --no-rc-fixing     disable reduced-cost column fixing\n"
         "  --no-grid-prefilter   disable the geometric grid pre-filter\n"
         "  --repair           repair invalid constraint graphs\n"
         "  --edit-script FILE incremental replay through one session\n"
         "  --journal FILE     write-ahead log the session (--edit-script)\n"
         "  --fault-plan SPEC  arm fault injection ('site@n;site%k;site~p"
         ";seed=N')\n"
         "  --dot FILE         write Graphviz DOT\n"
         "  --save FILE        write the implementation graph\n"
         "  --trace-out FILE   write a Chrome trace_event JSON trace\n"
         "  --metrics-out FILE write the run's metrics as flat JSON\n"
         "  --report-perf      print the consolidated perf + profile "
         "sections\n"
         "  --obs-session LABEL   attribute the run to an observability "
         "scope\n"
         "  --postmortem-dir DIR  dump a postmortem JSON on fault/degraded "
         "exit\n"
         "  --quiet            suppress the report\n"
         "(value options also accept --flag=value)\n";
  return 2;
}

/// Structured-diagnostic exit: prints the status chain and maps its code to
/// the documented exit status.
int fail(const cdcs::support::Status& status) {
  std::cerr << "error: " << status.to_string() << '\n';
  return cdcs::support::exit_code(status.code());
}

/// Observability state that must survive run()'s early returns: main()
/// flushes the trace and metrics files AFTER run() finishes, whatever its
/// exit path, so a synthesis failure mid-session still leaves a valid
/// (truncated-but-well-formed) trace on disk.
struct Observability {
  std::string trace_out;
  std::string metrics_out;
  std::string obs_session;
  std::string postmortem_dir;
  bool report_perf = false;
  std::optional<cdcs::support::ScopedTraceSession> session;
  cdcs::support::MetricsSnapshot baseline;
};

int run(int argc, char** argv, Observability& obs) {
  using namespace cdcs;

  synth::SynthesisOptions options;
  bool print_tables = false;
  bool repair = false;
  bool quiet = false;
  bool check_delay = false;
  sim::DelayModel delay_model;
  double delay_budget = 0.0;
  std::string dot_file;
  std::string save_file;
  std::string edit_script_file;
  std::string journal_file;
  std::vector<std::string> positional;

  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    // --flag=value: split once; next() consumes the inline value first.
    std::string inline_value;
    bool has_inline = false;
    if (arg.starts_with("--")) {
      if (const std::size_t eq = arg.find('=');
          eq != std::string_view::npos) {
        inline_value = std::string(arg.substr(eq + 1));
        arg = arg.substr(0, eq);
        has_inline = true;
      }
    }
    auto next = [&]() -> std::string {
      if (has_inline) {
        has_inline = false;
        return inline_value;
      }
      if (i + 1 >= argc) {
        std::cerr << arg << " needs an argument\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--policy") {
      const std::string v = next();
      if (v == "sum") {
        options.policy = model::CapacityPolicy::kSharedSum;
      } else if (v == "max") {
        options.policy = model::CapacityPolicy::kMaxPerConstraint;
      } else {
        return usage(argv[0]);
      }
    } else if (arg == "--pivot") {
      const std::string v = next();
      if (v == "min-d") {
        options.pivot_rule = synth::PivotRule::kMinDistance;
      } else if (v == "any") {
        options.pivot_rule = synth::PivotRule::kAnyPivot;
      } else if (v == "max-i") {
        options.pivot_rule = synth::PivotRule::kMaxIndex;
      } else {
        return usage(argv[0]);
      }
    } else if (arg == "--max-k") {
      options.max_merge_k = std::atoi(next().c_str());
    } else if (arg == "--lean") {
      options.drop_unprofitable = true;
    } else if (arg == "--no-chains") {
      options.enable_chain_topology = false;
    } else if (arg == "--tables") {
      print_tables = true;
    } else if (arg == "--deadline-ms") {
      options.deadline = support::Deadline::after_ms(std::atof(next().c_str()));
    } else if (arg == "--threads") {
      options.threads = std::atoi(next().c_str());
    } else if (arg == "--partition") {
      options.partitioning.enabled = true;
    } else if (arg == "--partition-threshold") {
      options.partitioning.arc_threshold =
          static_cast<std::size_t>(std::atoi(next().c_str()));
    } else if (arg == "--partition-cluster-arcs") {
      options.partitioning.max_cluster_arcs =
          static_cast<std::size_t>(std::atoi(next().c_str()));
    } else if (arg == "--cover-solver") {
      const std::string v = next();
      if (std::find(ucp::kCoverBackends.begin(), ucp::kCoverBackends.end(),
                    v) == ucp::kCoverBackends.end()) {
        std::cerr << "unknown cover-solver backend '" << v
                  << "' (registered: " << ucp::cover_backend_list() << ")\n";
        return usage(argv[0]);
      }
      options.solver.backend = v;
    } else if (arg == "--no-lagrangian") {
      options.solver.use_lagrangian_bound = false;
      options.solver.use_reduced_cost_fixing = false;  // needs the bound
    } else if (arg == "--no-rc-fixing") {
      options.solver.use_reduced_cost_fixing = false;
    } else if (arg == "--no-grid-prefilter") {
      options.use_grid_prefilter = false;
    } else if (arg == "--repair") {
      repair = true;
    } else if (arg == "--edit-script") {
      edit_script_file = next();
    } else if (arg == "--journal") {
      journal_file = next();
    } else if (arg == "--fault-plan") {
      auto plan = support::FaultPlan::parse(next());
      if (!plan.ok()) {
        std::cerr << "bad --fault-plan: " << plan.status().to_string()
                  << '\n';
        return 2;
      }
      options.fault_injection.injector =
          std::make_shared<support::FaultInjector>(*std::move(plan));
    } else if (arg == "--delay") {
      delay_model.link_delay_per_length = std::atof(next().c_str());
      delay_model.node_delay = std::atof(next().c_str());
      delay_budget = std::atof(next().c_str());
      check_delay = true;
    } else if (arg == "--dot") {
      dot_file = next();
    } else if (arg == "--save") {
      save_file = next();
    } else if (arg == "--trace-out") {
      obs.trace_out = next();
    } else if (arg == "--metrics-out") {
      obs.metrics_out = next();
    } else if (arg == "--report-perf") {
      obs.report_perf = true;
    } else if (arg == "--obs-session") {
      obs.obs_session = next();
    } else if (arg == "--postmortem-dir") {
      obs.postmortem_dir = next();
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg.starts_with("--")) {
      return usage(argv[0]);
    } else {
      positional.emplace_back(arg);
    }
    if (has_inline) return usage(argv[0]);  // --flag=value on a plain flag
  }
  if (positional.size() != 2) return usage(argv[0]);
  if (!journal_file.empty() && edit_script_file.empty()) {
    std::cerr << "--journal requires --edit-script (journaling is a session "
                 "feature)\n";
    return 2;
  }

  // Observability setup precedes everything that can fail so partial runs
  // are captured too. Timing (clock reads in ScopedTimer) is opt-in via the
  // flags that consume it; the baseline makes the exported metrics a
  // per-run delta of the process-global registry.
  // --report-perf also installs a session: the profile section is derived
  // from the trace ring, so the spans have to be captured somewhere even
  // when no --trace-out file was requested.
  if (!obs.trace_out.empty() || obs.report_perf) obs.session.emplace();
  if (!obs.metrics_out.empty() || obs.report_perf) {
    support::set_timing_enabled(true);
  }
  if (!obs.postmortem_dir.empty()) {
    support::set_postmortem_dir(obs.postmortem_dir);
  }
  std::optional<support::ObsContext> run_scope;
  if (!obs.obs_session.empty()) run_scope.emplace(obs.obs_session);
  obs.baseline = support::MetricsRegistry::global().snapshot();

  std::ifstream graph_file(positional[0]);
  if (!graph_file) {
    std::cerr << "cannot open constraint graph '" << positional[0] << "'\n";
    return 2;
  }
  std::ifstream lib_file(positional[1]);
  if (!lib_file) {
    std::cerr << "cannot open library '" << positional[1] << "'\n";
    return 2;
  }

  auto graph_read = io::read_constraint_graph(graph_file);
  if (!graph_read.ok()) {
    return fail(std::move(graph_read)
                    .take_status()
                    .with_context("reading '" + positional[0] + "'"));
  }
  model::ConstraintGraph cg = *std::move(graph_read);

  auto lib_read = io::read_library(lib_file);
  if (!lib_read.ok()) {
    return fail(std::move(lib_read)
                    .take_status()
                    .with_context("reading '" + positional[1] + "'"));
  }
  const commlib::Library lib = *std::move(lib_read);

  if (repair) {
    model::SanitizeReport report;
    auto repaired =
        model::sanitize(cg, model::SanitizeOptions{.repair = true}, &report);
    if (!repaired.ok()) return fail(std::move(repaired).take_status());
    for (const std::string& note : report.repairs) {
      std::cerr << "repair: " << note << '\n';
    }
    cg = *std::move(repaired);
  }

  if (print_tables) {
    std::cout << "Gamma (Constrained Distance Sum):\n"
              << io::format_arc_pair_matrix(cg, synth::gamma_matrix(cg))
              << "\nDelta (Merging Distance Sum):\n"
              << io::format_arc_pair_matrix(cg, synth::delta_matrix(cg))
              << '\n';
  }

  // Incremental mode: replay the whole script through ONE session, then
  // fall through to the normal reporting with the last result.
  std::optional<synth::Engine> engine;
  support::Expected<synth::SynthesisResult> synthesis =
      support::Status::Internal("unreachable");
  if (!edit_script_file.empty()) {
    std::ifstream script_file(edit_script_file);
    if (!script_file) {
      std::cerr << "cannot open edit script '" << edit_script_file << "'\n";
      return 2;
    }
    auto script_read = io::read_edit_script(script_file);
    if (!script_read.ok()) {
      return fail(std::move(script_read)
                      .take_status()
                      .with_context("reading '" + edit_script_file + "'"));
    }
    const io::EditScript script = *std::move(script_read);

    engine.emplace(std::move(cg), lib, options);
    if (!journal_file.empty()) {
      if (const support::Status st = engine->open_journal(journal_file);
          !st.ok()) {
        return fail(st);
      }
      if (!quiet) std::cout << "journaling to " << journal_file << '\n';
    }
    synthesis = engine->resynthesize();
    if (!synthesis.ok()) return fail(synthesis.status());
    if (!quiet) {
      std::cout << "baseline: cost " << synthesis->total_cost << " ("
                << to_string(synthesis->degradation.stage) << ")\n";
    }
    for (std::size_t b = 0; b < script.batches.size(); ++b) {
      synthesis = engine->apply(script.batches[b]);
      if (!synthesis.ok()) {
        support::Status st = synthesis.status();
        return fail(
            std::move(st).with_context("edit batch " + std::to_string(b + 1)));
      }
      if (!quiet) {
        const synth::Engine::SessionStats s = engine->stats();
        std::cout << "batch " << (b + 1) << ": "
                  << script.batches[b].ops.size() << " op(s), cost "
                  << synthesis->total_cost << " ("
                  << to_string(synthesis->degradation.stage) << "), "
                  << s.last_dirty_arcs << " dirty arc(s), "
                  << synthesis->candidate_set.stats.pricing_cache_hits
                  << " pricing hit(s), "
                  << synthesis->candidate_set.stats.pricing_cache_misses
                  << " miss(es)\n";
      }
    }
    if (!quiet) {
      const synth::Engine::SessionStats s = engine->stats();
      std::cout << "session: " << s.applies << " apply(s), "
                << s.cover_solves << " cover solve(s), " << s.cover_reuses
                << " cover reuse(s), pricing hit rate "
                << (s.pricing_hits + s.pricing_misses == 0
                        ? 0.0
                        : static_cast<double>(s.pricing_hits) /
                              static_cast<double>(s.pricing_hits +
                                                  s.pricing_misses))
                << '\n';
    }
  } else {
    synthesis = synth::synthesize(cg, lib, options);
    if (!synthesis.ok()) return fail(synthesis.status());
  }
  const model::ConstraintGraph& result_cg = engine ? engine->graph() : cg;
  const synth::SynthesisResult& result = *synthesis;
  if (!quiet) {
    std::cout << io::describe(result, result_cg, lib,
                              /*include_perf_line=*/!obs.report_perf);
    if (obs.report_perf) {
      std::cout << io::describe_perf(
          support::MetricsRegistry::global().snapshot().delta_since(
              obs.baseline),
          &result);
      if (obs.session.has_value()) {
        std::cout << io::describe_profile(
            support::build_profile(obs.session->sink()));
      }
    }
  }

  if (check_delay) {
    const sim::DelayReport delays =
        sim::analyze_delays(*result.implementation, delay_model);
    std::cout << "\nChannel delays (worst path):\n";
    for (const sim::ChannelDelay& c : delays.channels) {
      std::cout << "  " << c.name << ": " << c.worst_path_delay << " ("
                << c.hops << " hops)"
                << (c.worst_path_delay > delay_budget ? "  ** OVER BUDGET"
                                                      : "")
                << '\n';
    }
    const auto violations = delays.violations(delay_budget);
    std::cout << violations.size() << " channel(s) over the "
              << delay_budget << " budget\n";
  }

  if (!dot_file.empty()) {
    std::ofstream dot(dot_file);
    dot << io::to_dot(*result.implementation);
    if (!quiet) std::cout << "wrote " << dot_file << '\n';
  }
  if (!save_file.empty()) {
    std::ofstream save(save_file);
    save << io::write_implementation(*result.implementation);
    if (!quiet) std::cout << "wrote " << save_file << '\n';
  }
  return result.validation.ok() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Observability obs;
  const int code = run(argc, argv, obs);

  // Flush observability files on EVERY exit path (success, validation
  // failure, synthesis error mid-edit-script): whatever events made it into
  // the ring are exported as a well-formed trace -- the exporter closes any
  // span the failure left open.
  if (obs.session.has_value() && !obs.trace_out.empty()) {
    obs.session->close();
    std::ofstream out(obs.trace_out);
    if (!out) {
      std::cerr << "cannot write trace '" << obs.trace_out << "'\n";
      return code == 0 ? 2 : code;
    }
    const std::size_t events =
        cdcs::support::write_chrome_trace(out, obs.session->sink());
    std::cout << "wrote trace " << obs.trace_out << " (" << events
              << " event(s))\n";
  }
  if (!obs.metrics_out.empty()) {
    std::ofstream out(obs.metrics_out);
    if (!out) {
      std::cerr << "cannot write metrics '" << obs.metrics_out << "'\n";
      return code == 0 ? 2 : code;
    }
    cdcs::support::write_metrics_json(
        out, cdcs::support::MetricsRegistry::global().snapshot().delta_since(
                 obs.baseline));
    std::cout << "wrote metrics " << obs.metrics_out << '\n';
  }
  return code;
}
