// The benchmark binary: runs one workload (workloads.hpp) in a closed loop
// with one client, checks every unit's output, and prints one JSON object
// with the end-to-end metrics (untraced run) or the per-layer metrics
// (--trace).
// run.py builds this binary, passes it the pinned references from
// expected.json, and turns its output into the benchmark's report.
//
//   cdcs_bench --workload NAME [--seed S] [--seconds T | --units N]
//              [--setups K] [--trace] [--ref KEY=VALUE]...
//
// Synthesis runs on min(4, CPUs this process may use) threads.
//
// Exit status: 0 when every unit passed its checks, 1 when a unit failed
// (the JSON is still printed), 2 on a usage error, 3 when set-up failed.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "layers.hpp"
#include "support/metrics.hpp"
#include "support/trace.hpp"
#include "workloads.hpp"

namespace {

using namespace cdcs;
using Clock = std::chrono::steady_clock;

struct Args {
  std::string workload;
  std::uint64_t seed{7};
  double seconds{20.0};
  std::size_t units{0};  ///< 0 = run for `seconds`
  int setups{3};
  bool trace{false};
  bench::References refs;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "cdcs_bench: %s\nusage: cdcs_bench --workload NAME [--seed S] "
               "[--seconds T | --units N] [--setups K] [--trace] "
               "[--ref KEY=VALUE]...\nworkloads:",
               why);
  for (const bench::WorkloadSpec& spec : bench::workload_specs()) {
    std::fprintf(stderr, " %.*s", static_cast<int>(spec.name.size()),
                 spec.name.data());
  }
  std::fputc('\n', stderr);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--trace") {
      args.trace = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (flag == "--units") {
      args.units = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--setups") {
      args.setups = std::max(1, std::atoi(value.c_str()));
    } else if (flag == "--ref") {
      const std::size_t eq = value.find('=');
      if (eq == std::string::npos) usage("--ref takes KEY=VALUE");
      args.refs[value.substr(0, eq)] = value.substr(eq + 1);
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.workload.empty()) usage("--workload is required");
  return args;
}

int synthesis_threads() {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int cpus = sched_getaffinity(0, sizeof set, &set) == 0
                       ? CPU_COUNT(&set)
                       : static_cast<int>(std::thread::hardware_concurrency());
  return std::clamp(cpus, 1, 4);
}

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Linear interpolation between closest ranks; 0 for no samples.
double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] +
         (rank - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Everything the closed loop observed.
struct Measurement {
  std::size_t attempted{0};
  std::size_t failed{0};
  std::vector<std::string> failures;  ///< the first few, for the report
  std::vector<double> untraced_ms;
  std::vector<double> traced_ms;
  std::vector<double> log_cost_ratios;  ///< passing units of the prefix
  /// Peak RSS after the first min_units units: a session's caches grow with
  /// the number of edits, so a later peak would grow with speed.
  double rss_mb{0.0};
  bench::LayerFold layers;
};

/// Runs one unit under its own trace session, folds its spans and counter
/// deltas into `layers`, and returns its wall time. Sets `failure` when the
/// trace ring dropped events: the per-layer numbers would then be short.
double run_traced_unit(bench::Workload& workload, std::size_t index,
                       const bench::WorkloadSpec& spec, int threads,
                       bench::LayerFold& layers, std::string& failure) {
  const support::MetricsSnapshot before =
      support::MetricsRegistry::global().snapshot();
  support::ScopedTraceSession session(spec.trace_capacity);
  double unit_ms = 0.0;
  {
    support::Span span("bench.unit", "bench");
    const Clock::time_point t0 = Clock::now();
    workload.run_unit(index);
    unit_ms = ms_since(t0);
  }
  session.close();
  if (const std::size_t dropped = session.sink().dropped(); dropped > 0) {
    failure = "trace ring dropped " + std::to_string(dropped) + " events";
  }
  layers.add_unit(
      session.sink().snapshot(),
      support::MetricsRegistry::global().snapshot().delta_since(before),
      unit_ms, threads);
  return unit_ms;
}

/// The closed loop: one client, the next unit starts when the previous one
/// and its checks are done. With --trace every other unit is traced; the
/// untraced ones give the baseline for trace.overhead.
Measurement measure(bench::Workload& workload, const bench::WorkloadSpec& spec,
                    const Args& args, int threads) {
  Measurement m;
  const Clock::time_point end =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(args.seconds));
  auto more = [&](std::size_t i) {
    if (args.units > 0) return i < args.units;
    return i < spec.min_units || Clock::now() < end;
  };
  for (std::size_t i = 0; more(i); ++i) {
    const bool traced = args.trace && i % 2 == 1;
    std::string failure;
    double unit_ms = 0.0;
    try {
      if (traced) {
        unit_ms =
            run_traced_unit(workload, i, spec, threads, m.layers, failure);
      } else {
        const Clock::time_point t0 = Clock::now();
        workload.run_unit(i);
        unit_ms = ms_since(t0);
      }
      const bench::UnitCheck check = workload.check_unit(i);
      if (failure.empty()) failure = check.failure;
      if (check.failure.empty() && i < spec.min_units) {
        m.log_cost_ratios.push_back(std::log(check.cost_ratio));
      }
    } catch (const std::exception& e) {
      failure = e.what();
    }
    (traced ? m.traced_ms : m.untraced_ms).push_back(unit_ms);
    if (i + 1 == spec.min_units) m.rss_mb = peak_rss_mb();
    ++m.attempted;
    if (!failure.empty()) {
      ++m.failed;
      if (m.failures.size() < 5) {
        m.failures.push_back("unit " + std::to_string(i) + ": " + failure);
      }
    }
  }
  if (m.rss_mb == 0.0) m.rss_mb = peak_rss_mb();
  return m;
}

std::vector<bench::Metric> end_to_end_metrics(
    const Measurement& m, const bench::WorkloadSpec& spec,
    const std::vector<double>& setup_s) {
  const double busy_s =
      std::accumulate(m.untraced_ms.begin(), m.untraced_ms.end(), 0.0) /
      1000.0;
  const double log_ratio_sum = std::accumulate(
      m.log_cost_ratios.begin(), m.log_cost_ratios.end(), 0.0);
  const double cost_ratio =
      m.log_cost_ratios.empty()
          ? 0.0
          : std::exp(log_ratio_sum /
                     static_cast<double>(m.log_cost_ratios.size()));
  return {
      {"latency_ms_p50", percentile(m.untraced_ms, 50.0), "ms"},
      {"latency_ms_tail", percentile(m.untraced_ms, spec.tail_percentile),
       "ms"},
      {"ops_per_s",
       busy_s > 0 ? static_cast<double>(m.untraced_ms.size()) / busy_s : 0.0,
       "1/s"},
      {"cost_ratio_vs_ptp", cost_ratio, "ratio"},
      {"success_rate",
       static_cast<double>(m.attempted - m.failed) /
           static_cast<double>(m.attempted),
       "ratio"},
      {"setup_s", percentile(setup_s, 50.0), "s"},
      {"peak_rss_mb", m.rss_mb, "MB"},
  };
}

void print_result(const Args& args, const bench::WorkloadSpec& spec,
                  int threads, const std::vector<double>& setup_s,
                  const Measurement& m,
                  const std::vector<bench::Metric>& metrics) {
  std::ostream& out = std::cout;
  out.precision(17);
  out << "{\"workload\":";
  support::write_json_string(out, args.workload);
  out << ",\"seed\":" << args.seed << ",\"threads\":" << threads
      << ",\"trace\":" << (args.trace ? "true" : "false")
      << ",\"tail_percentile\":" << spec.tail_percentile << ",\"setups_s\":[";
  for (std::size_t k = 0; k < setup_s.size(); ++k) {
    out << (k ? "," : "") << setup_s[k];
  }
  out << "],\"attempted\":" << m.attempted << ",\"failed\":" << m.failed
      << ",\"failures\":[";
  for (std::size_t k = 0; k < m.failures.size(); ++k) {
    if (k) out << ",";
    support::write_json_string(out, m.failures[k]);
  }
  out << "],\"metrics\":{";
  for (std::size_t k = 0; k < metrics.size(); ++k) {
    if (k) out << ",";
    support::write_json_string(out, metrics[k].name);
    out << ":{\"value\":" << metrics[k].value << ",\"unit\":";
    support::write_json_string(out, metrics[k].unit);
    out << "}";
  }
  out << "}}" << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const bench::WorkloadSpec* spec = bench::find_workload(args.workload);
  if (spec == nullptr) usage(("unknown workload " + args.workload).c_str());
  const int threads = synthesis_threads();

  // Set-up runs several times from scratch; the last instance is measured.
  std::unique_ptr<bench::Workload> workload;
  std::vector<double> setup_s;
  for (int k = 0; k < args.setups; ++k) {
    const Clock::time_point t0 = Clock::now();
    std::string failure;
    try {
      workload = bench::make_workload(*spec, args.seed, threads, args.refs);
      failure = workload->setup();
    } catch (const std::exception& e) {
      failure = e.what();
    }
    if (!failure.empty()) {
      std::fprintf(stderr, "cdcs_bench: %s set-up failed: %s\n",
                   args.workload.c_str(), failure.c_str());
      return 3;
    }
    setup_s.push_back(ms_since(t0) / 1000.0);
  }

  const Measurement m = measure(*workload, *spec, args, threads);
  std::vector<bench::Metric> metrics;
  if (args.trace) {
    const double p50 = percentile(m.untraced_ms, 50.0);
    metrics = m.layers.metrics(
        p50 > 0 ? percentile(m.traced_ms, 50.0) / p50 : 0.0);
  } else {
    metrics = end_to_end_metrics(m, *spec, setup_s);
  }
  print_result(args, *spec, threads, setup_s, m, metrics);
  return m.failed == 0 ? 0 : 1;
}
