// Per-layer metrics of the traced run, folded from the spans and counters
// the library already emits: each traced unit runs under its own trace
// session, and its profile (support::build_profile) and metrics-registry
// delta are added here. Every metric is a per-unit mean unless its name
// says otherwise (a rate, a share or a maximum).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "support/metrics.hpp"
#include "support/trace.hpp"

namespace cdcs::bench {

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class LayerFold {
 public:
  /// Adds one traced unit that took `wall_ms` on `threads` threads.
  void add_unit(const std::vector<support::TraceEvent>& events,
                const support::MetricsSnapshot& delta, double wall_ms,
                int threads);

  /// The per-layer metrics over every unit added; `trace_overhead` is the
  /// traced median latency over the untraced one.
  std::vector<Metric> metrics(double trace_overhead) const;

 private:
  struct SpanTotals {
    std::uint64_t count{0};
    double total_us{0.0};
    double self_us{0.0};
  };

  const SpanTotals& span(const std::string& name) const;
  double counter(const std::string& name) const;

  std::size_t units_{0};
  std::map<std::string, SpanTotals> spans_;  ///< summed over scopes, units
  std::map<std::string, std::uint64_t> counters_;
  std::vector<double> cluster_max_ms_;  ///< slowest cluster, per unit
  double thread_busy_capacity_us_{0.0};  ///< sum of wall x threads
};

}  // namespace cdcs::bench
