// The benchmark's four workloads. Each one builds its inputs from a seed,
// runs one timed unit of work through the library's public entry points,
// and checks every unit's output afterwards, untimed.
//
// A unit is what a designer waits for in a closed loop with one client:
// one synthesize() call on a large instance, one Engine::apply() on an edit
// stream, or one pass over the paper's published instances.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace cdcs::bench {

/// Pinned reference values from expected.json, flattened to
/// "<instance>.<field>" keys ("wan2002.cost", "wan2002.fingerprint",
/// "wan2002.rel_tol"). Workloads look up what they need and fail their
/// setup when a key is missing, so a check can never be silently skipped.
using References = std::map<std::string, std::string>;

/// What the harness needs to know about a workload besides its code.
struct WorkloadSpec {
  std::string_view name;
  /// Percentile reported as latency_ms_tail: the highest one with about
  /// ten samples beyond it at the benchmark's run length.
  double tail_percentile;
  /// Units always run, even past the time budget; also the prefix that
  /// cost_ratio_vs_ptp is averaged over, so the ratio does not depend on
  /// how many units a run manages.
  std::size_t min_units;
  /// Trace ring capacity for one traced unit (events); sized so that no
  /// event is ever dropped.
  std::size_t trace_capacity;
};

const std::vector<WorkloadSpec>& workload_specs();
const WorkloadSpec* find_workload(std::string_view name);

/// Outcome of the untimed checks on one unit.
struct UnitCheck {
  std::string failure;     ///< first failed check; empty when the unit passed
  double cost_ratio{0.0};  ///< implementation cost / point-to-point cost
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds the inputs, checks generator fingerprints and pinned costs, and
  /// runs one untimed warm-up unit. Returns a failure message, or "".
  virtual std::string setup() = 0;
  /// The timed unit.
  virtual void run_unit(std::size_t index) = 0;
  /// Untimed checks on the unit run_unit(index) just produced.
  virtual UnitCheck check_unit(std::size_t index) = 0;
};

std::unique_ptr<Workload> make_workload(const WorkloadSpec& spec,
                                        std::uint64_t seed, int threads,
                                        const References& refs);

}  // namespace cdcs::bench
