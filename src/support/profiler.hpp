// In-process profiler: aggregate span statistics per (scope, span-name),
// derived entirely from a captured trace event stream at export time
// (docs/observability.md).
//
// There is deliberately NO hot-path machinery here: the trace layer already
// records every span begin/end with timestamps and scopes, so the profile
// is a pure function of a TraceSink snapshot -- build_profile() walks the
// replay_spans() steps (support/trace.hpp), the same paired stream the
// Chrome exporter writes, and aggregates:
//   * count        -- completed span instances
//   * total_us     -- inclusive wall time (sum over instances)
//   * self_us      -- total_us minus time spent in same-thread child spans
//   * max_us       -- largest single instance
//   * buckets      -- fixed latency histogram (Histogram::latency_us_bounds)
// Span COUNTS are deterministic for a fixed serial workload, which is what
// Profiler.CountsAreDeterministicAcrossSerialRuns (tests/test_obs_context.cpp)
// pins; timings are machine noise and are never diffed.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "support/trace.hpp"

namespace cdcs::support {

/// Aggregated statistics for one (scope, span-name) pair.
struct ProfileEntry {
  std::string scope;  ///< ObsContext path at span begin ("" = unscoped)
  std::string name;   ///< span name
  std::uint64_t count{0};
  std::int64_t total_us{0};  ///< inclusive
  std::int64_t self_us{0};   ///< exclusive of same-thread children
  std::int64_t max_us{0};
  std::vector<std::uint64_t> buckets;  ///< per latency bucket, +inf last
};

/// Upper bounds (microseconds) of the profile latency buckets; the +inf
/// overflow bucket is implicit. Shared with Histogram's default bounds so
/// the profile and the *.us histograms bucket identically.
const std::vector<double>& profile_bucket_bounds();

/// Aggregates `events` (a TraceSink snapshot, emission order) into profile
/// entries sorted by (scope, name) -- a deterministic key order, so the
/// JSON below is diffable.
std::vector<ProfileEntry> build_profile(
    const std::vector<TraceEvent>& events);

/// Convenience: snapshot + aggregate.
std::vector<ProfileEntry> build_profile(const TraceSink& sink);

/// {"buckets_us": [...], "entries": [{"scope": ..., "name": ...,
///  "count": N, "total_us": T, "self_us": S, "max_us": M,
///  "buckets": [...]}]} -- entries in (scope, name) order.
void write_profile_json(std::ostream& os,
                        const std::vector<ProfileEntry>& entries);

}  // namespace cdcs::support
