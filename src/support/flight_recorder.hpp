// Flight recorder + postmortem artifacts: an always-on bounded ring of the
// most recent structured events (stage transitions, incumbent updates,
// degradation-ladder rungs, fault fires, journal appends, cover-solver
// backend outcomes), dumpable -- together with a metrics snapshot and the
// trace ring -- to one JSON artifact when something goes wrong
// (docs/observability.md).
//
// Unlike the trace layer, the recorder is ALWAYS on: the events it captures
// are rare (dozens per solve, not millions), so the cost of a mutex-guarded
// ring append at those sites is noise, and the payoff is that a crash,
// fault fire, or degraded exit can be explained after the fact without
// having re-run under --trace-out. Recording is write-only metadata --
// nothing reads the ring during a solve -- so results stay bit-identical.
//
// Postmortems. set_postmortem_dir() arms automatic dumps: the FIRST
// trigger (fault-injector fire, degraded exit, deadline expiry, abort)
// after arming -- or after reset_postmortem_latch() -- serializes the ring,
// a MetricsRegistry snapshot, and the installed trace ring (if any) to
// <dir>/postmortem_<seq>.json and latches, so one failing run yields
// exactly one artifact no matter how many triggers cascade afterwards.
// Suppressed triggers bump the postmortem.suppressed counter; successful
// dumps bump postmortem.dumps.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace cdcs::support {

/// One recorded event. `kind` is a small closed vocabulary ("stage",
/// "ladder", "incumbent", "fault", "journal", "backend", "postmortem");
/// `detail` is free-form human-readable text; `scope` is the emitting
/// thread's ObsContext path at record time ("" when unscoped).
struct FlightEvent {
  std::uint64_t seq{0};          ///< global emission order, never reused
  std::int64_t timestamp_us{0};  ///< monotonic since recorder creation
  std::uint32_t thread_id{0};    ///< trace_thread_id of the emitter
  const char* kind{""};          ///< static string; never null
  std::string detail;
  std::string scope;
};

/// Thread-safe fixed-capacity ring of FlightEvents; overwrites the oldest
/// when full (same never-OOM stance as TraceSink).
class FlightRecorder {
 public:
  explicit FlightRecorder(std::size_t capacity = 512);

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Appends one event; fills seq/timestamp/thread/scope itself. `kind`
  /// must be a static string.
  void record(const char* kind, std::string detail);

  /// The buffered events in emission order (oldest surviving first).
  std::vector<FlightEvent> snapshot() const;

  std::size_t capacity() const { return capacity_; }
  /// Events ever recorded (>= capacity() means the ring wrapped).
  std::uint64_t total_recorded() const;

  /// The process-global recorder all instrumentation writes to.
  static FlightRecorder& global();

 private:
  const std::size_t capacity_;
  const std::int64_t epoch_ns_;
  mutable std::mutex mu_;
  std::vector<FlightEvent> ring_;
  std::size_t head_{0};
  bool wrapped_{false};
  std::uint64_t total_{0};
};

/// Appends to FlightRecorder::global(). The one-liner instrumentation
/// sites use.
void flight_record(const char* kind, std::string detail);

/// Serializes a full postmortem document to `os`:
///   {"postmortem": {trigger, detail, scope, timestamp_us},
///    "flight_recorder": {capacity, total_recorded, events: [...]},
///    "metrics": <write_metrics_json of the global registry>,
///    "trace": <Chrome trace document of the installed sink, or null>}
/// Usable directly by tests; the automatic trigger path below wraps it
/// with the directory/latch policy.
void dump_postmortem(std::ostream& os, const char* trigger,
                     const std::string& detail);

/// Arms automatic postmortem dumps into `dir` (which must exist) and
/// resets the one-shot latch. An empty dir disarms.
void set_postmortem_dir(std::string dir);

/// The armed directory ("" when disarmed).
std::string postmortem_dir();

/// Re-opens the one-shot latch so the NEXT trigger dumps again (what
/// chaos_driver calls between iterations).
void reset_postmortem_latch();

/// Trigger hook: if dumps are armed and the latch is open, writes
/// <dir>/postmortem_<seq>.json and latches, returning the path written.
/// Returns "" when disarmed, already latched (bumps
/// postmortem.suppressed), or the file could not be opened.
std::string maybe_dump_postmortem(const char* trigger,
                                  const std::string& detail);

}  // namespace cdcs::support
