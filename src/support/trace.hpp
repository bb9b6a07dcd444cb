// Zero-cost-when-disabled tracing: RAII spans over the synthesis pipeline,
// the one thread-safe ring-buffer event sink of the observability layer,
// and a Chrome trace_event exporter (docs/observability.md).
//
// Model. Instrumentation sites construct `Span` objects (begin/end pairs),
// or emit `trace_counter` / `trace_instant` events. All of them route
// through one process-global sink pointer:
//
//   * No sink installed (the default): every emit site reduces to ONE
//     relaxed atomic load and a branch. No clock is read, no memory is
//     written, no lock is taken -- results, node counts, and thread
//     interleavings are exactly those of an uninstrumented build, which the
//     determinism tests pin (tests/test_trace.cpp).
//   * Sink installed (--trace-out, a test, a bench): events carry a
//     monotonic-clock timestamp (microseconds since the sink was created),
//     a small stable per-thread id, and land in a fixed-capacity ring
//     buffer under a mutex. When the ring wraps, the OLDEST events are
//     overwritten and `dropped()` counts them.
//
// The flight recorder (support/flight_recorder.hpp) is another TraceSink
// of the same class: always on, never installed, holding instant events.
//
// Span names and categories must be string literals (or otherwise outlive
// the sink): events store the pointers, not copies -- emitting is O(1) and
// allocation-free except for the optional args string and the ObsContext
// scope path stamped onto each event when a scope is active
// (support/obs_context.hpp); both happen only with a sink installed.
//
// Spans. replay_spans() is the one begin/end pairing repair: it re-balances
// a ring-truncated stream per thread, and both the Chrome exporter below
// and the profiler (support/profiler.hpp) read spans only through it.
//
// Export: write_chrome_trace() emits the Chrome trace_event JSON array
// format, loadable in Perfetto (https://ui.perfetto.dev) or about:tracing.
// Counter events become "C" tracks (UCP bound progress, queue depths);
// spans become balanced "B"/"E" pairs per thread.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace cdcs::support {

struct TraceEvent {
  enum class Phase : std::uint8_t {
    kBegin,    ///< span opened ("B")
    kEnd,      ///< span closed ("E")
    kCounter,  ///< named value sample ("C"), `value` holds the sample
    kInstant,  ///< point event ("i")
  };

  const char* name{""};      ///< static string; never null
  const char* category{""};  ///< static string; never null
  Phase phase{Phase::kInstant};
  std::int64_t timestamp_us{0};  ///< monotonic, relative to sink creation
  std::uint32_t thread_id{0};    ///< small stable id (see trace_thread_id)
  double value{0.0};             ///< kCounter payload
  std::string args;              ///< JSON object via write_json_string or ""
  std::string scope;             ///< ObsContext path at emission ("" = none)
};

/// Thread-safe fixed-capacity ring buffer of trace events. Overwrites the
/// oldest events when full (an observability tool must never OOM the
/// process it observes); `dropped()` reports how many were lost.
class TraceSink {
 public:
  explicit TraceSink(std::size_t capacity = 1 << 20);

  TraceSink(const TraceSink&) = delete;
  TraceSink& operator=(const TraceSink&) = delete;

  /// Appends one event (timestamp/thread id already filled by the emit
  /// helpers). Thread-safe; O(1); never allocates past the initial reserve
  /// except for the event's own args string.
  void record(TraceEvent event);

  /// The buffered events in emission order (oldest surviving first). When
  /// `dropped` is given, it receives dropped() read under the same lock, so
  /// the events' lifetime emission indices are *dropped + i.
  std::vector<TraceEvent> snapshot(std::size_t* dropped = nullptr) const;

  std::size_t size() const;
  std::size_t capacity() const { return capacity_; }
  /// Events overwritten because the ring was full.
  std::size_t dropped() const;

  /// Microseconds of monotonic clock since this sink was created; what the
  /// emit helpers stamp into events.
  std::int64_t now_us() const;

 private:
  const std::size_t capacity_;
  const std::int64_t epoch_ns_;  ///< steady_clock at construction
  mutable std::mutex mu_;
  std::vector<TraceEvent> ring_;
  std::size_t head_{0};  ///< next write position once the ring is full
  bool wrapped_{false};
  std::size_t dropped_{0};
};

/// Installs `sink` as the process-global event destination (nullptr
/// disables tracing). The caller keeps ownership; the sink must outlive its
/// installation. Emit sites that already captured the previous sink finish
/// their span against it, so keep the old sink alive briefly after a swap
/// (in practice: install at startup, uninstall at exit -- see
/// ScopedTraceSession).
void install_trace_sink(TraceSink* sink);

/// The currently installed sink (nullptr when tracing is disabled).
TraceSink* trace_sink();

/// True when a sink is installed. One relaxed atomic load.
inline bool tracing_enabled() { return trace_sink() != nullptr; }

/// Small dense id for the calling thread, assigned on first use (0, 1, ...
/// in first-emission order). Stable for the thread's lifetime.
std::uint32_t trace_thread_id();

/// RAII begin/end span. Constructing with no sink installed is inert and
/// costs one atomic load; the end event always goes to the SAME sink that
/// saw the begin, even if the global pointer changed mid-span.
class Span {
 public:
  explicit Span(const char* name, const char* category = "synth",
                std::string args = {});
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  TraceSink* sink_;  ///< captured at construction; null = inert
  const char* name_;
  const char* category_;
};

/// Emits a named counter sample ("C" event; renders as a value-over-time
/// track in Perfetto). No-op without a sink.
void trace_counter(const char* name, double value,
                   const char* category = "synth");

/// Emits an instant point event. No-op without a sink.
void trace_instant(const char* name, const char* category = "synth",
                   std::string args = {});

/// Owns a sink and installs it for its own lifetime; uninstalls (and leaves
/// the events readable) on destruction or explicit `close()`. What the CLI
/// and tests use so a sink is never left dangling on early exits.
class ScopedTraceSession {
 public:
  explicit ScopedTraceSession(std::size_t capacity = 1 << 20);
  ~ScopedTraceSession();

  ScopedTraceSession(const ScopedTraceSession&) = delete;
  ScopedTraceSession& operator=(const ScopedTraceSession&) = delete;

  TraceSink& sink() { return sink_; }
  /// Uninstalls the sink (idempotent); events remain snapshot()-able.
  void close();

 private:
  TraceSink sink_;
  bool installed_{true};
};

/// One step of a span replay (see replay_spans).
struct SpanStep {
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  /// The surviving event; for a synthetic end, the begin it closes.
  const TraceEvent* event{nullptr};
  /// event->phase, or kEnd for a synthetic end.
  TraceEvent::Phase phase{TraceEvent::Phase::kInstant};
  /// event->timestamp_us, or the stream's last timestamp for a synthetic end.
  std::int64_t timestamp_us{0};
  /// kEnd: index of the matching kBegin step.
  std::size_t begin{kNone};
  /// kBegin: index of the enclosing open kBegin step on the same thread
  /// (kNone at top level).
  std::size_t parent{kNone};
};

/// The begin/end pairing repair every span consumer shares. Replays
/// `events` with one stack per thread: an end whose begin the ring
/// overwrote is dropped, and each begin still open at the end of the stream
/// gets a synthetic end stamped with the stream's last timestamp, appended
/// thread by thread, deepest first. Every other event passes through in
/// order, so every kBegin step has exactly one kEnd step. The steps point
/// into `events`, which must outlive them.
std::vector<SpanStep> replay_spans(const std::vector<TraceEvent>& events);

/// Writes `events` as Chrome trace_event JSON ({"traceEvents": [...]}):
/// the replay_spans() steps, so B/E pairing holds for every thread even
/// when the ring truncated the stream (the golden test's schema check).
/// Returns the number of events written (after pairing repair).
std::size_t write_chrome_trace(std::ostream& os,
                               const std::vector<TraceEvent>& events);

/// Convenience: snapshot + write. Returns the number of events written
/// (after pairing repair).
std::size_t write_chrome_trace(std::ostream& os, const TraceSink& sink);

/// Writes `s` as a JSON string literal (quotes included), escaping
/// backslash, quote, and control characters. Shared by the trace, metrics,
/// profile, and postmortem exporters so hostile names (scope labels with
/// quotes/newlines/UTF-8) can never break a document.
void write_json_string(std::ostream& os, std::string_view s);

}  // namespace cdcs::support
