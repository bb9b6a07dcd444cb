// Flight recorder + postmortem artifacts: an always-on bounded ring of the
// most recent structured events (stage transitions, incumbent updates,
// degradation-ladder rungs, fault fires, journal appends, cover-solver
// backend outcomes), dumpable -- together with a metrics snapshot and the
// trace ring -- to one JSON artifact when something goes wrong
// (docs/observability.md).
//
// The recorder is a TraceSink (support/trace.hpp) holding instant events,
// not a ring of its own. Unlike the installed trace sink it is ALWAYS on
// and never installed: the events it captures are rare (dozens per solve,
// not millions), so the cost of a mutex-guarded ring append at those sites
// is noise, and the payoff is that a crash, fault fire, or degraded exit
// can be explained after the fact without having re-run under --trace-out.
// Recording is write-only metadata -- nothing reads the ring during a
// solve -- so results stay bit-identical.
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

#include <ostream>
#include <string>

#include "support/trace.hpp"

namespace cdcs::support {

/// The process-global flight recorder: a TraceSink of capacity 512 that is
/// never installed, so it records while tracing stays off. Never destructed:
/// instrumentation sites may fire during static teardown (same stance as
/// MetricsRegistry::global()).
TraceSink& flight_recorder();

/// Appends one instant event to flight_recorder(): name `kind` (a static
/// string from a small closed vocabulary: "stage", "ladder", "incumbent",
/// "fault", "journal", "backend", "postmortem"), category "flight", args
/// {"detail": <detail>}, and the emitter's thread id and ObsContext scope.
/// The one-liner instrumentation sites use.
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
/// postmortem.suppressed), or the file could not be opened (which leaves
/// the latch open for the next trigger).
std::string maybe_dump_postmortem(const char* trigger,
                                  const std::string& detail);

}  // namespace cdcs::support
