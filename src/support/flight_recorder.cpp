#include "support/flight_recorder.hpp"

#include <atomic>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string_view>
#include <utility>
#include <vector>

#include "support/metrics.hpp"
#include "support/obs_context.hpp"

namespace cdcs::support {
namespace {

// Postmortem arming state. The latch is atomic so the common disarmed /
// already-latched checks at fault sites stay lock-free; the directory and
// the file write serialize on the mutex.
std::mutex g_postmortem_mu;
std::string g_postmortem_dir;  // guarded by g_postmortem_mu
std::atomic<bool> g_postmortem_armed{false};
std::atomic<bool> g_postmortem_latched{false};
std::atomic<std::uint64_t> g_postmortem_seq{0};

// A flight event's args: {"detail":<detail as a JSON string>}.
constexpr std::string_view kDetailPrefix = "{\"detail\":";

}  // namespace

TraceSink& flight_recorder() {
  static TraceSink* recorder = new TraceSink(512);
  return *recorder;
}

void flight_record(const char* kind, std::string detail) {
  TraceSink& recorder = flight_recorder();
  TraceEvent e;
  e.name = kind;
  e.category = "flight";
  e.timestamp_us = recorder.now_us();
  e.thread_id = trace_thread_id();
  std::ostringstream args;
  args << kDetailPrefix;
  write_json_string(args, detail);
  args << '}';
  e.args = std::move(args).str();
  e.scope = current_obs_scope_path();
  recorder.record(std::move(e));
}

void dump_postmortem(std::ostream& os, const char* trigger,
                     const std::string& detail) {
  const TraceSink& recorder = flight_recorder();
  std::size_t dropped = 0;
  const std::vector<TraceEvent> events = recorder.snapshot(&dropped);

  os << "{\n  \"postmortem\": {\"trigger\": ";
  write_json_string(os, trigger);
  os << ", \"detail\": ";
  write_json_string(os, detail);
  os << ", \"scope\": ";
  write_json_string(os, current_obs_scope_path());
  os << ", \"timestamp_us\": "
     << (events.empty() ? 0 : events.back().timestamp_us) << "},\n";

  os << "  \"flight_recorder\": {\"capacity\": " << recorder.capacity()
     << ", \"total_recorded\": " << dropped + events.size()
     << ", \"events\": [";
  for (std::size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    if (i != 0) os << ",";
    os << "\n    {\"seq\": " << dropped + i << ", \"ts_us\": "
       << e.timestamp_us << ", \"tid\": " << e.thread_id << ", \"kind\": ";
    write_json_string(os, e.name);
    // The detail is already a JSON string inside the event's args object.
    os << ", \"detail\": "
       << std::string_view(e.args).substr(
              kDetailPrefix.size(), e.args.size() - kDetailPrefix.size() - 1);
    os << ", \"scope\": ";
    write_json_string(os, e.scope);
    os << "}";
  }
  os << "\n  ]},\n";

  os << "  \"metrics\": ";
  write_metrics_json(os, MetricsRegistry::global().snapshot());
  os << ",\n  \"trace\": ";
  if (TraceSink* sink = trace_sink(); sink != nullptr) {
    write_chrome_trace(os, *sink);
  } else {
    os << "null";
  }
  os << "\n}\n";
}

void set_postmortem_dir(std::string dir) {
  std::lock_guard<std::mutex> lock(g_postmortem_mu);
  g_postmortem_dir = std::move(dir);
  g_postmortem_armed.store(!g_postmortem_dir.empty(),
                           std::memory_order_release);
  g_postmortem_latched.store(false, std::memory_order_release);
}

std::string postmortem_dir() {
  std::lock_guard<std::mutex> lock(g_postmortem_mu);
  return g_postmortem_dir;
}

void reset_postmortem_latch() {
  g_postmortem_latched.store(false, std::memory_order_release);
}

std::string maybe_dump_postmortem(const char* trigger,
                                  const std::string& detail) {
  if (!g_postmortem_armed.load(std::memory_order_acquire)) return "";
  if (g_postmortem_latched.exchange(true, std::memory_order_acq_rel)) {
    MetricsRegistry::global().counter("postmortem.suppressed").add(1);
    return "";
  }
  std::lock_guard<std::mutex> lock(g_postmortem_mu);
  std::string path;
  std::ofstream out;
  if (!g_postmortem_dir.empty()) {
    const std::uint64_t seq =
        g_postmortem_seq.fetch_add(1, std::memory_order_relaxed);
    path = g_postmortem_dir + "/postmortem_" + std::to_string(seq) + ".json";
    out.open(path, std::ios::trunc);
  }
  if (!out.is_open()) {
    // Nothing was written (disarmed meanwhile, or the open failed): leave
    // the run's one artifact to a later trigger.
    g_postmortem_latched.store(false, std::memory_order_release);
    return "";
  }
  flight_record("postmortem", std::string("dump trigger=") + trigger);
  dump_postmortem(out, trigger, detail);
  MetricsRegistry::global().counter("postmortem.dumps").add(1);
  return path;
}

}  // namespace cdcs::support
