#include "support/trace.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "support/obs_context.hpp"

namespace cdcs::support {
namespace {

std::atomic<TraceSink*> g_sink{nullptr};
std::atomic<std::uint32_t> g_next_thread_id{0};

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

const char* phase_string(TraceEvent::Phase phase) {
  switch (phase) {
    case TraceEvent::Phase::kBegin:
      return "B";
    case TraceEvent::Phase::kEnd:
      return "E";
    case TraceEvent::Phase::kCounter:
      return "C";
    case TraceEvent::Phase::kInstant:
      return "i";
  }
  return "i";
}

void write_event(std::ostream& os, const TraceEvent& e) {
  os << "{\"name\":";
  write_json_string(os, e.name);
  os << ",\"cat\":";
  write_json_string(os, *e.category ? e.category : "synth");
  os << ",\"ph\":\"" << phase_string(e.phase) << "\"";
  os << ",\"ts\":" << e.timestamp_us;
  os << ",\"pid\":1,\"tid\":" << e.thread_id;
  // The scope path (if any) rides in "args" next to the event's own
  // payload, so Perfetto shows attribution on hover and queries can group
  // by args.scope. The preformatted args object ("{...}") is spliced in
  // after the scope key.
  auto write_args_with_scope = [&os, &e] {
    os << ",\"args\":{\"scope\":";
    write_json_string(os, e.scope);
    if (e.args.size() > 2) {
      os << "," << std::string_view(e.args).substr(1, e.args.size() - 2);
    }
    os << "}";
  };
  if (e.phase == TraceEvent::Phase::kCounter) {
    // Counter payloads live in "args"; Perfetto draws one track per key.
    os << ",\"args\":{\"value\":" << e.value;
    if (!e.scope.empty()) {
      os << ",\"scope\":";
      write_json_string(os, e.scope);
    }
    os << "}";
  } else if (e.phase == TraceEvent::Phase::kInstant) {
    os << ",\"s\":\"t\"";  // thread-scoped instant
    if (!e.scope.empty()) {
      write_args_with_scope();
    } else if (!e.args.empty()) {
      os << ",\"args\":" << e.args;
    }
  } else if (e.phase == TraceEvent::Phase::kBegin) {
    if (!e.scope.empty()) {
      write_args_with_scope();
    } else if (!e.args.empty()) {
      os << ",\"args\":" << e.args;
    }
  }
  os << "}";
}

}  // namespace

void write_json_string(std::ostream& os, std::string_view s) {
  os << '"';
  for (const char c : s) {
    switch (c) {
      case '"':
        os << "\\\"";
        break;
      case '\\':
        os << "\\\\";
        break;
      case '\n':
        os << "\\n";
        break;
      case '\t':
        os << "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          const char* hex = "0123456789abcdef";
          os << "\\u00" << hex[(c >> 4) & 0xf] << hex[c & 0xf];
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

TraceSink::TraceSink(std::size_t capacity)
    : capacity_(std::max<std::size_t>(capacity, 16)), epoch_ns_(steady_ns()) {
  ring_.reserve(capacity_);
}

void TraceSink::record(TraceEvent event) {
  std::lock_guard<std::mutex> lock(mu_);
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(event));
    return;
  }
  wrapped_ = true;
  ++dropped_;
  ring_[head_] = std::move(event);
  head_ = (head_ + 1) % capacity_;
}

std::vector<TraceEvent> TraceSink::snapshot(std::size_t* dropped) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (dropped != nullptr) *dropped = dropped_;
  std::vector<TraceEvent> out;
  out.reserve(ring_.size());
  if (wrapped_) {
    out.insert(out.end(), ring_.begin() + static_cast<std::ptrdiff_t>(head_),
               ring_.end());
    out.insert(out.end(), ring_.begin(),
               ring_.begin() + static_cast<std::ptrdiff_t>(head_));
  } else {
    out = ring_;
  }
  return out;
}

std::size_t TraceSink::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ring_.size();
}

std::size_t TraceSink::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

std::int64_t TraceSink::now_us() const {
  return (steady_ns() - epoch_ns_) / 1000;
}

void install_trace_sink(TraceSink* sink) {
  g_sink.store(sink, std::memory_order_release);
}

TraceSink* trace_sink() { return g_sink.load(std::memory_order_acquire); }

std::uint32_t trace_thread_id() {
  thread_local std::uint32_t id =
      g_next_thread_id.fetch_add(1, std::memory_order_relaxed);
  return id;
}

Span::Span(const char* name, const char* category, std::string args)
    : sink_(trace_sink()), name_(name), category_(category) {
  if (sink_ == nullptr) return;
  TraceEvent e;
  e.name = name_;
  e.category = category_;
  e.phase = TraceEvent::Phase::kBegin;
  e.timestamp_us = sink_->now_us();
  e.thread_id = trace_thread_id();
  e.args = std::move(args);
  e.scope = current_obs_scope_path();
  sink_->record(std::move(e));
}

Span::~Span() {
  if (sink_ == nullptr) return;
  TraceEvent e;
  e.name = name_;
  e.category = category_;
  e.phase = TraceEvent::Phase::kEnd;
  e.timestamp_us = sink_->now_us();
  e.thread_id = trace_thread_id();
  sink_->record(std::move(e));
}

void trace_counter(const char* name, double value, const char* category) {
  TraceSink* sink = trace_sink();
  if (sink == nullptr) return;
  TraceEvent e;
  e.name = name;
  e.category = category;
  e.phase = TraceEvent::Phase::kCounter;
  e.timestamp_us = sink->now_us();
  e.thread_id = trace_thread_id();
  e.value = value;
  e.scope = current_obs_scope_path();
  sink->record(std::move(e));
}

void trace_instant(const char* name, const char* category, std::string args) {
  TraceSink* sink = trace_sink();
  if (sink == nullptr) return;
  TraceEvent e;
  e.name = name;
  e.category = category;
  e.phase = TraceEvent::Phase::kInstant;
  e.timestamp_us = sink->now_us();
  e.thread_id = trace_thread_id();
  e.args = std::move(args);
  e.scope = current_obs_scope_path();
  sink->record(std::move(e));
}

ScopedTraceSession::ScopedTraceSession(std::size_t capacity)
    : sink_(capacity) {
  install_trace_sink(&sink_);
}

ScopedTraceSession::~ScopedTraceSession() { close(); }

void ScopedTraceSession::close() {
  if (!installed_) return;
  installed_ = false;
  if (trace_sink() == &sink_) install_trace_sink(nullptr);
}

std::vector<SpanStep> replay_spans(const std::vector<TraceEvent>& events) {
  std::vector<SpanStep> steps;
  steps.reserve(events.size());
  // Per-thread stack of indices into `steps` holding open begins.
  std::vector<std::vector<std::size_t>> open;
  std::int64_t last_ts = 0;
  for (const TraceEvent& e : events) {
    last_ts = std::max(last_ts, e.timestamp_us);
    if (e.thread_id >= open.size()) open.resize(e.thread_id + 1);
    std::vector<std::size_t>& stack = open[e.thread_id];
    SpanStep step{&e, e.phase, e.timestamp_us};
    if (e.phase == TraceEvent::Phase::kBegin) {
      if (!stack.empty()) step.parent = stack.back();
      stack.push_back(steps.size());
    } else if (e.phase == TraceEvent::Phase::kEnd) {
      if (stack.empty()) continue;  // orphan: begin overwritten
      step.begin = stack.back();
      stack.pop_back();
    }
    steps.push_back(step);
  }
  for (const std::vector<std::size_t>& stack : open) {
    for (std::size_t i = stack.size(); i-- > 0;) {
      SpanStep end{steps[stack[i]].event, TraceEvent::Phase::kEnd, last_ts};
      end.begin = stack[i];
      steps.push_back(end);
    }
  }
  return steps;
}

std::size_t write_chrome_trace(std::ostream& os,
                               const std::vector<TraceEvent>& events) {
  const std::vector<SpanStep> steps = replay_spans(events);
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const SpanStep& step : steps) {
    if (!first) os << ",";
    first = false;
    os << "\n";
    if (step.phase == step.event->phase) {  // a surviving event
      write_event(os, *step.event);
      continue;
    }
    TraceEvent end;  // synthetic end for a span the stream left open
    end.name = step.event->name;
    end.category = step.event->category;
    end.phase = TraceEvent::Phase::kEnd;
    end.timestamp_us = step.timestamp_us;
    end.thread_id = step.event->thread_id;
    write_event(os, end);
  }
  os << "\n]}\n";
  return steps.size();
}

std::size_t write_chrome_trace(std::ostream& os, const TraceSink& sink) {
  return write_chrome_trace(os, sink.snapshot());
}

}  // namespace cdcs::support
