#include "support/profiler.hpp"

#include <algorithm>
#include <map>
#include <utility>

#include "support/metrics.hpp"

namespace cdcs::support {
namespace {

std::size_t bucket_index(const std::vector<double>& bounds, double v) {
  for (std::size_t i = 0; i < bounds.size(); ++i) {
    if (v <= bounds[i]) return i;
  }
  return bounds.size();  // +inf overflow bucket
}

}  // namespace

const std::vector<double>& profile_bucket_bounds() {
  static const std::vector<double> bounds = Histogram::latency_us_bounds();
  return bounds;
}

std::vector<ProfileEntry> build_profile(
    const std::vector<TraceEvent>& events) {
  const std::vector<double>& bounds = profile_bucket_bounds();
  std::map<std::pair<std::string, std::string>, ProfileEntry> agg;
  const std::vector<SpanStep> steps = replay_spans(events);
  // Inclusive time of each begin step's completed same-thread children.
  std::vector<std::int64_t> child_us(steps.size(), 0);
  for (const SpanStep& step : steps) {
    if (step.phase != TraceEvent::Phase::kEnd) continue;
    const SpanStep& begin = steps[step.begin];
    const std::int64_t dur =
        std::max<std::int64_t>(0, step.timestamp_us - begin.timestamp_us);
    ProfileEntry& entry = agg[{begin.event->scope, begin.event->name}];
    if (entry.buckets.empty()) {
      entry.scope = begin.event->scope;
      entry.name = begin.event->name;
      entry.buckets.assign(bounds.size() + 1, 0);
    }
    ++entry.count;
    entry.total_us += dur;
    entry.self_us += std::max<std::int64_t>(0, dur - child_us[step.begin]);
    entry.max_us = std::max(entry.max_us, dur);
    ++entry.buckets[bucket_index(bounds, static_cast<double>(dur))];
    if (begin.parent != SpanStep::kNone) child_us[begin.parent] += dur;
  }

  std::vector<ProfileEntry> out;
  out.reserve(agg.size());
  for (auto& [key, entry] : agg) out.push_back(std::move(entry));
  return out;  // std::map iteration == (scope, name) order
}

std::vector<ProfileEntry> build_profile(const TraceSink& sink) {
  return build_profile(sink.snapshot());
}

void write_profile_json(std::ostream& os,
                        const std::vector<ProfileEntry>& entries) {
  const std::vector<double>& bounds = profile_bucket_bounds();
  os << "{\"buckets_us\": [";
  for (std::size_t i = 0; i < bounds.size(); ++i) {
    if (i != 0) os << ", ";
    os << bounds[i];
  }
  os << "], \"entries\": [";
  bool first = true;
  for (const ProfileEntry& e : entries) {
    if (!first) os << ",";
    first = false;
    os << "\n  {\"scope\": ";
    write_json_string(os, e.scope);
    os << ", \"name\": ";
    write_json_string(os, e.name);
    os << ", \"count\": " << e.count << ", \"total_us\": " << e.total_us
       << ", \"self_us\": " << e.self_us << ", \"max_us\": " << e.max_us
       << ", \"buckets\": [";
    for (std::size_t i = 0; i < e.buckets.size(); ++i) {
      if (i != 0) os << ", ";
      os << e.buckets[i];
    }
    os << "]}";
  }
  os << "\n]}";
}

}  // namespace cdcs::support
