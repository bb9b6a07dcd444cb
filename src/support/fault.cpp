#include "support/fault.hpp"

#include <cmath>
#include <utility>

#include "support/flight_recorder.hpp"
#include "support/metrics.hpp"

namespace cdcs::support {
namespace {

/// splitmix64 finalizer: the deterministic hash behind probability rules.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Deterministic per-(seed, site, hit) uniform draw in [0, 1).
double unit_draw(std::uint64_t seed, std::string_view site,
                 std::uint64_t hit) {
  const std::uint64_t bits = mix64(seed ^ mix64(fnv1a(site)) ^ hit);
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

std::string known_sites_list() {
  std::string out;
  for (const std::string_view s : all_fault_sites()) {
    if (!out.empty()) out += ", ";
    out += s;
  }
  return out;
}

bool is_known_site(std::string_view site) {
  for (const std::string_view s : all_fault_sites()) {
    if (s == site) return true;
  }
  return false;
}

Expected<std::uint64_t> parse_u64(const std::string& tok,
                                  const std::string& what) {
  try {
    std::size_t used = 0;
    const unsigned long long v = std::stoull(tok, &used);
    if (used != tok.size()) {
      return Status::InvalidInput("bad " + what + " '" + tok + "'");
    }
    return static_cast<std::uint64_t>(v);
  } catch (const std::exception&) {
    return Status::InvalidInput("bad " + what + " '" + tok + "'");
  }
}

}  // namespace

const std::vector<std::string_view>& all_fault_sites() {
  static const std::vector<std::string_view> kSites = {
      fault_sites::kJournalOpen,  fault_sites::kJournalWrite,
      fault_sites::kJournalFsync, fault_sites::kEngineApply,
      fault_sites::kEngineRecover, fault_sites::kPricerMerge,
      fault_sites::kUcpSolve,     fault_sites::kUcpIncumbent,
      fault_sites::kUcpGreedy,    fault_sites::kUcpFrontier,
  };
  return kSites;
}

Expected<FaultPlan> FaultPlan::parse(const std::string& spec) {
  FaultPlan plan;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    std::size_t end = spec.find_first_of(";,", pos);
    if (end == std::string::npos) end = spec.size();
    std::string entry = spec.substr(pos, end - pos);
    pos = end + 1;
    // Trim surrounding whitespace.
    const std::size_t first = entry.find_first_not_of(" \t");
    if (first == std::string::npos) {
      if (pos > spec.size()) break;
      continue;  // empty entry (trailing separator, blank)
    }
    entry = entry.substr(first, entry.find_last_not_of(" \t") - first + 1);

    if (entry.starts_with("seed=")) {
      Expected<std::uint64_t> seed = parse_u64(entry.substr(5), "seed");
      if (!seed.ok()) {
        return std::move(seed).take_status().with_context("fault plan '" +
                                                          spec + "'");
      }
      plan.seed = *seed;
      continue;
    }

    const std::size_t sep = entry.find_first_of("@%~");
    if (sep == std::string::npos || sep == 0) {
      return Status::InvalidInput(
          "fault rule '" + entry +
          "' needs a trigger: site@n (n-th hit), site%k (every k-th), or "
          "site~p (probability)");
    }
    FaultRule rule;
    rule.site = entry.substr(0, sep);
    if (!is_known_site(rule.site)) {
      return Status::InvalidInput("unknown fault site '" + rule.site +
                                  "' (registered sites: " +
                                  known_sites_list() + ")");
    }
    const char kind = entry[sep];
    const std::string arg = entry.substr(sep + 1);
    if (kind == '~') {
      rule.trigger = FaultRule::Trigger::kProbability;
      try {
        std::size_t used = 0;
        rule.probability = std::stod(arg, &used);
        if (used != arg.size() || !std::isfinite(rule.probability) ||
            rule.probability < 0.0 || rule.probability > 1.0) {
          return Status::InvalidInput("bad probability '" + arg + "' for '" +
                                      rule.site + "' (must be in [0, 1])");
        }
      } catch (const std::exception&) {
        return Status::InvalidInput("bad probability '" + arg + "' for '" +
                                    rule.site + "' (must be in [0, 1])");
      }
    } else {
      rule.trigger = kind == '@' ? FaultRule::Trigger::kNthHit
                                 : FaultRule::Trigger::kEveryK;
      Expected<std::uint64_t> n = parse_u64(
          arg, kind == '@' ? "hit number" : "period");
      if (!n.ok()) {
        return std::move(n).take_status().with_context("fault rule '" +
                                                       entry + "'");
      }
      if (*n == 0) {
        return Status::InvalidInput("fault rule '" + entry +
                                    "': hit numbers and periods are 1-based");
      }
      rule.n = *n;
    }
    plan.rules.push_back(std::move(rule));
  }
  return plan;
}

std::string FaultPlan::to_string() const {
  std::string out;
  for (const FaultRule& r : rules) {
    if (!out.empty()) out += ';';
    out += r.site;
    switch (r.trigger) {
      case FaultRule::Trigger::kNthHit:
        out += '@' + std::to_string(r.n);
        break;
      case FaultRule::Trigger::kEveryK:
        out += '%' + std::to_string(r.n);
        break;
      case FaultRule::Trigger::kProbability: {
        char buf[32];
        std::snprintf(buf, sizeof buf, "~%g", r.probability);
        out += buf;
        break;
      }
    }
  }
  if (seed != 0) {
    if (!out.empty()) out += ';';
    out += "seed=" + std::to_string(seed);
  }
  return out;
}

FaultInjector::FaultInjector(FaultPlan plan)
    : plan_(std::move(plan)), seed_(plan_.seed) {
  auto& registry = MetricsRegistry::global();
  hits_counter_ = &registry.counter("fault.hits");
  fires_counter_ = &registry.counter("fault.fires");
  // Pre-create every canonical site so should_fail never mutates the map
  // (lock-free concurrent lookups). Unknown sites cannot reach us: parse()
  // validates, and instrumented code uses the fault_sites constants.
  for (const std::string_view s : all_fault_sites()) {
    Site& site = sites_[std::string(s)];
    site.fire_counter =
        &registry.counter("fault.fires." + std::string(s));
  }
  for (const FaultRule& r : plan_.rules) {
    sites_[r.site].rules.push_back(&r);
  }
}

FaultInjector::Site& FaultInjector::site_entry(std::string_view site) {
  const auto it = sites_.find(site);
  if (it != sites_.end()) return it->second;
  // Unregistered site names only appear in tests poking the injector
  // directly; give them a slot so stats() still reports them.
  Site& s = sites_[std::string(site)];
  s.fire_counter =
      &MetricsRegistry::global().counter("fault.fires." + std::string(site));
  return s;
}

bool FaultInjector::should_fail(std::string_view site) {
  Site& entry = site_entry(site);
  const std::uint64_t hit =
      entry.hits.fetch_add(1, std::memory_order_relaxed) + 1;  // 1-based
  if (hits_counter_ == nullptr) {  // default-constructed (planless) injector
    hits_counter_ = &MetricsRegistry::global().counter("fault.hits");
    fires_counter_ = &MetricsRegistry::global().counter("fault.fires");
  }
  hits_counter_->add(1);
  bool fires = false;
  for (const FaultRule* r : entry.rules) {
    switch (r->trigger) {
      case FaultRule::Trigger::kNthHit:
        fires = hit == r->n;
        break;
      case FaultRule::Trigger::kEveryK:
        fires = hit % r->n == 0;
        break;
      case FaultRule::Trigger::kProbability:
        fires = unit_draw(seed_, site, hit) < r->probability;
        break;
    }
    if (fires) break;
  }
  if (fires) {
    entry.fires.fetch_add(1, std::memory_order_relaxed);
    total_fires_.fetch_add(1, std::memory_order_relaxed);
    fires_counter_->add(1);
    entry.fire_counter->add(1);
    flight_record("fault", std::string(site) + " fired on hit " +
                               std::to_string(hit));
    maybe_dump_postmortem("fault", std::string(site));
  }
  return fires;
}

std::map<std::string, FaultInjector::SiteStats> FaultInjector::stats() const {
  std::map<std::string, SiteStats> out;
  for (const auto& [name, site] : sites_) {
    SiteStats s;
    s.hits = site.hits.load(std::memory_order_relaxed);
    s.fires = site.fires.load(std::memory_order_relaxed);
    if (s.hits != 0 || !site.rules.empty()) out.emplace(name, s);
  }
  return out;
}

}  // namespace cdcs::support
