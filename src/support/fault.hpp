// Deterministic fault-injection registry for robustness testing
// (docs/robustness.md).
//
// The pipeline, the incremental engine, and the journal are instrumented
// with NAMED FAULT SITES -- fixed strings like "io.journal.write" or
// "ucp.solve" marking one failure edge each. A FaultPlan arms rules against
// those sites (fire on the n-th hit, every k-th hit, or with a seeded
// probability per hit), and a FaultInjector evaluates the armed plan at
// every site consultation:
//
//     auto plan = support::FaultPlan::parse("engine.apply@2;ucp.solve~0.1;seed=7");
//     options.fault_injection.injector =
//         std::make_shared<support::FaultInjector>(std::move(plan.value()));
//
// Determinism: nth-hit and every-k rules depend only on the per-site hit
// counter; probability rules hash (seed, site, hit index) through a
// splitmix64 finalizer, so identical seed + plan => identical fault
// schedule, independent of wall clock or address layout. Hit counters are
// atomics, so sites polled from pool workers never tear (the SET of firing
// hit indices stays deterministic even when thread assignment varies).
//
// Accounting: every evaluation bumps "fault.hits" and every firing bumps
// "fault.fires" plus "fault.fires.<site>" in the global metrics registry
// (support/metrics.hpp), so traced runs show exactly which faults fired.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "support/status.hpp"

namespace cdcs::support {

class Counter;

/// The canonical compiled-in fault sites. Plans may only target these
/// (FaultPlan::parse rejects unknown names so typos fail loudly); the chaos
/// soak iterates all_fault_sites() to prove every edge is exercised.
namespace fault_sites {
inline constexpr std::string_view kJournalOpen = "io.journal.open";
inline constexpr std::string_view kJournalWrite = "io.journal.write";
inline constexpr std::string_view kJournalFsync = "io.journal.fsync";
inline constexpr std::string_view kEngineApply = "engine.apply";
inline constexpr std::string_view kEngineRecover = "engine.recover";
inline constexpr std::string_view kPricerMerge = "pricer.merge";
inline constexpr std::string_view kUcpSolve = "ucp.solve";
inline constexpr std::string_view kUcpIncumbent = "ucp.incumbent";
inline constexpr std::string_view kUcpGreedy = "ucp.greedy";
/// Consulted by every cover-solver backend: bnb_v2 per branch node, the
/// dense DP at entry and each deadline poll, parallel_bnb once per round.
/// A firing abandons the solve all-or-nothing: it degrades to its current
/// incumbent (CoverStop::kAborted), never a torn one.
inline constexpr std::string_view kUcpFrontier = "ucp.frontier";
}  // namespace fault_sites

/// Every registered fault site, in a stable documented order.
const std::vector<std::string_view>& all_fault_sites();

/// One armed trigger against one site.
struct FaultRule {
  enum class Trigger {
    kNthHit,       ///< fire exactly once, on hit number `n` (1-based)
    kEveryK,       ///< fire on every k-th hit (hits k, 2k, 3k, ...)
    kProbability,  ///< fire each hit with seeded probability `p`
  };

  std::string site;
  Trigger trigger{Trigger::kNthHit};
  std::uint64_t n{1};      ///< kNthHit / kEveryK parameter; >= 1
  double probability{0.0};  ///< kProbability parameter; in [0, 1]
};

/// A parsed fault plan: the rules plus the seed probability rules hash with.
///
/// Spec syntax (the CLI --fault-plan argument): rules separated by ';' or
/// ',', each `site@n` (n-th hit), `site%k` (every k-th hit), or `site~p`
/// (probability p per hit), plus an optional `seed=N`:
///
///     io.journal.write@3;engine.apply%2;ucp.solve~0.25;seed=42
struct FaultPlan {
  std::vector<FaultRule> rules;
  std::uint64_t seed{0};

  bool empty() const { return rules.empty(); }

  /// Parses a --fault-plan spec. kInvalidInput on syntax errors, unknown
  /// sites (the diagnostic lists the registered ones), n < 1, or p outside
  /// [0, 1].
  static Expected<FaultPlan> parse(const std::string& spec);

  /// Canonical spec string; parse(to_string()) round-trips.
  std::string to_string() const;
};

/// Evaluates an armed FaultPlan at fault sites. Thread-safe: hit counters
/// are relaxed atomics, and the decision for a given (site, hit index) is a
/// pure function of the plan, so concurrent polls cannot make the schedule
/// diverge from the single-threaded one (per site, the set of firing hit
/// indices is identical).
///
/// Shared by design: synth::FaultInjection carries one by shared_ptr so the
/// engine, the pipeline, and the journal all consult the same counters.
class FaultInjector {
 public:
  FaultInjector() = default;
  explicit FaultInjector(FaultPlan plan);

  /// Counts a hit at `site` and returns true when an armed rule fires.
  /// Sites with no armed rule still count hits (visible in stats()).
  bool should_fail(std::string_view site);

  struct SiteStats {
    std::uint64_t hits{0};
    std::uint64_t fires{0};
  };
  /// Per-site hit/fire totals for every site consulted or armed so far.
  std::map<std::string, SiteStats> stats() const;

  std::uint64_t total_fires() const {
    return total_fires_.load(std::memory_order_relaxed);
  }

  const FaultPlan& plan() const { return plan_; }

 private:
  struct Site {
    std::vector<const FaultRule*> rules;  ///< into plan_.rules; stable
    std::atomic<std::uint64_t> hits{0};
    std::atomic<std::uint64_t> fires{0};
    Counter* fire_counter{nullptr};  ///< global "fault.fires.<site>"
  };
  Site& site_entry(std::string_view site);

  FaultPlan plan_;
  std::uint64_t seed_{0};
  /// Cached global-registry counters: should_fail sits on the enumeration
  /// hot path when a plan targets pricer.merge, so the name lookups happen
  /// once, at arm time.
  Counter* hits_counter_{nullptr};
  Counter* fires_counter_{nullptr};
  /// All canonical sites are pre-created in the constructor, so hot-path
  /// lookups never mutate the map and need no lock.
  std::map<std::string, Site, std::less<>> sites_;
  std::atomic<std::uint64_t> total_fires_{0};
};

}  // namespace cdcs::support
