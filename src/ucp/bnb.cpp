#include "ucp/bnb.hpp"

#include <algorithm>
#include <limits>
#include <string>
#include <utility>

#include "support/fault.hpp"
#include "support/flight_recorder.hpp"
#include "support/metrics.hpp"
#include "support/trace.hpp"
#include "ucp/bnb_core.hpp"
#include "ucp/lagrangian.hpp"

namespace cdcs::ucp {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

using detail::NodeEvaluator;
using detail::SearchState;

// The search itself is the classic include/exclude branch-and-bound; the
// reductions, bounds, and branching rules live in ucp/bnb_core.hpp
// (NodeEvaluator), running word-parallel over the
// CoverProblem::row_cover transpose bitsets:
//   * essential columns: popcount(row_cover(r) & available) with an early
//     cap at 2, instead of scanning every column per uncovered row;
//   * row dominance:  cols(r2) subseteq cols(r1) is one masked-subset pass;
//   * column dominance: masked-subset over column row-sets, no temporaries;
//   * MIS lower bound: blocked-column tracking is bitset union/intersection,
//     and each row's cheapest available column comes from a per-row
//     weight-sorted list probed until the first available hit (built once in
//     the evaluator), instead of rescanning the row's full column set.
// On top of the v1 machinery, v2 adds per-node subgradient Lagrangian bounds
// (warm-started from the parent's multipliers), reduced-cost column fixing
// against the incumbent, and warm-start incumbent seeding. With those
// features disabled the predicates, their visit order, and all tie-breaks
// are EXACTLY the v1 solver's, so nodes_explored is identical to the legacy
// implementation (pinned by Exact.SeedCorpusNodeCounts in
// tests/test_ucp.cpp).
// Search telemetry (all of it write-only: nothing below feeds back into the
// branching decisions, so traced and untraced runs explore the same tree):
//   * every kProgressPeriod nodes, counter events ucp.nodes / ucp.incumbent /
//     ucp.lower_bound chart the search's convergence over time in Perfetto;
//   * every incumbent improvement emits an instant event with the new cost;
//   * reduced-cost fixing victims and incumbent updates accumulate locally
//     and land in the metrics registry ONCE per run() (ucp.rc_fixed_columns,
//     ucp.incumbent_updates), keeping the per-node path free of shared
//     atomics. The sink is captured at construction so a solve emits to one
//     consistent sink even if the global pointer changes mid-search.
class Solver {
 public:
  static constexpr std::size_t kProgressPeriod = 1024;

  Solver(const CoverProblem& problem, const BnbOptions& options)
      : p_(problem), opt_(options), eval_(problem, options),
        sink_(support::trace_sink()) {}

  CoverSolution run() {
    best_cost_ = detail::seed_incumbent(p_, opt_, best_);

    SearchState root{Bitset(p_.num_rows()), Bitset(p_.num_columns())};
    root.uncovered.set_all();
    root.available.set_all();

    branch(std::move(root), 0.0, {}, 0, {});
    report_progress();  // final sample, so short solves chart too

    auto& registry = support::MetricsRegistry::global();
    registry.counter("ucp.rc_fixed_columns").add(rc_fixed_);
    registry.counter("ucp.incumbent_updates").add(incumbent_updates_);

    CoverSolution sol;
    sol.chosen = best_;
    std::sort(sol.chosen.begin(), sol.chosen.end());
    sol.cost = best_cost_;
    sol.optimal = complete_ && best_cost_ < kInf;
    sol.nodes_explored = nodes_;
    sol.deadline_expired = deadline_hit_;
    sol.stop = stop_;
    // The root's MIS/Lagrangian bound plus any essential-column cost; 0 when
    // the root was never evaluated (e.g. instant deadline).
    sol.lower_bound = root_bound_;
    return sol;
  }

 private:
  /// New incumbent found: record it plus its telemetry (counted locally;
  /// flushed to the registry once per run()).
  void accept_incumbent(double cost, const std::vector<std::size_t>& chosen) {
    best_cost_ = cost;
    best_ = chosen;
    ++incumbent_updates_;
    if (sink_ != nullptr) {
      support::trace_instant("ucp.incumbent_improved", "ucp",
                             "{\"cost\":" + std::to_string(cost) +
                                 ",\"nodes\":" + std::to_string(nodes_) + "}");
    }
    support::flight_record("incumbent",
                           "cost=" + std::to_string(cost) +
                               " nodes=" + std::to_string(nodes_));
  }

  /// Emits the periodic search-progress counter tracks (node rate,
  /// incumbent, strongest root bound). Inert without a sink.
  void report_progress() {
    if (sink_ == nullptr) return;
    last_progress_nodes_ = nodes_;
    support::trace_counter("ucp.nodes", static_cast<double>(nodes_), "ucp");
    if (best_cost_ < kInf) {
      support::trace_counter("ucp.incumbent", best_cost_, "ucp");
    }
    if (root_bound_ > 0.0) {
      support::trace_counter("ucp.lower_bound", root_bound_, "ucp");
    }
  }

  void maybe_report_progress() {
    if (sink_ != nullptr && nodes_ - last_progress_nodes_ >= kProgressPeriod) {
      report_progress();
    }
  }

  bool should_fix(int depth) {
    if (!opt_.use_reduced_cost_fixing) return false;
    if (depth == 0 ||
        nodes_ - last_fix_nodes_ >= kReducedCostFixingPeriod) {
      last_fix_nodes_ = nodes_;
      return true;
    }
    return false;
  }

  void branch(SearchState s, double cost, std::vector<std::size_t> chosen,
              int depth, std::vector<double> lambda) {
    if (aborted_) return;  // a fired fault latches: no sibling continues
    if (nodes_ >= opt_.max_nodes) {
      complete_ = false;
      if (stop_ == CoverStop::kCompleted) stop_ = CoverStop::kNodeBudget;
      return;
    }
    if (opt_.deadline.expired()) {
      complete_ = false;
      deadline_hit_ = true;
      if (stop_ == CoverStop::kCompleted) stop_ = CoverStop::kDeadline;
      return;
    }
    // All-or-nothing kill site: a firing abandons the search with the
    // incumbent intact, never a torn cover.
    // Unarmed runs skip the consult entirely, so the pinned trees are
    // byte-identical with or without this check.
    if (opt_.fault_injector != nullptr &&
        opt_.fault_injector->should_fail(support::fault_sites::kUcpFrontier)) {
      complete_ = false;
      aborted_ = true;
      if (stop_ == CoverStop::kCompleted) stop_ = CoverStop::kAborted;
      return;
    }
    ++nodes_;
    maybe_report_progress();

    if (!eval_.reduce(s, cost, chosen, depth, best_cost_)) return;
    if (s.uncovered.none()) {
      if (cost < best_cost_) accept_incumbent(cost, chosen);
      if (depth == 0) root_bound_ = cost;
      return;
    }
    LagrangianBound lagr;
    bool lagr_ran = false;
    const double bound =
        eval_.node_bound(s, cost, depth, lambda, best_cost_, lagr, lagr_ran);
    if (depth == 0) root_bound_ = cost + bound;
    if (cost + bound >= best_cost_) return;
    if (lagr_ran && should_fix(depth)) {
      rc_fixed_ += eval_.fix_columns(s, cost, best_cost_, lagr);
    }

    const std::vector<std::size_t> cols = eval_.branch_columns(s);
    if (cols.empty()) return;
    const std::vector<double>& child_lambda =
        lagr_ran ? lagr.multipliers : lambda;

    for (std::size_t j : cols) {
      SearchState child = s;
      child.uncovered.subtract(p_.column(j).rows);
      child.available.reset(j);
      std::vector<std::size_t> child_chosen = chosen;
      child_chosen.push_back(j);
      const double child_cost = cost + p_.column(j).weight;
      if (child_cost < best_cost_) {
        branch(std::move(child), child_cost, std::move(child_chosen),
               depth + 1, child_lambda);
      }
      // Sibling branches assume column j excluded: any cover using j was
      // just explored.
      s.available.reset(j);
    }
  }

  const CoverProblem& p_;
  const BnbOptions& opt_;
  NodeEvaluator eval_;
  support::TraceSink* sink_;  ///< captured once; null = telemetry inert
  double best_cost_{kInf};
  std::vector<std::size_t> best_;
  std::size_t nodes_{0};
  std::size_t last_fix_nodes_{0};
  std::size_t last_progress_nodes_{0};
  std::size_t rc_fixed_{0};
  std::size_t incumbent_updates_{0};
  double root_bound_{0.0};
  bool complete_{true};
  bool deadline_hit_{false};
  bool aborted_{false};
  CoverStop stop_{CoverStop::kCompleted};
};

}  // namespace

namespace detail {

CoverSolution solve_serial_bnb(const CoverProblem& problem,
                               const BnbOptions& options) {
  return Solver(problem, options).run();
}

}  // namespace detail

}  // namespace cdcs::ucp
