#include "ucp/bnb.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>

#include "support/fault.hpp"
#include "support/flight_recorder.hpp"
#include "support/metrics.hpp"
#include "support/trace.hpp"
#include "ucp/dp.hpp"
#include "ucp/greedy.hpp"
#include "ucp/lagrangian.hpp"

namespace cdcs::ucp {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

struct SearchState {
  Bitset uncovered;  ///< rows still to cover
  Bitset available;  ///< columns still selectable
};

// The search is the classic include/exclude branch-and-bound. Its
// reductions, bounds, and branching rules run word-parallel over the
// CoverProblem::row_cover transpose bitsets:
//   * essential columns: popcount(row_cover(r) & available) with an early
//     cap at 2, instead of scanning every column per uncovered row;
//   * row dominance:  cols(r2) subseteq cols(r1) is one masked-subset pass;
//   * column dominance: masked-subset over column row-sets, no temporaries;
//   * MIS lower bound: blocked-column tracking is bitset union/intersection,
//     and each row's cheapest available column comes from a per-row
//     weight-sorted list probed until the first available hit (built once
//     per solve), instead of rescanning the row's full column set.
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
      : p_(problem), opt_(options), sink_(support::trace_sink()) {
    // Reading row_cover here also warms the problem's lazy transpose cache,
    // so every later row_cover call is a pure cache read.
    row_cols_by_weight_.resize(p_.num_rows());
    for (std::size_t r = 0; r < p_.num_rows(); ++r) {
      std::vector<std::size_t>& cols = row_cols_by_weight_[r];
      p_.row_cover(r).for_each([&](std::size_t j) { cols.push_back(j); });
      std::stable_sort(cols.begin(), cols.end(),
                       [&](std::size_t a, std::size_t b) {
                         return p_.column(a).weight < p_.column(b).weight;
                       });
    }
  }

  CoverSolution run() {
    best_cost_ = seed_incumbent(p_, opt_.warm_start, best_);

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

  /// Ends the search short of a proof; the first reason recorded wins.
  void halt(CoverStop why) {
    complete_ = false;
    if (stop_ == CoverStop::kCompleted) stop_ = why;
  }

  void branch(SearchState s, double cost, std::vector<std::size_t> chosen,
              int depth, std::vector<double> lambda) {
    if (aborted_) return;  // a fired fault latches: no sibling continues
    if (nodes_ >= opt_.max_nodes) {
      halt(CoverStop::kNodeBudget);
      return;
    }
    if (opt_.deadline.expired()) {
      halt(CoverStop::kDeadline);
      return;
    }
    // All-or-nothing kill site: a firing abandons the search with the
    // incumbent intact, never a torn cover.
    // Unarmed runs skip the consult entirely, so the pinned trees are
    // byte-identical with or without this check.
    if (opt_.fault_injector != nullptr &&
        opt_.fault_injector->should_fail(support::fault_sites::kUcpFrontier)) {
      aborted_ = true;
      halt(CoverStop::kAborted);
      return;
    }
    ++nodes_;
    maybe_report_progress();

    if (!reduce(s, cost, chosen, depth)) return;
    if (s.uncovered.none()) {
      if (cost < best_cost_) accept_incumbent(cost, chosen);
      if (depth == 0) root_bound_ = cost;
      return;
    }
    LagrangianBound lagr;
    bool lagr_ran = false;
    const double bound = node_bound(s, cost, depth, lambda, lagr, lagr_ran);
    if (depth == 0) root_bound_ = cost + bound;
    if (cost + bound >= best_cost_) return;
    if (lagr_ran && should_fix(depth)) {
      rc_fixed_ += fix_columns(s, cost, lagr);
    }

    const std::vector<std::size_t> cols = branch_columns(s);
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

  /// Applies reductions in place; appends forced columns to `chosen` and
  /// adds their weight to `cost`. Returns false when the branch is
  /// infeasible, its forced cost already meets the incumbent, or the
  /// deadline expired inside the column-dominance pass (which halts the
  /// search, so that exit never reads as a pruned branch).
  bool reduce(SearchState& s, double& cost, std::vector<std::size_t>& chosen,
              int depth) {
    bool changed = true;
    while (changed) {
      changed = false;

      // Essential columns (and infeasibility detection): scan uncovered
      // rows ascending, stop at the first dead or single-cover row.
      bool found_essential = true;
      while (found_essential) {
        found_essential = false;
        std::size_t essential_col = p_.num_columns();
        bool dead = false;
        s.uncovered.for_each_until([&](std::size_t r) {
          const Bitset& cov = p_.row_cover(r);
          const std::size_t count =
              cov.intersection_count_capped(s.available, 2);
          if (count == 0) {
            dead = true;
            return true;
          }
          if (count == 1) {
            essential_col = cov.first_and(s.available);
            return true;
          }
          return false;
        });
        if (dead) return false;
        if (essential_col != p_.num_columns()) {
          cost += p_.column(essential_col).weight;
          if (cost >= best_cost_) return false;
          chosen.push_back(essential_col);
          s.uncovered.subtract(p_.column(essential_col).rows);
          s.available.reset(essential_col);
          found_essential = true;
          changed = true;
          if (s.uncovered.none()) return true;
        }
      }

      // Row dominance: if every available column covering r2 also covers
      // r1, r1 is automatically satisfied when r2 is -> ignore r1.
      if (opt_.use_row_dominance) {
        std::vector<std::size_t> rows;
        s.uncovered.for_each([&](std::size_t r) { rows.push_back(r); });
        for (std::size_t r1 : rows) {
          if (!s.uncovered.test(r1)) continue;
          for (std::size_t r2 : rows) {
            if (r1 == r2 || !s.uncovered.test(r2) || !s.uncovered.test(r1)) {
              continue;
            }
            // cols(r2) & available subseteq cols(r1), word-parallel.
            if (p_.row_cover(r2).and_is_subset_of(s.available,
                                                  p_.row_cover(r1))) {
              s.uncovered.reset(r1);
              changed = true;
              break;
            }
          }
        }
      }

      // Column dominance on the remaining rows. The pass is O(columns^2)
      // per sweep -- the root's took 7.8 s on geo_wan(1000, 7)'s
      // 1,000 x 19,644 cover (4-vCPU host, Release) -- so the deadline is
      // polled once per outer column.
      if (opt_.use_column_dominance && depth <= kColumnDominanceMaxDepth) {
        for (std::size_t j1 = 0; j1 < p_.num_columns(); ++j1) {
          if (!s.available.test(j1)) continue;
          if (opt_.deadline.expired()) {
            halt(CoverStop::kDeadline);
            return false;
          }
          if (!p_.column(j1).rows.intersects(s.uncovered)) {
            s.available.reset(j1);  // useless column
            changed = true;
            continue;
          }
          for (std::size_t j2 = 0; j2 < p_.num_columns(); ++j2) {
            if (j1 == j2 || !s.available.test(j2)) continue;
            const double w1 = p_.column(j1).weight;
            const double w2 = p_.column(j2).weight;
            // Tie-break by index so two identical columns don't erase each
            // other.
            if (w2 > w1 || (w2 == w1 && j2 > j1)) continue;
            // (rows(j1) & uncovered) subseteq (rows(j2) & uncovered)?
            if (p_.column(j1).rows.and_is_subset_of(s.uncovered,
                                                    p_.column(j2).rows)) {
              s.available.reset(j1);
              changed = true;
              break;
            }
          }
        }
      }
    }
    return true;
  }

  /// Cheapest available column weight for row r (kInf when none). Probes
  /// the weight-sorted list until the first available entry:
  /// value-identical to scanning the row's whole column set (the minimum of
  /// a set does not depend on the visit order), typically O(1) probes.
  double cheapest_available(std::size_t r, const Bitset& available) const {
    for (std::size_t j : row_cols_by_weight_[r]) {
      if (available.test(j)) return p_.column(j).weight;
    }
    return kInf;
  }

  /// MIS lower bound over the remaining subproblem (0 when disabled).
  double mis_bound(const SearchState& s) const {
    if (!opt_.use_mis_lower_bound) return 0.0;
    double bound = 0.0;
    Bitset blocked(p_.num_columns());
    s.uncovered.for_each([&](std::size_t r) {
      const Bitset& cov = p_.row_cover(r);
      if (cov.intersects_masked(s.available, blocked)) return;
      const double cheapest = cheapest_available(r, s.available);
      if (cheapest < kInf) {
        bound += cheapest;
        blocked.unite_and(cov, s.available);
      }
    });
    return bound;
  }

  /// Node bound: MIS first (cheap; prunes most nodes), then the Lagrangian
  /// ascent only when MIS alone cannot prune. Returns the subproblem bound
  /// and fills `lagr`/`lagr_ran` for reduced-cost fixing and child
  /// warm-starting.
  double node_bound(const SearchState& s, double cost, int depth,
                    const std::vector<double>& lambda, LagrangianBound& lagr,
                    bool& lagr_ran) const {
    double bound = mis_bound(s);
    lagr_ran = false;
    if (opt_.use_lagrangian_bound && cost + bound < best_cost_) {
      const std::vector<double>* warm = lambda.empty() ? nullptr : &lambda;
      lagr = subgradient_bound(
          p_, s.uncovered, s.available, best_cost_ - cost,
          depth == 0 ? kLagrangianRootIterations : kLagrangianNodeIterations,
          warm);
      bound = std::max(bound, lagr.bound);
      lagr_ran = true;
    }
    return bound;
  }

  /// Reduced-cost fixing against the incumbent; returns how many columns
  /// were dropped from `s.available`. A cover through column j costs at
  /// least bound + max(0, rc_j) on top of `cost`; strictly past the
  /// incumbent the column can never improve on it, so it is dropped from
  /// this subtree (permanently when called at the root). The comparison is
  /// strict with an absolute+relative tolerance so a column of an
  /// ALTERNATIVE optimal cover (bound + rc == incumbent) is never removed.
  std::size_t fix_columns(SearchState& s, double cost,
                          const LagrangianBound& lagr) const {
    const double budget = best_cost_ - cost;
    std::vector<std::size_t> victims;
    s.available.for_each([&](std::size_t j) {
      const double through = lagr.bound + std::max(0.0, lagr.reduced_costs[j]);
      if (through > budget * (1.0 + 1e-12) + 1e-9) victims.push_back(j);
    });
    for (std::size_t j : victims) s.available.reset(j);
    return victims.size();
  }

  /// Branching row (fewest available columns) and its columns
  /// cheapest-first.
  std::vector<std::size_t> branch_columns(const SearchState& s) const {
    std::size_t best_row = p_.num_rows();
    std::size_t best_count = std::numeric_limits<std::size_t>::max();
    s.uncovered.for_each([&](std::size_t r) {
      const std::size_t count =
          p_.row_cover(r).intersection_count(s.available);
      if (count < best_count) {
        best_count = count;
        best_row = r;
      }
    });
    std::vector<std::size_t> cols;
    if (best_row == p_.num_rows()) return cols;
    p_.row_cover(best_row).for_each_and(
        s.available, [&](std::size_t j) { cols.push_back(j); });
    std::sort(cols.begin(), cols.end(), [&](std::size_t a, std::size_t b) {
      return p_.column(a).weight < p_.column(b).weight;
    });
    return cols;
  }

  const CoverProblem& p_;
  const BnbOptions& opt_;
  support::TraceSink* sink_;  ///< captured once; null = telemetry inert
  /// Per-row columns sorted by (weight, index): the MIS bound's
  /// cheapest-available probe reads it.
  std::vector<std::vector<std::size_t>> row_cols_by_weight_;
  double best_cost_{kInf};
  std::vector<std::size_t> best_;
  std::size_t nodes_{0};
  std::size_t last_fix_nodes_{0};
  std::size_t last_progress_nodes_{0};
  std::size_t rc_fixed_{0};
  std::size_t incumbent_updates_{0};
  double root_bound_{0.0};
  bool complete_{true};
  bool aborted_{false};
  CoverStop stop_{CoverStop::kCompleted};
};

/// The dense_dp backend: solve_dp, and when it is abandoned (or never
/// started) under the deadline, node budget, or an injected fault, the
/// seeded incumbent in place of nothing, keeping the DP's stop reason and
/// state count.
CoverSolution solve_dense_dp(const CoverProblem& problem,
                             const BnbOptions& options) {
  support::Span dp_span("ucp.dense_dp", "ucp");
  support::MetricsRegistry::global().counter("ucp.dp_solves").add(1);
  CoverSolution sol;
  if (options.deadline.expired()) {
    sol.stop = CoverStop::kDeadline;
  } else {
    sol = solve_dp(problem, options.deadline, options.max_nodes,
                   options.fault_injector);
  }
  if (!sol.optimal && sol.stop != CoverStop::kCompleted) {
    sol.cost = seed_incumbent(problem, options.warm_start, sol.chosen);
  }
  return sol;
}

/// The backend solve_exact runs for `options.backend`; throws for unknown
/// names and for dense_dp named above kDenseDpMaxRows rows.
std::string_view route(const CoverProblem& problem, const BnbOptions& options) {
  if (options.backend.empty()) {
    return problem.num_rows() <= kDefaultDenseDpRows ? kCoverBackends[0]
                                                     : kCoverBackends[1];
  }
  if (std::find(kCoverBackends.begin(), kCoverBackends.end(),
                options.backend) == kCoverBackends.end()) {
    throw std::invalid_argument("unknown cover-solver backend '" +
                                options.backend + "' (registered: " +
                                cover_backend_list() + ")");
  }
  if (options.backend == "dense_dp" &&
      problem.num_rows() > kDenseDpMaxRows) {
    throw std::invalid_argument(
        "cover-solver backend '" + options.backend + "' cannot handle a " +
        std::to_string(problem.num_rows()) + "x" +
        std::to_string(problem.num_columns()) + " instance");
  }
  return options.backend;
}

}  // namespace

CoverSolution solve_exact(const CoverProblem& problem,
                          const BnbOptions& options) {
  support::Span span("ucp.solve", "ucp",
                     "{\"rows\":" + std::to_string(problem.num_rows()) +
                         ",\"cols\":" + std::to_string(problem.num_columns()) +
                         "}");
  const std::string_view backend = route(problem, options);
  CoverSolution sol;
  if (backend == "dense_dp") {
    sol = solve_dense_dp(problem, options);
  } else {
    support::Span bnb_span("ucp.bnb", "ucp");
    sol = Solver(problem, options).run();
  }
  sol.backend = backend;
  if (sol.optimal) {
    sol.lower_bound = sol.cost;
  } else {
    // Degraded exit: report the strongest proven root bound so callers get
    // an honest optimality gap -- the engine's root bound when it evaluated
    // one, else the Lagrangian root bound (when enabled) sized by the
    // incumbent, never below the independent-rows bound.
    const double root_bound = sol.lower_bound;
    double lb = std::max(independent_rows_lower_bound(problem), root_bound);
    if (options.use_lagrangian_bound && root_bound == 0.0) {
      lb = std::max(lb, lagrangian_root_bound(problem, sol.cost,
                                              kLagrangianRootIterations));
    }
    sol.lower_bound = lb;
  }
  auto& registry = support::MetricsRegistry::global();
  registry.counter("ucp.backend." + sol.backend + ".solves").add(1);
  registry.counter("ucp.backend." + sol.backend + ".nodes")
      .add(sol.nodes_explored);
  return sol;
}

}  // namespace cdcs::ucp
