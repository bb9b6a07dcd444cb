#include "ucp/parallel_bnb.hpp"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "support/fault.hpp"
#include "support/flight_recorder.hpp"
#include "support/metrics.hpp"
#include "support/thread_pool.hpp"
#include "support/trace.hpp"
#include "ucp/bnb_core.hpp"
#include "ucp/lagrangian.hpp"

namespace cdcs::ucp {
namespace {

using detail::NodeEvaluator;
using detail::SearchState;
using detail::kInfCost;

/// A frontier entry: one open subproblem of the best-first search.
struct FrontierNode {
  SearchState s;
  double cost;
  std::vector<std::size_t> chosen;
  std::vector<double> lambda;
  /// Admissible lower bound on any completion through this node
  /// (inherited from the parent's node bound at creation).
  double priority;
  int depth;
  std::uint64_t seq;  ///< creation order; deterministic tie-break
};

/// Min-heap order on (priority, seq): std::push_heap/pop_heap expect a
/// "less" comparator for a max-heap, so invert both components.
bool frontier_after(const FrontierNode& a, const FrontierNode& b) {
  if (a.priority != b.priority) return a.priority > b.priority;
  return a.seq > b.seq;
}

constexpr std::size_t kProgressPeriod = 1024;

/// splitmix64 finalizer: the explored-set fingerprint's mixing function.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t double_bits(double v) {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

/// The outcome of expanding one frontier node: everything the (sequential)
/// merge step needs, computed without touching shared state.
struct Expansion {
  bool feasible{true};  ///< reduce() succeeded (branch not pruned/dead)
  bool solved{false};   ///< all rows covered after reductions
  bool pruned{false};   ///< node bound met the incumbent snapshot
  int depth{0};
  double cost{0.0};    ///< node cost after forced columns
  double bound{0.0};   ///< cost + subproblem bound (== cost when solved)
  std::vector<std::size_t> chosen;      ///< the cover, when solved
  std::vector<double> multipliers;      ///< root ascent result (depth 0 only)
  std::size_t rc_fixed{0};              ///< reduced-cost fixing victims
  std::vector<FrontierNode> children;   ///< seq unset; assigned at merge
};

/// Expands one node against an incumbent-cost snapshot. PURE: reads only
/// the node, the snapshot, and the const evaluator, so concurrent calls
/// with the same inputs produce identical outputs -- the engine's
/// determinism rests on this.
Expansion expand_node(const NodeEvaluator& eval, FrontierNode node,
                      double best_cost) {
  const CoverProblem& p = eval.problem();
  const BnbOptions& opt = eval.options();
  Expansion out;
  out.depth = node.depth;
  if (!eval.reduce(node.s, node.cost, node.chosen, node.depth, best_cost)) {
    out.feasible = false;
    return out;
  }
  out.cost = node.cost;
  if (node.s.uncovered.none()) {
    out.solved = true;
    out.bound = node.cost;
    out.chosen = std::move(node.chosen);
    return out;
  }
  LagrangianBound lagr;
  bool lagr_ran = false;
  const double bound = eval.node_bound(node.s, node.cost, node.depth,
                                       node.lambda, best_cost, lagr, lagr_ran);
  out.bound = node.cost + bound;
  if (node.depth == 0 && lagr_ran) out.multipliers = lagr.multipliers;
  if (node.cost + bound >= best_cost) {
    out.pruned = true;
    return out;
  }
  // Refixing trigger: a pure function of the node identity (seq), unlike
  // the serial solver's global visited-node counter, which would make the
  // fixing schedule depend on expansion order.
  if (lagr_ran && opt.use_reduced_cost_fixing &&
      (node.depth == 0 || node.seq % opt.reduced_cost_fixing_period == 0)) {
    out.rc_fixed = eval.fix_columns(node.s, node.cost, best_cost, lagr);
  }

  const std::vector<std::size_t> cols = eval.branch_columns(node.s);
  const std::vector<double>& child_lambda =
      lagr_ran ? lagr.multipliers : node.lambda;
  for (std::size_t j : cols) {
    const double child_cost = node.cost + p.column(j).weight;
    if (child_cost >= best_cost) {
      node.s.available.reset(j);
      continue;
    }
    FrontierNode child;
    child.s = node.s;
    child.s.uncovered.subtract(p.column(j).rows);
    child.s.available.reset(j);
    child.cost = child_cost;
    child.chosen = node.chosen;
    child.chosen.push_back(j);
    child.lambda = child_lambda;
    // Clamped to the parent's priority so priorities are monotone
    // NONDECREASING down every root-to-leaf path: once the heap top meets
    // the incumbent, every future descendant is bounded below the same way,
    // so the incumbent is globally optimal.
    child.priority = std::max({node.priority, node.cost + bound, child_cost});
    child.depth = node.depth + 1;
    child.seq = 0;  // assigned by the merge step, in deterministic order
    out.children.push_back(std::move(child));
    // Sibling branches assume column j excluded.
    node.s.available.reset(j);
  }
  return out;
}

FrontierNode make_root(const CoverProblem& p, const BnbOptions& opt) {
  SearchState root{Bitset(p.num_rows()), Bitset(p.num_columns())};
  root.uncovered.set_all();
  root.available.set_all();
  std::vector<double> root_lambda;
  if (opt.warm_multipliers.size() == p.num_rows()) {
    root_lambda = opt.warm_multipliers;
  }
  return FrontierNode{std::move(root), 0.0, {}, std::move(root_lambda),
                      0.0, 0, 0};
}

CoverSolution run_rounds(const CoverProblem& p, const BnbOptions& opt) {
  support::TraceSink* sink = support::trace_sink();
  NodeEvaluator eval(p, opt);
  auto& frontier_gauge =
      support::MetricsRegistry::global().gauge("ucp.frontier_depth");

  std::vector<std::size_t> best;
  double best_cost = detail::seed_incumbent(p, opt, best);

  const std::size_t workers = support::resolve_thread_count(opt.threads);
  std::unique_ptr<support::ThreadPool> owned;
  support::ThreadPool* pool = opt.pool;
  if (pool == nullptr && workers > 1) {
    owned = std::make_unique<support::ThreadPool>(workers);
    pool = owned.get();
  }

  std::vector<FrontierNode> heap;
  heap.push_back(make_root(p, opt));
  std::uint64_t next_seq = 1;

  std::size_t nodes = 0;
  std::size_t rc_fixed = 0;
  std::size_t incumbent_updates = 0;
  std::size_t last_progress_nodes = 0;
  double root_bound = 0.0;
  std::vector<double> root_multipliers;
  bool complete = true;
  bool deadline_hit = false;
  CoverStop stop = CoverStop::kCompleted;
  std::uint64_t fingerprint = 0;
  const std::size_t batch_cap = std::max<std::size_t>(1, opt.rounds_batch_size);

  while (!heap.empty()) {
    // Everything on the frontier is at least as bad as the incumbent: it is
    // proven optimal and the search is complete.
    if (heap.front().priority >= best_cost) break;
    if (opt.deadline.expired()) {
      complete = false;
      deadline_hit = true;
      stop = CoverStop::kDeadline;
      break;
    }
    // One frontier-site consultation per round: a firing abandons the solve
    // all-or-nothing (the incumbent so far is returned, never a torn one).
    if (opt.fault_injector != nullptr &&
        opt.fault_injector->should_fail(support::fault_sites::kUcpFrontier)) {
      complete = false;
      stop = CoverStop::kAborted;
      break;
    }

    // Drain the round's batch sequentially. The fingerprint is hashed HERE,
    // at pop time, because expansion mutates node.cost in place.
    std::vector<FrontierNode> batch;
    bool out_of_budget = false;
    while (batch.size() < batch_cap && !heap.empty() &&
           heap.front().priority < best_cost) {
      if (nodes >= opt.max_nodes) {
        out_of_budget = true;
        break;
      }
      std::pop_heap(heap.begin(), heap.end(), frontier_after);
      FrontierNode node = std::move(heap.back());
      heap.pop_back();
      ++nodes;
      fingerprint = mix64(fingerprint ^ mix64(node.seq) ^
                          mix64(static_cast<std::uint64_t>(node.depth)) ^
                          mix64(double_bits(node.cost)));
      batch.push_back(std::move(node));
    }
    if (batch.empty()) {
      if (out_of_budget) {
        complete = false;
        stop = CoverStop::kNodeBudget;
      }
      break;
    }

    // Expand the whole batch against ONE incumbent snapshot: each expansion
    // is a pure function of (node, snapshot), so the round's results do not
    // depend on worker count or scheduling.
    const double snapshot = best_cost;
    std::vector<Expansion> results = support::parallel_map_ordered(
        batch.size() > 1 ? pool : nullptr, batch.size(),
        [&](std::size_t i) {
          return expand_node(eval, std::move(batch[i]), snapshot);
        });

    // Merge sequentially in batch (= pop) order; child seq numbers and the
    // incumbent evolution within the round are therefore deterministic.
    for (Expansion& r : results) {
      rc_fixed += r.rc_fixed;
      if (!r.feasible) continue;
      if (r.depth == 0) {
        root_bound = r.bound;
        if (!r.multipliers.empty()) root_multipliers = std::move(r.multipliers);
      }
      if (r.solved) {
        if (r.cost < best_cost) {
          best_cost = r.cost;
          best = std::move(r.chosen);
          ++incumbent_updates;
          if (sink != nullptr) {
            support::trace_instant(
                "ucp.incumbent_improved", "ucp",
                "{\"cost\":" + std::to_string(r.cost) +
                    ",\"nodes\":" + std::to_string(nodes) + "}");
          }
          support::flight_record("incumbent",
                                 "cost=" + std::to_string(r.cost) +
                                     " nodes=" + std::to_string(nodes));
        }
        continue;
      }
      if (r.pruned) continue;
      for (FrontierNode& child : r.children) {
        // Re-checked against the incumbent as merged so far this round
        // (still deterministic: the merge order is fixed).
        if (child.cost >= best_cost) continue;
        child.seq = next_seq++;
        heap.push_back(std::move(child));
        std::push_heap(heap.begin(), heap.end(), frontier_after);
      }
    }

    frontier_gauge.set_max(static_cast<double>(heap.size()));
    if (sink != nullptr && nodes - last_progress_nodes >= kProgressPeriod) {
      last_progress_nodes = nodes;
      support::trace_counter("ucp.nodes", static_cast<double>(nodes), "ucp");
      if (best_cost < kInfCost) {
        support::trace_counter("ucp.incumbent", best_cost, "ucp");
      }
    }
    if (out_of_budget) {
      complete = false;
      stop = CoverStop::kNodeBudget;
      break;
    }
    if (heap.size() > opt.best_first_max_frontier) {
      complete = false;
      stop = CoverStop::kFrontierCap;
      break;
    }
  }

  if (sink != nullptr) {
    support::trace_counter("ucp.nodes", static_cast<double>(nodes), "ucp");
  }
  auto& registry = support::MetricsRegistry::global();
  registry.counter("ucp.rc_fixed_columns").add(rc_fixed);
  registry.counter("ucp.incumbent_updates").add(incumbent_updates);

  CoverSolution sol;
  sol.chosen = std::move(best);
  std::sort(sol.chosen.begin(), sol.chosen.end());
  sol.cost = best_cost;
  sol.optimal = complete && best_cost < kInfCost;
  sol.nodes_explored = nodes;
  sol.deadline_expired = deadline_hit;
  sol.stop = stop;
  sol.explored_fingerprint = fingerprint;
  sol.root_multipliers = std::move(root_multipliers);
  sol.lower_bound = root_bound;
  return sol;
}

}  // namespace

CoverSolution solve_parallel_bnb(const CoverProblem& problem,
                                 const BnbOptions& options) {
  support::Span span(
      "ucp.bnb_rounds", "ucp",
      "{\"rows\":" + std::to_string(problem.num_rows()) +
          ",\"cols\":" + std::to_string(problem.num_columns()) +
          ",\"threads\":" +
          std::to_string(support::resolve_thread_count(options.threads)) +
          "}");
  return run_rounds(problem, options);
}

}  // namespace cdcs::ucp
