#include "ucp/cover_solver.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "support/metrics.hpp"
#include "support/trace.hpp"
#include "ucp/bnb.hpp"
#include "ucp/bnb_core.hpp"
#include "ucp/dp.hpp"
#include "ucp/lagrangian.hpp"

namespace cdcs::ucp {
namespace {

class DenseDpSolver final : public CoverSolver {
 public:
  std::string_view name() const override { return "dense_dp"; }
  bool applicable(const CoverProblem& problem) const override {
    return problem.num_rows() <= kDenseDpMaxRows;
  }
  CoverSolution solve(const CoverProblem& problem,
                      const BnbOptions& options) const override {
    support::Span dp_span("ucp.dense_dp", "ucp");
    support::MetricsRegistry::global().counter("ucp.dp_solves").add(1);
    CoverSolution sol;
    if (!options.deadline.expired()) {
      sol = solve_dp(problem, options.deadline, options.max_nodes,
                     options.fault_injector);
    } else {
      sol.deadline_expired = true;
      sol.stop = CoverStop::kDeadline;
    }
    if (!sol.optimal && sol.stop != CoverStop::kCompleted) {
      // DP abandoned (or never started) under the deadline, node budget, or
      // an injected fault: hand back the seeded incumbent (greedy / warm
      // start) instead of nothing, keeping the stop reason.
      CoverSolution fallback;
      fallback.cost = detail::seed_incumbent(problem, options, fallback.chosen);
      fallback.deadline_expired = sol.deadline_expired;
      fallback.stop = sol.stop;
      fallback.nodes_explored = sol.nodes_explored;
      sol = std::move(fallback);
    }
    return sol;
  }
};

class BnbV2Solver final : public CoverSolver {
 public:
  std::string_view name() const override { return "bnb_v2"; }
  CoverSolution solve(const CoverProblem& problem,
                      const BnbOptions& options) const override {
    support::Span bnb_span("ucp.bnb", "ucp");
    return detail::solve_serial_bnb(problem, options);
  }
};

/// The backend solve_exact runs for `options.backend`; throws for unknown
/// names and for a named backend that cannot handle the instance.
const CoverSolver& route(const CoverProblem& problem,
                         const BnbOptions& options) {
  if (options.backend.empty()) {
    return *find_cover_solver(problem.num_rows() <= kDefaultDenseDpRows
                                  ? "dense_dp"
                                  : "bnb_v2");
  }
  const CoverSolver* solver = find_cover_solver(options.backend);
  if (solver == nullptr) {
    throw std::invalid_argument("unknown cover-solver backend '" +
                                options.backend + "' (registered: " +
                                registered_cover_solver_list() + ")");
  }
  if (!solver->applicable(problem)) {
    throw std::invalid_argument(
        "cover-solver backend '" + options.backend + "' cannot handle a " +
        std::to_string(problem.num_rows()) + "x" +
        std::to_string(problem.num_columns()) + " instance");
  }
  return *solver;
}

}  // namespace

const std::vector<const CoverSolver*>& registered_cover_solvers() {
  static const DenseDpSolver dense_dp;
  static const BnbV2Solver bnb_v2;
  static const std::vector<const CoverSolver*> all = {&dense_dp, &bnb_v2};
  return all;
}

const CoverSolver* find_cover_solver(std::string_view name) {
  for (const CoverSolver* solver : registered_cover_solvers()) {
    if (solver->name() == name) return solver;
  }
  return nullptr;
}

std::vector<std::string> registered_cover_solver_names() {
  std::vector<std::string> names;
  for (const CoverSolver* solver : registered_cover_solvers()) {
    names.emplace_back(solver->name());
  }
  return names;
}

std::string registered_cover_solver_list() {
  std::string joined;
  for (const CoverSolver* solver : registered_cover_solvers()) {
    if (!joined.empty()) joined += ", ";
    joined += solver->name();
  }
  return joined;
}

double cover_density(const CoverProblem& problem) {
  const std::size_t rows = problem.num_rows();
  const std::size_t cols = problem.num_columns();
  if (rows == 0 || cols == 0) return 0.0;
  std::size_t ones = 0;
  for (const Column& c : problem.columns()) ones += c.rows.count();
  return static_cast<double>(ones) /
         (static_cast<double>(rows) * static_cast<double>(cols));
}

CoverSolution solve_exact(const CoverProblem& problem,
                          const BnbOptions& options) {
  support::Span span("ucp.solve", "ucp",
                     "{\"rows\":" + std::to_string(problem.num_rows()) +
                         ",\"cols\":" + std::to_string(problem.num_columns()) +
                         "}");
  const CoverSolver& solver = route(problem, options);
  CoverSolution sol = solver.solve(problem, options);
  sol.backend = solver.name();
  if (sol.optimal) {
    sol.lower_bound = sol.cost;
  } else {
    // Degraded exit: report the strongest proven root bound so callers get
    // an honest optimality gap -- the engine's root bound when it evaluated
    // one, else the Lagrangian root bound (when enabled), never below the
    // independent-rows bound.
    const double root_bound = sol.lower_bound;
    double lb = std::max(independent_rows_lower_bound(problem), root_bound);
    if (options.use_lagrangian_bound && root_bound == 0.0) {
      SubgradientOptions sopt;
      sopt.max_iterations = options.lagrangian_root_iterations;
      lb = std::max(lb, lagrangian_root_bound(problem, sopt));
    }
    sol.lower_bound = lb;
  }
  sol.rows = problem.num_rows();
  sol.cols = problem.num_columns();
  sol.density = cover_density(problem);
  auto& registry = support::MetricsRegistry::global();
  registry.counter("ucp.backend." + sol.backend + ".solves").add(1);
  registry.counter("ucp.backend." + sol.backend + ".nodes")
      .add(sol.nodes_explored);
  return sol;
}

}  // namespace cdcs::ucp
