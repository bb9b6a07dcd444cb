#include "ucp/greedy.hpp"

#include <algorithm>
#include <limits>
#include <utility>

namespace cdcs::ucp {

CoverSolution solve_greedy(const CoverProblem& problem) {
  CoverSolution sol;
  Bitset uncovered(problem.num_rows());
  for (std::size_t r = 0; r < problem.num_rows(); ++r) uncovered.set(r);

  while (uncovered.any()) {
    double best_ratio = std::numeric_limits<double>::infinity();
    std::size_t best_j = problem.num_columns();
    for (std::size_t j = 0; j < problem.num_columns(); ++j) {
      const std::size_t gain =
          problem.column(j).rows.intersection_count(uncovered);
      if (gain == 0) continue;
      const double ratio =
          problem.column(j).weight / static_cast<double>(gain);
      if (ratio < best_ratio) {
        best_ratio = ratio;
        best_j = j;
      }
    }
    if (best_j == problem.num_columns()) {
      // Some row is uncoverable; report infeasibility.
      sol.chosen.clear();
      sol.cost = std::numeric_limits<double>::infinity();
      return sol;
    }
    sol.chosen.push_back(best_j);
    uncovered.subtract(problem.column(best_j).rows);
  }
  std::sort(sol.chosen.begin(), sol.chosen.end());
  sol.cost = problem.cost_of(sol.chosen);
  return sol;
}

double seed_incumbent(const CoverProblem& problem,
                      const std::vector<std::size_t>& warm_start,
                      std::vector<std::size_t>& best) {
  const CoverSolution greedy = solve_greedy(problem);
  double best_cost = greedy.cost;
  best = greedy.chosen;
  if (warm_start.empty()) return best_cost;
  std::vector<std::size_t> warm = warm_start;
  std::sort(warm.begin(), warm.end());
  warm.erase(std::unique(warm.begin(), warm.end()), warm.end());
  if (warm.back() >= problem.num_columns()) return best_cost;
  if (!problem.covers_all(warm)) return best_cost;
  const double warm_cost = problem.cost_of(warm);
  if (warm_cost < best_cost) {
    best_cost = warm_cost;
    best = std::move(warm);
  }
  return best_cost;
}

}  // namespace cdcs::ucp
