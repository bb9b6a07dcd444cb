#include "ucp/lagrangian.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace cdcs::ucp {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Held--Karp step t = scale * (upper_bound - L) / ||g||^2. The scale starts
/// at kInitialStepScale, is multiplied by kStepDecay after kStallLimit
/// non-improving iterations, and the ascent stops once it decays below
/// kMinStepScale.
constexpr double kInitialStepScale = 2.0;
constexpr double kStepDecay = 0.5;
constexpr std::size_t kStallLimit = 8;
constexpr double kMinStepScale = 1e-3;

/// Columns worth scanning each iteration: available AND touching at least
/// one uncovered row (others contribute rc_j = w_j >= 0, i.e. nothing).
std::vector<std::size_t> active_columns(const CoverProblem& p,
                                        const Bitset& uncovered,
                                        const Bitset& available) {
  std::vector<std::size_t> cols;
  available.for_each([&](std::size_t j) {
    if (p.column(j).rows.intersects(uncovered)) cols.push_back(j);
  });
  return cols;
}

}  // namespace

std::vector<double> mis_multipliers(const CoverProblem& problem,
                                    const Bitset& uncovered,
                                    const Bitset& available) {
  std::vector<double> lambda(problem.num_rows(), 0.0);
  Bitset blocked(problem.num_columns());
  uncovered.for_each([&](std::size_t r) {
    const Bitset& cov = problem.row_cover(r);
    if (cov.intersects_masked(available, blocked)) return;
    double cheapest = kInf;
    cov.for_each_and(available, [&](std::size_t j) {
      cheapest = std::min(cheapest, problem.column(j).weight);
    });
    if (cheapest < kInf) {
      lambda[r] = cheapest;
      blocked.unite_and(cov, available);
    }
  });
  return lambda;
}

LagrangianBound subgradient_bound(const CoverProblem& problem,
                                  const Bitset& uncovered,
                                  const Bitset& available,
                                  double upper_bound, std::size_t iterations,
                                  const std::vector<double>* warm_start) {
  LagrangianBound out;
  out.multipliers.assign(problem.num_rows(), 0.0);
  out.reduced_costs.assign(problem.num_columns(), 0.0);
  if (uncovered.none()) return out;

  std::vector<double> lambda;
  if (warm_start != nullptr && warm_start->size() == problem.num_rows()) {
    lambda.assign(problem.num_rows(), 0.0);
    uncovered.for_each([&](std::size_t r) {
      lambda[r] = std::max(0.0, (*warm_start)[r]);
    });
  } else {
    lambda = mis_multipliers(problem, uncovered, available);
  }

  const std::vector<std::size_t> cols =
      active_columns(problem, uncovered, available);

  std::vector<double> rc(cols.size(), 0.0);
  std::vector<double> grad(problem.num_rows(), 0.0);
  out.bound = -kInf;
  double scale = kInitialStepScale;
  std::size_t stall = 0;

  for (std::size_t it = 0; it < iterations; ++it) {
    ++out.iterations;

    // Evaluate L(lambda): reduced costs, dual value, and the subgradient
    // g_r = 1 - (columns taken that cover r) in one pass.
    double value = 0.0;
    uncovered.for_each([&](std::size_t r) {
      value += lambda[r];
      grad[r] = 1.0;
    });
    for (std::size_t c = 0; c < cols.size(); ++c) {
      const Column& col = problem.column(cols[c]);
      rc[c] = col.weight - col.rows.dot_and(uncovered, lambda.data());
      if (rc[c] < 0.0) {
        value += rc[c];
        col.rows.for_each_and(uncovered,
                              [&](std::size_t r) { grad[r] -= 1.0; });
      }
    }

    if (value > out.bound) {
      out.bound = value;
      uncovered.for_each([&](std::size_t r) { out.multipliers[r] = lambda[r]; });
      for (std::size_t c = 0; c < cols.size(); ++c) {
        out.reduced_costs[cols[c]] = rc[c];
      }
      stall = 0;
    } else if (++stall >= kStallLimit) {
      scale *= kStepDecay;
      stall = 0;
      if (scale < kMinStepScale) break;
    }

    // The bound already proves the incumbent unbeatable; the caller prunes.
    if (value >= upper_bound) break;

    double norm2 = 0.0;
    uncovered.for_each([&](std::size_t r) { norm2 += grad[r] * grad[r]; });
    if (norm2 == 0.0) break;  // dual-feasible primal point: L is maximal here

    const double gap = std::isfinite(upper_bound)
                           ? upper_bound - value
                           : std::max(std::abs(value), 1.0);
    const double step = scale * gap / norm2;
    uncovered.for_each([&](std::size_t r) {
      lambda[r] = std::max(0.0, lambda[r] + step * grad[r]);
    });
  }

  if (!std::isfinite(out.bound)) out.bound = 0.0;
  out.bound = std::max(out.bound, 0.0);
  return out;
}

double lagrangian_root_bound(const CoverProblem& problem, double upper_bound,
                             std::size_t iterations) {
  if (problem.num_rows() == 0) return 0.0;
  Bitset uncovered(problem.num_rows());
  uncovered.set_all();
  Bitset available(problem.num_columns());
  available.set_all();

  const double mis = independent_rows_lower_bound(problem);
  const LagrangianBound lagr = subgradient_bound(
      problem, uncovered, available, upper_bound, iterations);
  return std::max(mis, lagr.bound);
}

}  // namespace cdcs::ucp
