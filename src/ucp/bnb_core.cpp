#include "ucp/bnb_core.hpp"

#include <algorithm>
#include <utility>

#include "ucp/greedy.hpp"

namespace cdcs::ucp::detail {

NodeEvaluator::NodeEvaluator(const CoverProblem& problem,
                             const BnbOptions& options)
    : p_(problem), opt_(options) {
  // Reading row_cover here also warms the problem's lazy transpose cache,
  // so every row_cover call in the const methods is a pure cache read.
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

bool NodeEvaluator::reduce(SearchState& s, double& cost,
                           std::vector<std::size_t>& chosen, int depth,
                           double best_cost) const {
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
        if (cost >= best_cost) return false;
        chosen.push_back(essential_col);
        s.uncovered.subtract(p_.column(essential_col).rows);
        s.available.reset(essential_col);
        found_essential = true;
        changed = true;
        if (s.uncovered.none()) return true;
      }
    }

    // Row dominance: if every available column covering r2 also covers r1,
    // r1 is automatically satisfied when r2 is -> ignore r1.
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

    // Column dominance on the remaining rows.
    if (opt_.use_column_dominance && depth <= opt_.column_dominance_max_depth) {
      for (std::size_t j1 = 0; j1 < p_.num_columns(); ++j1) {
        if (!s.available.test(j1)) continue;
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

double NodeEvaluator::cheapest_available(std::size_t r,
                                         const Bitset& available) const {
  // Probe the weight-sorted list until the first available entry:
  // value-identical to scanning the row's whole column set (the minimum of
  // a set does not depend on the visit order), typically O(1) probes.
  for (std::size_t j : row_cols_by_weight_[r]) {
    if (available.test(j)) return p_.column(j).weight;
  }
  return kInfCost;
}

double NodeEvaluator::lower_bound(const SearchState& s) const {
  if (!opt_.use_mis_lower_bound) return 0.0;
  double bound = 0.0;
  Bitset blocked(p_.num_columns());
  s.uncovered.for_each([&](std::size_t r) {
    const Bitset& cov = p_.row_cover(r);
    if (cov.intersects_masked(s.available, blocked)) return;
    const double cheapest = cheapest_available(r, s.available);
    if (cheapest < kInfCost) {
      bound += cheapest;
      blocked.unite_and(cov, s.available);
    }
  });
  return bound;
}

double NodeEvaluator::node_bound(const SearchState& s, double cost, int depth,
                                 const std::vector<double>& lambda,
                                 double best_cost, LagrangianBound& lagr,
                                 bool& lagr_ran) const {
  double bound = lower_bound(s);
  lagr_ran = false;
  if (opt_.use_lagrangian_bound && cost + bound < best_cost) {
    SubgradientOptions sopt;
    sopt.max_iterations = depth == 0 ? opt_.lagrangian_root_iterations
                                     : opt_.lagrangian_node_iterations;
    const std::vector<double>* warm = lambda.empty() ? nullptr : &lambda;
    lagr = subgradient_bound(p_, s.uncovered, s.available, best_cost - cost,
                             sopt, warm);
    bound = std::max(bound, lagr.bound);
    lagr_ran = true;
  }
  return bound;
}

std::size_t NodeEvaluator::fix_columns(SearchState& s, double cost,
                                       double best_cost,
                                       const LagrangianBound& lagr) const {
  // A cover through column j costs at least bound + max(0, rc_j) on top of
  // `cost`; strictly past the incumbent the column can never improve on it,
  // so it is dropped from this subtree (permanently when called at the
  // root). The comparison is strict with an absolute+relative tolerance so
  // a column of an ALTERNATIVE optimal cover (bound + rc == incumbent) is
  // never removed.
  const double budget = best_cost - cost;
  std::vector<std::size_t> victims;
  s.available.for_each([&](std::size_t j) {
    const double through = lagr.bound + std::max(0.0, lagr.reduced_costs[j]);
    if (through > budget * (1.0 + 1e-12) + 1e-9) victims.push_back(j);
  });
  for (std::size_t j : victims) s.available.reset(j);
  return victims.size();
}

std::vector<std::size_t> NodeEvaluator::branch_columns(
    const SearchState& s) const {
  std::size_t best_row = p_.num_rows();
  std::size_t best_count = std::numeric_limits<std::size_t>::max();
  s.uncovered.for_each([&](std::size_t r) {
    const std::size_t count = p_.row_cover(r).intersection_count(s.available);
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

double seed_incumbent(const CoverProblem& problem, const BnbOptions& options,
                      std::vector<std::size_t>& best) {
  const CoverSolution greedy = solve_greedy(problem);
  double best_cost = greedy.cost;
  best = greedy.chosen;
  if (options.warm_start.empty()) return best_cost;
  std::vector<std::size_t> warm = options.warm_start;
  std::sort(warm.begin(), warm.end());
  warm.erase(std::unique(warm.begin(), warm.end()), warm.end());
  if (warm.empty() || warm.back() >= problem.num_columns()) return best_cost;
  if (!problem.covers_all(warm)) return best_cost;
  const double warm_cost = problem.cost_of(warm);
  if (warm_cost < best_cost) {
    best_cost = warm_cost;
    best = std::move(warm);
  }
  return best_cost;
}

}  // namespace cdcs::ucp::detail
