// The seeded random cover corpus of the cover-solver tests
// (tests/test_ucp.cpp, test_cover_solver.cpp, test_lagrangian.cpp) and of
// bench/bench_ucp_solver.cpp. One generator, so the node counts the tests
// pin (Exact.SeedCorpusNodeCounts, CoverSolverMatrix.*) describe exactly
// the instances the bench times.
#pragma once

#include <cstddef>
#include <random>
#include <vector>

#include "ucp/cover.hpp"

namespace cdcs::ucp {

/// `cols` random columns, each covering every row with probability
/// `density` (or row j % rows when the draw covers none), weighted
/// uniformly in [0.5, 10), then one weight-12 singleton per row so every
/// instance is feasible. mt19937 seeded with `seed`: the same arguments
/// give the same instance on every platform.
inline CoverProblem corpus_problem(int rows, int cols, double density,
                                   unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::uniform_real_distribution<double> weight(0.5, 10.0);
  CoverProblem p(rows);
  for (int j = 0; j < cols; ++j) {
    std::vector<std::size_t> covered;
    for (int r = 0; r < rows; ++r) {
      if (unit(rng) < density) covered.push_back(r);
    }
    if (covered.empty()) covered.push_back(j % rows);
    p.add_column(covered, weight(rng));
  }
  for (int r = 0; r < rows; ++r) {
    p.add_column({static_cast<std::size_t>(r)}, 12.0);
  }
  return p;
}

}  // namespace cdcs::ucp
