// The scalar Euclidean Weiszfeld solver the lane engine replaced, kept as
// the oracle of the lane tests (tests/test_weiszfeld_lanes.cpp) and the
// baseline of the lane microbenchmark (bench/bench_micro.cpp). Its
// distances use geom::hypot, which Hypot.MatchesLibmBitForBit ties to the
// std::hypot the solver called before.
#pragma once

#include <span>

#include "geom/hypot.hpp"
#include "geom/point.hpp"
#include "geom/weiszfeld.hpp"

namespace cdcs::geom::reference {

/// The scalar Euclidean weighted_geometric_median the lane engine replaced:
/// Weiszfeld from the weighted centroid with Kuhn's rule, then the anchor
/// sweep over the terminals.
inline Point2D scalar_median(std::span<const Point2D> terminals,
                             std::span<const double> weights,
                             const WeiszfeldOptions& options = {}) {
  if (terminals.empty()) return {0.0, 0.0};
  auto dist = [](Point2D a, Point2D b) {
    return geom::hypot(a.x - b.x, a.y - b.y);
  };
  auto weiszfeld = [&]() -> Point2D {
    Point2D x{0.0, 0.0};
    double wsum = 0.0;
    for (std::size_t i = 0; i < terminals.size(); ++i) {
      x += weights[i] * terminals[i];
      wsum += weights[i];
    }
    if (wsum <= 0.0) return {0.0, 0.0};
    x = x / wsum;
    for (int it = 0; it < options.max_iterations; ++it) {
      Point2D num{0.0, 0.0};
      double den = 0.0;
      double anchor_weight = 0.0;
      for (std::size_t i = 0; i < terminals.size(); ++i) {
        const double d = dist(x, terminals[i]);
        if (d < 1e-12) {
          anchor_weight = weights[i];
          continue;
        }
        const double c = weights[i] / d;
        num += c * terminals[i];
        den += c;
      }
      if (den == 0.0) break;
      Point2D next = num / den;
      if (anchor_weight > 0.0) {
        Point2D pull{0.0, 0.0};
        for (std::size_t i = 0; i < terminals.size(); ++i) {
          const double d = dist(x, terminals[i]);
          if (d < 1e-12) continue;
          pull += (weights[i] / d) * (terminals[i] - x);
        }
        const double pull_len = geom::hypot(pull.x, pull.y);
        if (pull_len <= anchor_weight) return x;
        const double step = (pull_len - anchor_weight) / den;
        next = x + (step / pull_len) * pull;
      }
      if (squared_length(next - x) <
          options.tolerance * options.tolerance) {
        return next;
      }
      x = next;
    }
    return x;
  };
  Point2D best = weiszfeld();
  double best_cost = 0.0;
  for (std::size_t i = 0; i < terminals.size(); ++i) {
    best_cost += weights[i] * dist(best, terminals[i]);
  }
  for (const Point2D& t : terminals) {
    double c = 0.0;
    for (std::size_t i = 0; i < terminals.size() && c < best_cost; ++i) {
      c += weights[i] * dist(t, terminals[i]);
    }
    if (c < best_cost) {
      best_cost = c;
      best = t;
    }
  }
  return best;
}

}  // namespace cdcs::geom::reference
