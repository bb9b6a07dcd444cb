#include "geom/weiszfeld.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "geom/minimize.hpp"

namespace cdcs::geom {
namespace {

/// Exact 1-D weighted median: minimizes sum_i w_i * |x - c_i|. Sorts
/// `coord_weight` in place.
double weighted_median(std::span<std::pair<double, double>> coord_weight) {
  std::sort(coord_weight.begin(), coord_weight.end());
  double total = 0.0;
  for (const auto& [c, w] : coord_weight) total += w;
  double acc = 0.0;
  for (const auto& [c, w] : coord_weight) {
    acc += w;
    if (acc >= total / 2.0) return c;
  }
  return coord_weight.empty() ? 0.0 : coord_weight.back().first;
}

/// Terminal counts up to which the Manhattan median sorts on the stack. The
/// pricers' placement solves (a chain drop's three pulls, a star's hub or
/// split over its spokes) stay within it; larger inputs use the heap.
constexpr std::size_t kInlineTerminals = 16;

Point2D manhattan_median(std::span<const Point2D> terminals,
                         std::span<const double> weights) {
  const std::size_t n = terminals.size();
  std::array<std::pair<double, double>, kInlineTerminals> inline_buf;
  std::vector<std::pair<double, double>> heap_buf;
  if (n > kInlineTerminals) heap_buf.resize(n);
  const std::span<std::pair<double, double>> buf =
      n > kInlineTerminals ? std::span(heap_buf)
                           : std::span(inline_buf).first(n);
  // One buffer serves both axes: x is taken before y is filled in.
  for (std::size_t i = 0; i < n; ++i) buf[i] = {terminals[i].x, weights[i]};
  const double x = weighted_median(buf);
  for (std::size_t i = 0; i < n; ++i) buf[i] = {terminals[i].y, weights[i]};
  return {x, weighted_median(buf)};
}

/// distance(a, b, Norm::kEuclidean), without the per-call norm dispatch.
double euclidean_distance(Point2D a, Point2D b) {
  return std::hypot(a.x - b.x, a.y - b.y);
}

Point2D euclidean_weiszfeld(std::span<const Point2D> terminals,
                            std::span<const double> weights,
                            const WeiszfeldOptions& options) {
  // Start from the weighted centroid.
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
    double anchor_weight = 0.0;  // weight of the terminal x sits on, if any
    for (std::size_t i = 0; i < terminals.size(); ++i) {
      const double d = euclidean_distance(x, terminals[i]);
      if (d < 1e-12) {
        anchor_weight = weights[i];
        continue;
      }
      const double c = weights[i] / d;
      num += c * terminals[i];
      den += c;
    }
    if (den == 0.0) break;  // all terminals coincide with x
    Point2D next = num / den;
    if (anchor_weight > 0.0) {
      // Kuhn's rule: x coincides with terminal t of weight w. t is optimal
      // iff ||pull|| <= w, where pull is the net pull of the other
      // terminals; otherwise step away along the pull direction. Only this
      // rare case needs the pull, so it is summed here, in the same order
      // as the sweep above.
      Point2D pull{0.0, 0.0};
      for (std::size_t i = 0; i < terminals.size(); ++i) {
        const double d = euclidean_distance(x, terminals[i]);
        if (d < 1e-12) continue;
        pull += (weights[i] / d) * (terminals[i] - x);
      }
      const double pull_len = std::hypot(pull.x, pull.y);
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
}

}  // namespace

double fermat_weber_cost(Point2D x, std::span<const Point2D> terminals,
                         std::span<const double> weights, Norm norm) {
  double cost = 0.0;
  for (std::size_t i = 0; i < terminals.size(); ++i) {
    cost += weights[i] * distance(x, terminals[i], norm);
  }
  return cost;
}

Point2D weighted_geometric_median(std::span<const Point2D> terminals,
                                  std::span<const double> weights, Norm norm,
                                  const WeiszfeldOptions& options) {
  if (terminals.size() != weights.size()) {
    throw std::invalid_argument(
        "weighted_geometric_median: terminals/weights size mismatch");
  }
  for (double w : weights) {
    if (w < 0.0) {
      throw std::invalid_argument(
          "weighted_geometric_median: negative weight");
    }
  }
  if (terminals.empty()) return {0.0, 0.0};

  Point2D best;
  switch (norm) {
    case Norm::kManhattan:
      best = manhattan_median(terminals, weights);
      break;
    case Norm::kEuclidean:
      best = euclidean_weiszfeld(terminals, weights, options);
      break;
    case Norm::kChebyshev: {
      BBox box = BBox::of(terminals);
      box.inflate(1e-9);
      auto f = [&](Point2D p) {
        return fermat_weber_cost(p, terminals, weights, norm);
      };
      best = minimize_in_box(f, box).x;
      break;
    }
  }
  // The Fermat-Weber optimum is either interior (where the iteration
  // converges fast) or exactly AT a terminal, where Weiszfeld only crawls
  // toward it. Comparing against every terminal makes the anchored case
  // exact -- important for the pricer's degenerate-trunk mergings, whose
  // cost must tie (not slightly exceed) the unmerged implementation.
  double best_cost = fermat_weber_cost(best, terminals, weights, norm);
  for (const Point2D& t : terminals) {
    // fermat_weber_cost(t, ...), abandoned once the partial sum reaches
    // best_cost: adding nonnegative terms never decreases it, so t could
    // no longer win.
    double c = 0.0;
    for (std::size_t i = 0; i < terminals.size() && c < best_cost; ++i) {
      c += weights[i] * distance(t, terminals[i], norm);
    }
    if (c < best_cost) {
      best_cost = c;
      best = t;
    }
  }
  return best;
}

}  // namespace cdcs::geom
