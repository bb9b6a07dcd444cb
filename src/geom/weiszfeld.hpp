// Weighted geometric-median ("Fermat-Weber") solvers.
//
// The cost of a candidate k-way merging (Sec. 3: "a simple nonlinear
// optimization problem, which computes also their costs") reduces to placing
// one or two communication vertices so that a nonnegative weighted sum of
// distances to fixed terminals is minimized. The single-point subproblem is
// the classic Fermat-Weber problem:
//
//     minimize_x  sum_i w_i * || x - t_i ||
//
// * Euclidean norm: Weiszfeld's iteration, with the standard fix-up for
//   iterates that land exactly on a terminal (Kuhn's modification). The
//   iteration runs in a lane engine that advances up to kWeiszfeldLanes
//   independent problems per step (below); a single solve is a batch of
//   one.
// * Manhattan norm: the problem separates per coordinate and the exact
//   optimum is the weighted median of the terminal coordinates.
// * Chebyshev norm: solved by the derivative-free minimizer in minimize.hpp.
#pragma once

#include <cstddef>
#include <span>
#include <string_view>

#include "geom/norm.hpp"
#include "geom/point.hpp"

namespace cdcs::geom {

struct WeiszfeldOptions {
  int max_iterations = 200;
  double tolerance = 1e-10;  ///< convergence threshold on iterate movement
};

/// Value of the Fermat-Weber objective at x.
double fermat_weber_cost(Point2D x, std::span<const Point2D> terminals,
                         std::span<const double> weights, Norm norm);

/// Minimizes sum_i w_i * ||x - t_i|| over x. Weights must be nonnegative and
/// `weights.size() == terminals.size()`; throws std::invalid_argument
/// otherwise. With no terminals (or all-zero weights) returns the origin.
Point2D weighted_geometric_median(std::span<const Point2D> terminals,
                                  std::span<const double> weights, Norm norm,
                                  const WeiszfeldOptions& options = {});

/// weighted_geometric_median(terminals, weights, Norm::kManhattan) for three
/// terminals, bit for bit, without the weight checks, the norm dispatch or
/// the general sort: the chain pricer re-centers every drop on three pulls.
/// Weights must be nonnegative and no input NaN (not checked here).
Point2D manhattan_median3(std::span<const Point2D, 3> terminals,
                          std::span<const double, 3> weights);

/// Problems the lane engine advances side by side. A constant, not a knob:
/// the AVX2 body holds one problem per double of a 256-bit register.
inline constexpr std::size_t kWeiszfeldLanes = 4;

/// One Euclidean Fermat-Weber problem for the lane engine. Both spans must
/// stay valid, and unchanged, until the engine reports the problem done.
/// Weights must be nonnegative (not checked here).
struct WeiszfeldProblem {
  std::size_t id{0};  ///< the caller's tag, handed back by done()
  std::span<const Point2D> terminals;
  std::span<const double> weights;
};

/// Source and sink of the problems a lane engine solves.
class WeiszfeldFeed {
 public:
  virtual ~WeiszfeldFeed() = default;
  /// Writes the next problem that is ready to `problem`; false when none is
  /// ready now. The engine asks again after every done(), so a done() may
  /// make the caller's next problem ready.
  virtual bool next(WeiszfeldProblem& problem) = 0;
  /// Delivers problem `id`'s weighted geometric median: bit for bit what
  /// weighted_geometric_median(terminals, weights, Norm::kEuclidean,
  /// options) returns.
  virtual void done(std::size_t id, Point2D median) = 0;
};

/// The two bodies of the lane engine: the same lane loop on plain doubles
/// and on AVX2 registers. Both give the same bits; kAvx2 is only available
/// on x86-64 CPUs that have AVX2 (it never uses FMA).
enum class LaneBody { kPortable, kAvx2 };

std::string_view to_string(LaneBody body);

/// True when `body` can run on this CPU.
bool lane_body_supported(LaneBody body);

/// kAvx2 when supported, else kPortable.
LaneBody default_lane_body();

/// Solves every problem `feed` hands out, up to kWeiszfeldLanes at a time.
/// A lane is refilled as soon as its problem ends, so problems of different
/// lengths and iteration counts share the lanes. Each lane repeats the
/// scalar Euclidean solve of weighted_geometric_median exactly; an iterate
/// that lands on a terminal (Kuhn's rule) finishes on the scalar path.
/// Returns when every lane is idle and feed.next() has nothing ready.
void solve_weiszfeld_lanes(WeiszfeldFeed& feed,
                           const WeiszfeldOptions& options = {},
                           LaneBody body = default_lane_body());

}  // namespace cdcs::geom
