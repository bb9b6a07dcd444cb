// Euclidean length sqrt(x^2 + y^2), computed in the repository.
//
// Every Euclidean distance the pricers take goes through geom::hypot:
// length()/distance() under Norm::kEuclidean, each Weiszfeld step and
// Kuhn's pull. The pinned placement and cost bits therefore belong to this
// function, not to the host's libm.
//
// On the common range it is the branchless non-FMA kernel of glibc >= 2.35
// (sysdeps/ieee754/dbl-64/e_hypot.c): with ax = max(|x|, |y|) and
// ay = min(|x|, |y|), a ratio below 2^-54 returns ax + ay, otherwise
// h = sqrt(ax^2 + ay^2) is corrected by (t1 + t2) / (2h), where t1 + t2 is
// the rounding error of ax^2 + ay^2 - h^2 computed exactly by splitting
// along delta = h - ay or delta = h - ax. Every operation is a correctly
// rounded IEEE add, multiply, divide or square root, so the result is the
// same on any IEEE-754 host as long as no multiply-add is contracted (the
// library builds with -ffp-contract=off). On glibc >= 2.35 it equals
// std::hypot bit for bit (Hypot.MatchesLibmBitForBit).
//
// Outside the common range -- a non-finite input, ax > 2^511 (where the
// squares could overflow) or a nonzero ay below 2^-511 (where they could
// underflow) -- it defers to std::hypot. ay == 0 (points that share a
// coordinate) stays on the fast path: glibc returns ax + ay there too.
#pragma once

#include <cmath>

namespace cdcs::geom {

/// Upper end of the fast path's range: ax^2 cannot overflow below it.
inline constexpr double kHypotLarge = 0x1p+511;
/// Lower end of the fast path's range for a nonzero ay: ay^2 stays normal.
inline constexpr double kHypotTiny = 0x1p-511;
/// ay <= ax * 2^-54 leaves ax + ay as the correctly rounded result.
inline constexpr double kHypotEps = 0x1p-54;

/// glibc's correction step for ax >= ay > 0 inside the fast range. Both
/// splittings are evaluated and one is selected, as in the lane engine.
inline double hypot_kernel(double ax, double ay) {
  const double h = std::sqrt(ax * ax + ay * ay);
  const double delta_y = h - ay;
  const double t1_y = ax * (2.0 * delta_y - ax);
  const double t2_y = (delta_y - 2.0 * (ax - ay)) * delta_y;
  const double delta_x = h - ax;
  const double t1_x = 2.0 * delta_x * (ax - 2.0 * ay);
  const double t2_x = (4.0 * delta_x - ay) * ay + delta_x * delta_x;
  const bool near_diagonal = h <= 2.0 * ay;
  const double t1 = near_diagonal ? t1_y : t1_x;
  const double t2 = near_diagonal ? t2_y : t2_x;
  return h - (t1 + t2) / (2.0 * h);
}

/// sqrt(x^2 + y^2) without undue overflow or underflow.
inline double hypot(double x, double y) {
  const double fx = std::abs(x);
  const double fy = std::abs(y);
  const double ax = fx < fy ? fy : fx;
  const double ay = fx < fy ? fx : fy;
  // Written so that NaN fails every test and defers.
  if (!(ax <= kHypotLarge) || !(ay >= kHypotTiny || ay == 0.0)) {
    return std::hypot(x, y);
  }
  if (ay <= ax * kHypotEps) return ax + ay;
  return hypot_kernel(ax, ay);
}

}  // namespace cdcs::geom
