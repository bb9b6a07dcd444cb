// Geometric norms ||p(u) - p(v)|| (Sec. 2 of the paper).
//
// Definition 2.1 requires d(a) to be consistent with the vertex positions but
// leaves the distance notion application-specific: Euclidean for the WAN/LAN
// examples, Manhattan for the on-chip example. A Norm value is carried by
// every ConstraintGraph so that all derived quantities (the Delta matrix of
// Table 2, the merging-pricer objective, segmentation lengths) use the same
// metric as the arc lengths.
#pragma once

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string_view>

#include "geom/hypot.hpp"
#include "geom/point.hpp"

namespace cdcs::geom {

enum class Norm {
  kEuclidean,  ///< L2: sqrt(dx^2 + dy^2) -- WAN/LAN domains.
  kManhattan,  ///< L1: |dx| + |dy|       -- on-chip wiring domain.
  kChebyshev,  ///< Linf: max(|dx|, |dy|) -- e.g. diagonal-routing fabrics.
};

/// Length of the displacement vector under the given norm. Inline: the
/// pricers' placement loops call it millions of times per synthesis.
inline double length(Point2D v, Norm norm) {
  switch (norm) {
    case Norm::kEuclidean:
      return geom::hypot(v.x, v.y);
    case Norm::kManhattan:
      return std::abs(v.x) + std::abs(v.y);
    case Norm::kChebyshev:
      return std::max(std::abs(v.x), std::abs(v.y));
  }
  throw std::logic_error("length: unknown norm");
}

/// Distance between two points under the given norm.
inline double distance(Point2D a, Point2D b, Norm norm) {
  return length(a - b, norm);
}

std::string_view to_string(Norm norm);

/// Parses "euclidean" / "manhattan" / "chebyshev"; throws std::invalid_argument.
Norm norm_from_string(std::string_view name);

}  // namespace cdcs::geom
