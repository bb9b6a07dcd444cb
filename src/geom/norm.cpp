#include "geom/norm.hpp"

#include <ostream>
#include <stdexcept>
#include <string>

namespace cdcs::geom {

std::string_view to_string(Norm norm) {
  switch (norm) {
    case Norm::kEuclidean:
      return "euclidean";
    case Norm::kManhattan:
      return "manhattan";
    case Norm::kChebyshev:
      return "chebyshev";
  }
  return "unknown";
}

Norm norm_from_string(std::string_view name) {
  if (name == "euclidean" || name == "l2") return Norm::kEuclidean;
  if (name == "manhattan" || name == "l1") return Norm::kManhattan;
  if (name == "chebyshev" || name == "linf") return Norm::kChebyshev;
  throw std::invalid_argument("norm_from_string: unknown norm '" +
                              std::string(name) + "'");
}

std::ostream& operator<<(std::ostream& os, Point2D p) {
  return os << '(' << p.x << ", " << p.y << ')';
}

}  // namespace cdcs::geom
