#include <cmath>

#include <gtest/gtest.h>

#include "geom/bbox.hpp"
#include "geom/minimize.hpp"
#include "geom/norm.hpp"
#include "geom/weiszfeld.hpp"

namespace cdcs::geom {
namespace {

TEST(Point2D, Arithmetic) {
  const Point2D a{1.0, 2.0};
  const Point2D b{3.0, -1.0};
  EXPECT_EQ((a + b), (Point2D{4.0, 1.0}));
  EXPECT_EQ((a - b), (Point2D{-2.0, 3.0}));
  EXPECT_EQ((2.0 * a), (Point2D{2.0, 4.0}));
  EXPECT_EQ((a / 2.0), (Point2D{0.5, 1.0}));
}

TEST(Point2D, Lerp) {
  const Point2D a{0.0, 0.0};
  const Point2D b{10.0, -4.0};
  EXPECT_EQ(lerp(a, b, 0.0), a);
  EXPECT_EQ(lerp(a, b, 1.0), b);
  EXPECT_EQ(lerp(a, b, 0.5), (Point2D{5.0, -2.0}));
}

TEST(Norm, EuclideanMatchesHypot) {
  EXPECT_DOUBLE_EQ(distance({0, 0}, {3, 4}, Norm::kEuclidean), 5.0);
  EXPECT_DOUBLE_EQ(distance({1, 1}, {1, 1}, Norm::kEuclidean), 0.0);
}

TEST(Norm, Manhattan) {
  EXPECT_DOUBLE_EQ(distance({0, 0}, {3, 4}, Norm::kManhattan), 7.0);
  EXPECT_DOUBLE_EQ(distance({-1, 2}, {2, -2}, Norm::kManhattan), 7.0);
}

TEST(Norm, Chebyshev) {
  EXPECT_DOUBLE_EQ(distance({0, 0}, {3, 4}, Norm::kChebyshev), 4.0);
}

TEST(Norm, RoundTripNames) {
  for (Norm n : {Norm::kEuclidean, Norm::kManhattan, Norm::kChebyshev}) {
    EXPECT_EQ(norm_from_string(std::string(to_string(n))), n);
  }
  EXPECT_THROW(norm_from_string("taxicab"), std::invalid_argument);
}

// Every norm must satisfy the norm axioms on sample vectors; the merging
// lemmas implicitly rely on the triangle inequality.
class NormAxioms : public ::testing::TestWithParam<Norm> {};

TEST_P(NormAxioms, TriangleInequalityAndSymmetry) {
  const Norm norm = GetParam();
  const Point2D pts[] = {{0, 0},   {1, 2},  {-3, 4},   {10, -7},
                         {0.5, 0}, {-2, -2}, {8.25, 3}, {100, 1}};
  for (const Point2D& a : pts) {
    for (const Point2D& b : pts) {
      EXPECT_NEAR(distance(a, b, norm), distance(b, a, norm), 1e-12);
      for (const Point2D& c : pts) {
        EXPECT_LE(distance(a, c, norm),
                  distance(a, b, norm) + distance(b, c, norm) + 1e-12);
      }
    }
  }
}

TEST_P(NormAxioms, HomogeneousAlongSegments) {
  // Straight-line subdivision splits length proportionally under any norm:
  // the assembler relies on this to place repeaters.
  const Norm norm = GetParam();
  const Point2D a{1.0, -2.0};
  const Point2D b{-7.5, 11.0};
  const double total = distance(a, b, norm);
  for (int k = 1; k <= 5; ++k) {
    const Point2D mid = lerp(a, b, static_cast<double>(k) / 5.0);
    EXPECT_NEAR(distance(a, mid, norm), total * k / 5.0, 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(AllNorms, NormAxioms,
                         ::testing::Values(Norm::kEuclidean, Norm::kManhattan,
                                           Norm::kChebyshev));

TEST(BBox, ExpandContainsClamp) {
  BBox box;
  EXPECT_TRUE(box.empty());
  box.expand({1, 1});
  box.expand({-2, 5});
  EXPECT_FALSE(box.empty());
  EXPECT_TRUE(box.contains({0, 3}));
  EXPECT_FALSE(box.contains({2, 3}));
  EXPECT_EQ(box.clamp({10, 0}), (Point2D{1, 1}));
  EXPECT_DOUBLE_EQ(box.width(), 3.0);
  EXPECT_DOUBLE_EQ(box.height(), 4.0);
}

TEST(BBox, InflateAndCenter) {
  BBox box;
  box.expand({0, 0});
  box.expand({2, 2});
  box.inflate(1.0);
  EXPECT_TRUE(box.contains({-0.5, 2.5}));
  EXPECT_EQ(box.center(), (Point2D{1, 1}));
}

TEST(GoldenSection, FindsParabolaMinimum) {
  const auto r = golden_section([](double x) { return (x - 3.0) * (x - 3.0); },
                                -10.0, 10.0);
  EXPECT_NEAR(r.x, 3.0, 1e-7);
  EXPECT_NEAR(r.value, 0.0, 1e-12);
}

TEST(GoldenSection, HandlesReversedBounds) {
  const auto r =
      golden_section([](double x) { return std::abs(x + 1.0); }, 5.0, -5.0);
  EXPECT_NEAR(r.x, -1.0, 1e-7);
}

TEST(NelderMead, QuadraticBowl) {
  const auto r = nelder_mead(
      [](Point2D p) {
        return (p.x - 1.0) * (p.x - 1.0) + 3.0 * (p.y + 2.0) * (p.y + 2.0);
      },
      {10.0, 10.0}, {.initial_step = 2.0});
  EXPECT_NEAR(r.x.x, 1.0, 1e-5);
  EXPECT_NEAR(r.x.y, -2.0, 1e-5);
}

TEST(MinimizeInBox, NonConvexTwoWells) {
  // Two wells; the deeper one is at (4, 4). A pure local method seeded at
  // the center could fall into the wrong well; the grid stage must not.
  auto f = [](Point2D p) {
    const double d1 = squared_length(p - Point2D{0.0, 0.0});
    const double d2 = squared_length(p - Point2D{4.0, 4.0});
    return std::min(d1 + 1.0, d2);
  };
  BBox box;
  box.expand({-1, -1});
  box.expand({5, 5});
  const auto r = minimize_in_box(f, box);
  EXPECT_NEAR(r.x.x, 4.0, 1e-4);
  EXPECT_NEAR(r.x.y, 4.0, 1e-4);
}

TEST(Weiszfeld, SinglePointIsItself) {
  const Point2D t{3.0, 4.0};
  const Point2D m = weighted_geometric_median({{t}}, {{1.0}},
                                              Norm::kEuclidean);
  EXPECT_NEAR(m.x, 3.0, 1e-8);
  EXPECT_NEAR(m.y, 4.0, 1e-8);
}

TEST(Weiszfeld, MedianOfTwoIsAnywhereOnSegmentCostWise) {
  // For two equal-weight points, any point on the segment is optimal; the
  // cost must equal the separation.
  const std::vector<Point2D> pts = {{0, 0}, {10, 0}};
  const std::vector<double> ws = {1.0, 1.0};
  const Point2D m = weighted_geometric_median(pts, ws, Norm::kEuclidean);
  EXPECT_NEAR(fermat_weber_cost(m, pts, ws, Norm::kEuclidean), 10.0, 1e-6);
}

TEST(Weiszfeld, EquilateralTriangleFermatPoint) {
  // The Fermat point of an equilateral triangle is its centroid.
  const double h = std::sqrt(3.0) / 2.0;
  const std::vector<Point2D> pts = {{0, 0}, {1, 0}, {0.5, h}};
  const std::vector<double> ws = {1, 1, 1};
  const Point2D m = weighted_geometric_median(pts, ws, Norm::kEuclidean);
  EXPECT_NEAR(m.x, 0.5, 1e-6);
  EXPECT_NEAR(m.y, h / 3.0, 1e-6);
}

TEST(Weiszfeld, HeavyWeightPinsOptimum) {
  // Kuhn's condition: when one terminal's weight exceeds the sum of the
  // others, the optimum is exactly that terminal.
  const std::vector<Point2D> pts = {{0, 0}, {10, 0}, {0, 10}};
  const std::vector<double> ws = {5.0, 1.0, 1.0};
  const Point2D m = weighted_geometric_median(pts, ws, Norm::kEuclidean);
  EXPECT_NEAR(m.x, 0.0, 1e-6);
  EXPECT_NEAR(m.y, 0.0, 1e-6);
}

TEST(Weiszfeld, ManhattanIsCoordinatewiseMedian) {
  const std::vector<Point2D> pts = {{0, 0}, {2, 7}, {10, 3}};
  const std::vector<double> ws = {1, 1, 1};
  const Point2D m = weighted_geometric_median(pts, ws, Norm::kManhattan);
  EXPECT_DOUBLE_EQ(m.x, 2.0);
  EXPECT_DOUBLE_EQ(m.y, 3.0);
}

// The Manhattan median sorts up to 16 terminals on the stack and larger
// inputs on the heap; both sides of that line give the coordinatewise
// weighted median.
TEST(Weiszfeld, ManhattanMedianOnEitherSideOfTheInlineBuffer) {
  for (const int n : {15, 16, 17, 41}) {
    std::vector<Point2D> pts;
    std::vector<double> ws;
    for (int i = n - 1; i >= 0; --i) {  // reversed: the median must sort
      pts.push_back({static_cast<double>(i), 2.0 * i});
      ws.push_back(1.0);
    }
    const Point2D m = weighted_geometric_median(pts, ws, Norm::kManhattan);
    const double median = static_cast<double>((n - 1) / 2);
    EXPECT_DOUBLE_EQ(m.x, median) << n;
    EXPECT_DOUBLE_EQ(m.y, 2.0 * median) << n;
  }
}

TEST(Weiszfeld, RejectsMismatchedSizes) {
  const std::vector<Point2D> pts = {{0, 0}};
  const std::vector<double> ws = {1.0, 2.0};
  EXPECT_THROW(weighted_geometric_median(pts, ws, Norm::kEuclidean),
               std::invalid_argument);
}

TEST(Weiszfeld, RejectsNegativeWeights) {
  const std::vector<Point2D> pts = {{0, 0}, {1, 0}};
  const std::vector<double> ws = {1.0, -2.0};
  EXPECT_THROW(weighted_geometric_median(pts, ws, Norm::kEuclidean),
               std::invalid_argument);
}

// Property: the returned point is no worse than a grid of probes.
class WeiszfeldOptimality
    : public ::testing::TestWithParam<std::tuple<Norm, int>> {};

TEST_P(WeiszfeldOptimality, BeatsProbeGrid) {
  const auto [norm, seed] = GetParam();
  std::vector<Point2D> pts;
  std::vector<double> ws;
  // Simple LCG so the test is hermetic and deterministic.
  std::uint64_t state = 0x9E3779B97F4A7C15ull * (seed + 1);
  auto next = [&state]() {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<double>(state >> 11) / 9007199254740992.0;
  };
  for (int i = 0; i < 6; ++i) {
    pts.push_back({next() * 20.0 - 10.0, next() * 20.0 - 10.0});
    ws.push_back(0.5 + next() * 3.0);
  }
  const Point2D m = weighted_geometric_median(pts, ws, norm);
  const double best = fermat_weber_cost(m, pts, ws, norm);
  for (double x = -10.0; x <= 10.0; x += 2.5) {
    for (double y = -10.0; y <= 10.0; y += 2.5) {
      EXPECT_GE(fermat_weber_cost({x, y}, pts, ws, norm), best - 1e-4);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, WeiszfeldOptimality,
    ::testing::Combine(::testing::Values(Norm::kEuclidean, Norm::kManhattan,
                                         Norm::kChebyshev),
                       ::testing::Range(0, 6)));

}  // namespace
}  // namespace cdcs::geom
