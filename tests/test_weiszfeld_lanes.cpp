// Differential tests of the in-repo hypot and the Weiszfeld lane engine.
//
// * Hypot.*: geom::hypot against the host's std::hypot, bit for bit, on
//   glibc >= 2.35 (whose non-FMA kernel geom::hypot reproduces).
// * WeiszfeldLanes.*: both lane bodies against the scalar Euclidean solver
//   they replaced, kept in weiszfeld_oracle.hpp as the oracle.
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#if defined(__GLIBC__)
#include <gnu/libc-version.h>
#endif

#include "geom/hypot.hpp"
#include "geom/weiszfeld.hpp"
#include "weiszfeld_oracle.hpp"

namespace cdcs::geom {
namespace {

using reference::scalar_median;

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// True when the running C library is glibc 2.35 or newer.
bool glibc_at_least_2_35() {
#if defined(__GLIBC__)
  const std::string version = gnu_get_libc_version();
  const std::size_t dot = version.find('.');
  if (dot == std::string::npos) return false;
  const int major = std::atoi(version.substr(0, dot).c_str());
  const int minor = std::atoi(version.substr(dot + 1).c_str());
  return major > 2 || (major == 2 && minor >= 35);
#else
  return false;
#endif
}

// ---------------------------------------------------------------------------
// Hypot

TEST(Hypot, MatchesLibmBitForBit) {
  if (!glibc_at_least_2_35()) {
    GTEST_SKIP() << "geom::hypot reproduces glibc >= 2.35's kernel";
  }
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> edges = {0.0,
                               -0.0,
                               1.0,
                               -1.0,
                               3.0,
                               4.0,
                               kInf,
                               -kInf,
                               kNaN,
                               std::numeric_limits<double>::denorm_min(),
                               std::numeric_limits<double>::min(),
                               std::numeric_limits<double>::max(),
                               kHypotLarge,
                               kHypotTiny,
                               kHypotEps};
  for (const double base : {kHypotLarge, kHypotTiny, 1.0, kHypotEps}) {
    edges.push_back(std::nextafter(base, 0.0));
    edges.push_back(std::nextafter(base, kInf));
  }
  std::size_t mismatches = 0;
  auto check = [&](double x, double y) {
    const double got = geom::hypot(x, y);
    const double want = std::hypot(x, y);
    if (bits(got) != bits(want) && ++mismatches <= 10) {
      ADD_FAILURE() << std::hexfloat << "hypot(" << x << ", " << y
                    << ") = " << got << ", libm " << want;
    }
  };
  for (const double x : edges) {
    for (const double y : edges) check(x, y);
  }
  // Equal magnitudes, and ratios on either side of 2^-54.
  for (const double a : {1.0, 1e-300, 1e300, 0x1p-511, 0x1p511, 123.456}) {
    check(a, a);
    check(a, -a);
    const double at_eps = a * kHypotEps;
    for (const double b : {at_eps, std::nextafter(at_eps, 0.0),
                           std::nextafter(at_eps, kInf)}) {
      check(a, b);
      check(b, -a);
    }
  }

  std::mt19937_64 rng(20220206);
  std::uniform_real_distribution<double> span(-4000.0, 4000.0);
  std::uniform_real_distribution<double> unit(-1.0, 1.0);
  constexpr long kPairs = 10'000'000;
  for (long i = 0; i < kPairs; ++i) {
    double x = 0.0;
    double y = 0.0;
    switch (i % 5) {
      case 0:  // coordinate differences of the placement solves
        x = span(rng);
        y = span(rng);
        break;
      case 1:  // any bit pattern: every exponent, subnormals, inf, NaN
        x = std::bit_cast<double>(rng());
        y = std::bit_cast<double>(rng());
        break;
      case 2:  // ratios from 1 down to 2^-80, around the 2^-54 cut
        x = unit(rng);
        y = x * std::ldexp(1.0 + 1e-3 * unit(rng),
                           -static_cast<int>(rng() % 80));
        break;
      case 3:  // nearly equal magnitudes (the h <= 2 ay splitting)
        x = span(rng);
        y = x * (1.0 + 1e-6 * unit(rng));
        break;
      default:  // around the 2^+-511 range edges
        x = std::ldexp(unit(rng), 505 + static_cast<int>(rng() % 12));
        y = std::ldexp(unit(rng), -517 + static_cast<int>(rng() % 12));
        if (rng() % 2 == 0) std::swap(x, y);
        break;
    }
    check(x, y);
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(Hypot, SharedCoordinateStaysExact) {
  // Ports that share a coordinate: the length is the other difference.
  EXPECT_EQ(bits(geom::hypot(0.0, 12.5)), bits(12.5));
  EXPECT_EQ(bits(geom::hypot(-7.25, 0.0)), bits(7.25));
  EXPECT_EQ(bits(geom::hypot(0.0, 0.0)), bits(0.0));
  EXPECT_EQ(geom::hypot(3.0, 4.0), 5.0);
}

// ---------------------------------------------------------------------------
// Lane engine

struct Problem {
  std::string kind;
  std::vector<Point2D> terminals;
  std::vector<double> weights;
};

/// Hands out problems in order; records each median by id.
class VectorFeed final : public WeiszfeldFeed {
 public:
  explicit VectorFeed(const std::vector<Problem>& problems)
      : problems_(problems), medians_(problems.size()) {}

  bool next(WeiszfeldProblem& problem) override {
    if (next_ == problems_.size()) return false;
    problem = {next_, problems_[next_].terminals, problems_[next_].weights};
    ++next_;
    return true;
  }
  void done(std::size_t id, Point2D median) override {
    medians_[id] = median;
    ++finished_;
  }

  const std::vector<Point2D>& medians() const { return medians_; }
  std::size_t finished() const { return finished_; }

 private:
  const std::vector<Problem>& problems_;
  std::vector<Point2D> medians_;
  std::size_t next_{0};
  std::size_t finished_{0};
};

/// Problems built to reach every branch of the scalar solver.
std::vector<Problem> edge_corpus(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> coord(-1000.0, 1000.0);
  std::uniform_real_distribution<double> weight(0.1, 5.0);
  std::vector<Problem> out;
  for (std::size_t n = 1; n <= 17; ++n) {
    Problem random{"random", {}, {}};
    Problem duplicated{"coincident", {}, {}};
    Problem zero_weights{"zero_weights", {}, {}};
    for (std::size_t i = 0; i < n; ++i) {
      const Point2D p{coord(rng), coord(rng)};
      random.terminals.push_back(p);
      random.weights.push_back(weight(rng));
      // Every terminal twice over: coincident terminals share a position.
      duplicated.terminals.push_back(i % 2 == 0 ? p
                                                : duplicated.terminals.back());
      duplicated.weights.push_back(weight(rng));
      zero_weights.terminals.push_back(p);
      zero_weights.weights.push_back(i % 3 == 0 ? 0.0 : weight(rng));
    }
    out.push_back(random);
    out.push_back(duplicated);
    out.push_back(zero_weights);
    Problem all_zero = random;
    all_zero.kind = "wsum_zero";
    for (double& w : all_zero.weights) w = 0.0;
    out.push_back(all_zero);
    Problem common = random;  // shared coordinates: hypot's ay == 0 path
    common.kind = "shared_coordinate";
    for (std::size_t i = 0; i < n; ++i) {
      common.terminals[i].y = i % 2 == 0 ? 5.0 : common.terminals[i].y;
    }
    out.push_back(common);
  }
  // Kuhn's rule: the centroid is a terminal. A heavy one is optimal; a
  // light one is stepped away from along the pull.
  for (const double center_weight : {5.0, 0.5, 0.0}) {
    out.push_back({"kuhn",
                   {{0, 0}, {10, 0}, {-10, 0}, {0, 10}, {0, -7}, {0, -3}},
                   {center_weight, 1, 1, 1, 1, 1}});
  }
  out.push_back({"kuhn_anchor_pair",
                 {{0, 0}, {0, 0}, {4, 0}, {-4, 0}},
                 {2.0, 0.0, 1.0, 1.0}});
  // Every terminal on one point: den == 0 on the first iteration.
  out.push_back({"all_coincide", {{3, 4}, {3, 4}, {3, 4}}, {1, 2, 3}});
  // Optimum at a heavy terminal that the iteration only crawls toward:
  // these run into the iteration cap.
  for (int i = 0; i < 4; ++i) {
    out.push_back({"capped",
                   {{0, 0}, {100.0 + i, 1}, {-3, 90.0 - i}, {7, -80}},
                   {6.0 + i, 1, 1, 1}});
  }
  // Extreme coordinates: the hypot slow paths and non-finite sums.
  out.push_back({"huge", {{1e300, 0}, {-1e300, 5e299}, {0, 1e300}}, {1, 1, 1}});
  out.push_back({"large_edge",
                 {{0x1p511, 0}, {-0x1p511, 3}, {1, 0x1p512}},
                 {1, 2, 1}});
  out.push_back({"tiny", {{1e-300, 0}, {0, 2e-300}, {-3e-300, 1e-310}},
                 {1, 1, 1}});
  out.push_back({"mixed_scale", {{1e-200, 0}, {1e200, 1}, {0, 1}}, {1, 1, 1}});
  out.push_back({"overflowing_weights",
                 {{0, 0}, {1, 0}, {0, 1}},
                 {1e308, 1e308, 1e308}});
  return out;
}

void expect_lanes_match_oracle(const std::vector<Problem>& problems,
                               const WeiszfeldOptions& options,
                               LaneBody body, const std::string& where) {
  VectorFeed feed(problems);
  solve_weiszfeld_lanes(feed, options, body);
  ASSERT_EQ(feed.finished(), problems.size()) << where;
  for (std::size_t i = 0; i < problems.size(); ++i) {
    const Point2D want =
        scalar_median(problems[i].terminals, problems[i].weights, options);
    const Point2D got = feed.medians()[i];
    EXPECT_EQ(bits(got.x), bits(want.x))
        << where << " problem " << i << " (" << problems[i].kind << ", "
        << problems[i].terminals.size() << " terminals)";
    EXPECT_EQ(bits(got.y), bits(want.y))
        << where << " problem " << i << " (" << problems[i].kind << ", "
        << problems[i].terminals.size() << " terminals)";
  }
}

std::vector<LaneBody> supported_bodies() {
  std::vector<LaneBody> out;
  for (const LaneBody body : {LaneBody::kPortable, LaneBody::kAvx2}) {
    if (lane_body_supported(body)) out.push_back(body);
  }
  return out;
}

TEST(WeiszfeldLanes, MatchesScalarOracle) {
  const std::vector<Problem> corpus = edge_corpus(7);
  WeiszfeldOptions capped;
  capped.max_iterations = 3;
  WeiszfeldOptions none;
  none.max_iterations = 0;
  for (const LaneBody body : supported_bodies()) {
    const std::string name(to_string(body));
    // The whole corpus in one batch: mixed terminal counts share lanes.
    expect_lanes_match_oracle(corpus, {}, body, name + " all");
    expect_lanes_match_oracle(corpus, capped, body, name + " capped");
    expect_lanes_match_oracle(corpus, none, body, name + " no iterations");
    // Batch sizes 1 to L + 1, from every starting offset.
    for (std::size_t size = 1; size <= kWeiszfeldLanes + 1; ++size) {
      for (std::size_t first = 0; first + size <= corpus.size(); ++first) {
        const std::vector<Problem> batch(corpus.begin() + first,
                                         corpus.begin() + first + size);
        expect_lanes_match_oracle(batch, {}, body,
                                  name + " batch of " + std::to_string(size));
      }
    }
  }
}

TEST(WeiszfeldLanes, RandomBatchesMatchScalarOracle) {
  std::mt19937_64 rng(99);
  std::uniform_real_distribution<double> coord(-5000.0, 5000.0);
  std::uniform_real_distribution<double> weight(0.0, 3.0);
  std::vector<Problem> batch;
  for (int p = 0; p < 400; ++p) {
    Problem problem{"seeded", {}, {}};
    const std::size_t n = 1 + rng() % 17;
    for (std::size_t i = 0; i < n; ++i) {
      problem.terminals.push_back({coord(rng), coord(rng)});
      problem.weights.push_back(weight(rng));
    }
    batch.push_back(std::move(problem));
  }
  for (const LaneBody body : supported_bodies()) {
    expect_lanes_match_oracle(batch, {}, body, std::string(to_string(body)));
  }
}

TEST(WeiszfeldLanes, SingleSolveIsTheEngine) {
  for (const Problem& p : edge_corpus(11)) {
    const Point2D got =
        weighted_geometric_median(p.terminals, p.weights, Norm::kEuclidean);
    const Point2D want = scalar_median(p.terminals, p.weights, {});
    EXPECT_EQ(bits(got.x), bits(want.x)) << p.kind;
    EXPECT_EQ(bits(got.y), bits(want.y)) << p.kind;
  }
}

TEST(WeiszfeldLanes, DefaultBodyIsSupported) {
  EXPECT_TRUE(lane_body_supported(LaneBody::kPortable));
  EXPECT_TRUE(lane_body_supported(default_lane_body()));
}

}  // namespace
}  // namespace cdcs::geom
