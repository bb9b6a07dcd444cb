// The chain pricer against its oracle (tests/chain_oracle.hpp), and the
// three-pull Manhattan median against the general one.
//
// The chain pricer skips a drop re-centering whose pulls kept their bits,
// solves Manhattan drops with geom::manhattan_median3 and memoises link
// costs per call. Each is exact only if it reproduces the long way bit for
// bit: the winning order, every drop position, and the span, bandwidth and
// cost bits of every segment and leg plan.
#include <algorithm>
#include <bit>
#include <cstdint>
#include <optional>
#include <random>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "chain_oracle.hpp"
#include "commlib/standard_libraries.hpp"
#include "geom/weiszfeld.hpp"
#include "synth/chain_pricer.hpp"
#include "workloads/noc_mesh.hpp"

namespace cdcs::synth {
namespace {

using model::ArcId;
using model::ConstraintGraph;
using model::VertexId;

bool same(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same(geom::Point2D a, geom::Point2D b) {
  return same(a.x, b.x) && same(a.y, b.y);
}

::testing::AssertionResult same_ptp(const PtpPlan& a, const PtpPlan& b) {
  if (a.link != b.link || a.segments != b.segments ||
      a.parallel != b.parallel || a.repeater != b.repeater ||
      a.mux != b.mux || a.demux != b.demux || !same(a.span, b.span) ||
      !same(a.bandwidth, b.bandwidth) || !same(a.cost, b.cost)) {
    return ::testing::AssertionFailure()
           << "plan (span " << a.span << ", bw " << a.bandwidth << ", cost "
           << a.cost << ") vs (span " << b.span << ", bw " << b.bandwidth
           << ", cost " << b.cost << ")";
  }
  return ::testing::AssertionSuccess();
}

/// Bit-for-bit equality of two chain pricings (both absent counts).
::testing::AssertionResult same_chain(const std::optional<ChainPlan>& got,
                                      const std::optional<ChainPlan>& want) {
  if (got.has_value() != want.has_value()) {
    return ::testing::AssertionFailure()
           << "priced " << got.has_value() << ", oracle " << want.has_value();
  }
  if (!got) return ::testing::AssertionSuccess();
  const ChainPlan& a = *got;
  const ChainPlan& b = *want;
  if (a.arcs != b.arcs) return ::testing::AssertionFailure() << "drop order";
  if (a.source_rooted != b.source_rooted || a.drop_node != b.drop_node) {
    return ::testing::AssertionFailure() << "root side or drop node";
  }
  if (!same(a.cost, b.cost)) {
    return ::testing::AssertionFailure()
           << "cost " << a.cost << " vs " << b.cost;
  }
  if (a.drop_pos.size() != b.drop_pos.size() ||
      a.segments.size() != b.segments.size() ||
      a.segment_bandwidth.size() != b.segment_bandwidth.size() ||
      a.legs.size() != b.legs.size()) {
    return ::testing::AssertionFailure() << "structure sizes";
  }
  for (std::size_t i = 0; i < a.drop_pos.size(); ++i) {
    if (!same(a.drop_pos[i], b.drop_pos[i])) {
      return ::testing::AssertionFailure() << "drop " << i << " position";
    }
  }
  for (std::size_t j = 0; j < a.segments.size(); ++j) {
    if (!same(a.segment_bandwidth[j], b.segment_bandwidth[j])) {
      return ::testing::AssertionFailure() << "segment " << j << " bandwidth";
    }
    if (auto r = same_ptp(a.segments[j], b.segments[j]); !r) {
      return r << " at segment " << j;
    }
  }
  for (std::size_t i = 0; i < a.legs.size(); ++i) {
    if (auto r = same_ptp(a.legs[i], b.legs[i]); !r) {
      return r << " at leg " << i;
    }
  }
  return ::testing::AssertionSuccess();
}

/// How a test instance places its spokes.
enum class Layout {
  kScattered,   ///< uniform real coordinates
  kTieGrid,     ///< a 5x5 grid around the root (zeros of both signs) with
                ///< two demands: ties everywhere
  kCoincident,  ///< spokes stacked on three points, one on the root
  kCollinear,   ///< spokes a pitch apart on a line from the root, so trunk
                ///< segments share a span and differ in bandwidth
};

struct LibraryCase {
  const char* name;
  commlib::Library library;
  double scale;   ///< coordinate range in the library's length unit
  double demand;  ///< typical channel demand in its bandwidth unit
};

std::vector<LibraryCase> library_cases() {
  return {{"wan", commlib::wan_library(), 100.0, 8.0},
          {"noc", commlib::noc_library(), 5.0, 2.0},
          {"soc", commlib::soc_library(), 3.0, 1.0},
          {"mcm", commlib::mcm_library(), 40.0, 10.0},
          {"lan", commlib::lan_library(), 200.0, 20.0}};
}

/// A root with eight spokes (channels out of the root when source-rooted,
/// into it otherwise), plus one channel off the root, so subsets that
/// include it have no common side.
ConstraintGraph star_of_spokes(std::mt19937_64& rng, geom::Norm norm,
                               Layout layout, bool source_rooted,
                               const LibraryCase& lib) {
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::uniform_int_distribution<int> cell(0, 4);
  ConstraintGraph cg(norm);
  const geom::Point2D root_pos =
      layout == Layout::kScattered
          ? geom::Point2D{unit(rng) * lib.scale, unit(rng) * lib.scale}
          : geom::Point2D{0.0, 0.0};
  const VertexId root = cg.add_port("root", root_pos);
  const double pitch = lib.scale / 4.0;
  // A grid coordinate in [-2, 2] pitches; zero comes as +0.0 or -0.0.
  auto grid = [&] {
    const int c = cell(rng) - 2;
    return c != 0 ? c * pitch : (rng() % 2 == 0 ? 0.0 : -0.0);
  };
  std::vector<geom::Point2D> stacks;
  for (int i = 0; i < 2; ++i) {
    stacks.push_back({cell(rng) * pitch, cell(rng) * pitch});
  }
  stacks.push_back(root_pos);
  for (int i = 0; i < 8; ++i) {
    geom::Point2D p;
    double demand = lib.demand;
    switch (layout) {
      case Layout::kScattered:
        p = {unit(rng) * lib.scale, unit(rng) * lib.scale};
        demand *= 0.25 + 2.0 * unit(rng);
        break;
      case Layout::kTieGrid:
        p = {grid(), grid()};
        demand *= (i % 2 == 0) ? 1.0 : 2.0;
        break;
      case Layout::kCoincident:
        p = stacks[static_cast<std::size_t>(i) % stacks.size()];
        demand *= 1.0 + (i % 3);
        break;
      case Layout::kCollinear:
        p = {(i + 1) * pitch, 0.0};
        demand *= 0.5 * (1 + rng() % 4);
        break;
    }
    const VertexId v = cg.add_port("p" + std::to_string(i), p);
    if (source_rooted) {
      cg.add_channel(root, v, demand);
    } else {
      cg.add_channel(v, root, demand);
    }
  }
  const VertexId a = cg.add_port("a", {lib.scale, 0.0});
  const VertexId b = cg.add_port("b", {0.0, lib.scale});
  cg.add_channel(a, b, lib.demand);
  return cg;
}

/// A random subset of `k` of the graph's arcs, in random order, drawn from
/// the root's eight spokes and, one time in eight, the off-root arc.
std::vector<ArcId> random_subset(std::mt19937_64& rng, std::size_t k) {
  std::vector<std::uint32_t> ids = {0, 1, 2, 3, 4, 5, 6, 7};
  if (rng() % 8 == 0) ids.push_back(8);
  std::shuffle(ids.begin(), ids.end(), rng);
  std::vector<ArcId> subset;
  for (std::size_t i = 0; i < k; ++i) subset.push_back(ArcId{ids[i]});
  return subset;
}

TEST(ChainOracle, MatchesParentBitForBit) {
  std::mt19937_64 rng(20);
  int priced = 0;
  for (const LibraryCase& lib : library_cases()) {
    for (const geom::Norm norm :
         {geom::Norm::kEuclidean, geom::Norm::kManhattan,
          geom::Norm::kChebyshev}) {
      for (const model::CapacityPolicy policy :
           {model::CapacityPolicy::kSharedSum,
            model::CapacityPolicy::kMaxPerConstraint}) {
        for (const Layout layout :
             {Layout::kScattered, Layout::kTieGrid, Layout::kCoincident,
              Layout::kCollinear}) {
          for (std::size_t k = 2; k <= 7; ++k) {
            // Five arcs (120 orders) run under the Manhattan norm only:
            // Euclidean and Chebyshev solves would make them most of the
            // test's time, and four arcs already try every order.
            if (k == 5 && norm != geom::Norm::kManhattan) continue;
            const bool source_rooted = (k + priced) % 2 == 0;
            const ConstraintGraph cg =
                star_of_spokes(rng, norm, layout, source_rooted, lib);
            const std::vector<ArcId> subset = random_subset(rng, k);
            const auto want = reference::price_chain_merging_oracle(
                cg, lib.library, subset, policy);
            const auto got =
                price_chain_merging(cg, lib.library, subset, policy);
            EXPECT_TRUE(same_chain(got, want))
                << lib.name << ", norm " << geom::to_string(norm)
                << ", policy " << static_cast<int>(policy) << ", layout "
                << static_cast<int>(layout) << ", k " << k;
            priced += got.has_value() ? 1 : 0;
          }
        }
      }
    }
  }
  // Most cases price: the comparison is not vacuous.
  EXPECT_GT(priced, 500);
}

/// Hotspot subsets of the 12x12 NoC (the benchmark's Manhattan instance),
/// priced on one and on four threads: the per-call memo and flags share
/// nothing between calls.
TEST(ChainOracle, NocHotspotSubsetsAtOneAndFourThreads) {
  workloads::NocMeshParams params;
  params.rows = 12;
  params.cols = 12;
  const ConstraintGraph cg = workloads::noc_mesh(params);
  std::mt19937_64 rng(7);
  std::vector<std::vector<ArcId>> subsets;
  for (int i = 0; i < 96; ++i) {
    const std::size_t k = 2 + static_cast<std::size_t>(i) % 5;
    std::vector<ArcId> subset;
    while (subset.size() < k) {
      const ArcId a{static_cast<std::uint32_t>(rng() % cg.num_channels())};
      if (std::find(subset.begin(), subset.end(), a) == subset.end()) {
        subset.push_back(a);
      }
    }
    subsets.push_back(subset);
  }
  for (const commlib::Library& library :
       {commlib::wan_library(), commlib::noc_library()}) {
    for (const model::CapacityPolicy policy :
         {model::CapacityPolicy::kSharedSum,
          model::CapacityPolicy::kMaxPerConstraint}) {
      std::vector<std::optional<ChainPlan>> want;
      for (const auto& subset : subsets) {
        want.push_back(reference::price_chain_merging_oracle(cg, library,
                                                             subset, policy));
      }
      for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        std::vector<std::optional<ChainPlan>> got(subsets.size());
        std::vector<std::thread> workers;
        for (std::size_t t = 0; t < threads; ++t) {
          workers.emplace_back([&, t] {
            for (std::size_t i = t; i < subsets.size(); i += threads) {
              got[i] = price_chain_merging(cg, library, subsets[i], policy);
            }
          });
        }
        for (std::thread& w : workers) w.join();
        int priced = 0;
        for (std::size_t i = 0; i < subsets.size(); ++i) {
          EXPECT_TRUE(same_chain(got[i], want[i]))
              << library.name() << ", " << threads << " threads, subset " << i;
          priced += got[i].has_value() ? 1 : 0;
        }
        EXPECT_GT(priced, 48);
      }
    }
  }
}

}  // namespace
}  // namespace cdcs::synth

namespace cdcs::geom {
namespace {

::testing::AssertionResult same_median(std::span<const Point2D, 3> pts,
                                       std::span<const double, 3> ws) {
  const Point2D want = weighted_geometric_median(pts, ws, Norm::kManhattan);
  const Point2D got = manhattan_median3(pts, ws);
  if (std::bit_cast<std::uint64_t>(got.x) ==
          std::bit_cast<std::uint64_t>(want.x) &&
      std::bit_cast<std::uint64_t>(got.y) ==
          std::bit_cast<std::uint64_t>(want.y)) {
    return ::testing::AssertionSuccess();
  }
  ::testing::AssertionResult out = ::testing::AssertionFailure();
  out << "got (" << got.x << ", " << got.y << ") want (" << want.x << ", "
      << want.y << ") for";
  for (std::size_t i = 0; i < 3; ++i) {
    out << " (" << pts[i].x << ", " << pts[i].y << ") w " << ws[i];
  }
  return out;
}

// Every combination of three pulls on a small coordinate set that holds
// equal values, +0.0 and -0.0, with every combination of zero, small,
// equal and dominant weights, then seeded random pulls with coinciding
// pulls and a dominant weight.
TEST(ManhattanMedian, ThreePullMatchesGeneralBitForBit) {
  const double coords[] = {-1.0, -0.0, 0.0, 2.5};
  const double weights[] = {0.0, 0.5, 1.0, 3.0};
  int failures = 0;
  for (int c = 0; c < 4 * 4 * 4 * 4 * 4 * 4 && failures < 5; ++c) {
    int r = c;
    Point2D pts[3];
    for (Point2D& p : pts) {
      p.x = coords[r % 4];
      r /= 4;
      p.y = coords[r % 4];
      r /= 4;
    }
    for (int w = 0; w < 4 * 4 * 4; ++w) {
      const double ws[] = {weights[w % 4], weights[w / 4 % 4],
                           weights[w / 16]};
      const auto ok = same_median(pts, ws);
      if (!ok) {
        ADD_FAILURE() << ok.message();
        if (++failures >= 5) break;
      }
    }
  }

  std::mt19937_64 rng(3);
  std::uniform_real_distribution<double> coord(-50.0, 50.0);
  std::uniform_real_distribution<double> weight(0.0, 4.0);
  for (int i = 0; i < 50000 && failures < 5; ++i) {
    Point2D pts[3];
    double ws[3];
    for (std::size_t j = 0; j < 3; ++j) {
      pts[j] = {coord(rng), coord(rng)};
      ws[j] = weight(rng);
    }
    switch (i % 5) {
      case 1:  // two pulls coincide
        pts[2] = pts[0];
        break;
      case 2:  // one coordinate shared, the other apart
        pts[1].x = pts[0].x;
        pts[2].y = pts[1].y;
        break;
      case 3:  // one dominant weight
        ws[i % 3] = 1e9;
        break;
      case 4:  // a zero weight
        ws[i % 3] = 0.0;
        break;
      default:
        break;
    }
    const auto ok = same_median(pts, ws);
    if (!ok) {
      ADD_FAILURE() << ok.message();
      ++failures;
    }
  }
}

}  // namespace
}  // namespace cdcs::geom
