#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "commlib/standard_libraries.hpp"
#include "geom/minimize.hpp"
#include "geom/weiszfeld.hpp"
#include "synth/canonical_order.hpp"
#include "synth/merging_pricer.hpp"
#include "synth/ptp.hpp"
#include "workloads/lan.hpp"
#include "workloads/mcm.hpp"
#include "workloads/mpeg4_soc.hpp"
#include "workloads/noc_mesh.hpp"
#include "workloads/wan2002.hpp"

namespace cdcs::synth {
namespace {

using model::ArcId;
using model::CapacityPolicy;
using model::ConstraintGraph;
using model::VertexId;

TEST(Pricer, RejectsSingletons) {
  ConstraintGraph cg;
  const VertexId u = cg.add_port("u", {0, 0});
  const VertexId v = cg.add_port("v", {1, 0});
  cg.add_channel(u, v, 1.0);
  EXPECT_FALSE(
      price_merging(cg, commlib::wan_library(), {ArcId{0}}).has_value());
}

TEST(Pricer, ParallelArcsShareOneTrunk) {
  // Two 10 Mbps channels u -> v: merged they need 20 Mbps, which the 1 Gbps
  // optical carries on ONE link at $4000/km -- cheaper than two radios at
  // $2000/km each. No hub/split nodes needed (common source AND target).
  ConstraintGraph cg;
  const VertexId u = cg.add_port("u", {0, 0});
  const VertexId v = cg.add_port("v", {10, 0});
  cg.add_channel(u, v, 10.0, "c1");
  cg.add_channel(u, v, 10.0, "c2");
  const commlib::Library lib = commlib::wan_library();
  const auto plan = price_merging(cg, lib, {ArcId{0}, ArcId{1}});
  ASSERT_TRUE(plan.has_value());
  EXPECT_FALSE(plan->has_hub);
  EXPECT_FALSE(plan->has_split);
  EXPECT_DOUBLE_EQ(plan->trunk_bandwidth, 20.0);
  // At exactly 20 Mbps, one optical ($4000/km) ties two bundled radios
  // (2 x $2000/km with free junctions); either realization is optimal.
  EXPECT_DOUBLE_EQ(plan->cost, 10.0 * 4000.0);
  // A third channel breaks the tie: 3 radios ($6000/km) lose to optical.
  cg.add_channel(u, v, 10.0, "c3");
  const auto plan3 = price_merging(cg, lib, {ArcId{0}, ArcId{1}, ArcId{2}});
  ASSERT_TRUE(plan3.has_value());
  EXPECT_EQ(lib.link(plan3->trunk->link).name, "optical");
  EXPECT_DOUBLE_EQ(plan3->cost, 10.0 * 4000.0);
  EXPECT_LT(plan3->cost, 3 * 10.0 * 2000.0);
}

TEST(Pricer, CommonSourceStarUsesSplitOnly) {
  // The WAN winner {a4,a5,a6}: common source D, targets A/B/C. The plan
  // must anchor the trunk at D (no hub) and place a split near the cluster.
  ConstraintGraph cg;
  const VertexId d = cg.add_port("D", {-2, -97});
  const VertexId a = cg.add_port("A", {0, 0});
  const VertexId b = cg.add_port("B", {4, 3});
  const VertexId c = cg.add_port("C", {9, 1});
  cg.add_channel(d, a, 10.0, "a4");
  cg.add_channel(d, b, 10.0, "a5");
  cg.add_channel(d, c, 10.0, "a6");
  const commlib::Library lib = commlib::wan_library();
  const auto plan =
      price_merging(cg, lib, {ArcId{0}, ArcId{1}, ArcId{2}});
  ASSERT_TRUE(plan.has_value());
  EXPECT_FALSE(plan->has_hub);
  EXPECT_TRUE(plan->has_split);
  EXPECT_EQ(plan->hub_pos, (geom::Point2D{-2, -97}));
  EXPECT_EQ(lib.link(plan->trunk->link).name, "optical");  // 30 > 11 Mbps
  // Must beat three dedicated radios ($591,620).
  const double separate = 2000.0 * (cg.distance(ArcId{0}) +
                                    cg.distance(ArcId{1}) +
                                    cg.distance(ArcId{2}));
  EXPECT_LT(plan->cost, separate);
  // And the split lands inside the A/B/C cluster's neighborhood.
  EXPECT_GT(plan->split_pos.y, -15.0);
  EXPECT_LT(plan->split_pos.y, 10.0);
}

TEST(Pricer, CommonTargetMirrorsCommonSource) {
  ConstraintGraph cg;
  const VertexId a = cg.add_port("A", {0, 0});
  const VertexId b = cg.add_port("B", {4, 3});
  const VertexId d = cg.add_port("D", {-2, -97});
  cg.add_channel(a, d, 10.0);
  cg.add_channel(b, d, 10.0);
  const auto plan =
      price_merging(cg, commlib::wan_library(), {ArcId{0}, ArcId{1}});
  ASSERT_TRUE(plan.has_value());
  EXPECT_TRUE(plan->has_hub);
  EXPECT_FALSE(plan->has_split);
  EXPECT_EQ(plan->split_pos, (geom::Point2D{-2, -97}));
}

TEST(Pricer, GeneralCaseHasHubAndSplit) {
  // THREE channels crossing a 100 km gap: separate radios cost $6000/km of
  // gap while a shared optical trunk costs $4000/km, so the optimum wants a
  // long trunk with the hub pulled toward the sources and the split toward
  // the targets. (With only two channels the trunk per-km rate ties the
  // separate radios and the objective is flat -- covered separately above.)
  ConstraintGraph cg;
  const VertexId u1 = cg.add_port("u1", {0, 0});
  const VertexId u2 = cg.add_port("u2", {0, 4});
  const VertexId u3 = cg.add_port("u3", {0, 8});
  const VertexId v1 = cg.add_port("v1", {100, 0});
  const VertexId v2 = cg.add_port("v2", {100, 4});
  const VertexId v3 = cg.add_port("v3", {100, 8});
  cg.add_channel(u1, v1, 10.0);
  cg.add_channel(u2, v2, 10.0);
  cg.add_channel(u3, v3, 10.0);
  const commlib::Library lib = commlib::wan_library();
  const auto plan = price_merging(cg, lib, {ArcId{0}, ArcId{1}, ArcId{2}});
  ASSERT_TRUE(plan.has_value());
  EXPECT_TRUE(plan->has_hub);
  EXPECT_TRUE(plan->has_split);
  ASSERT_EQ(plan->ingress.size(), 3u);
  EXPECT_TRUE(plan->ingress[0].has_value());
  EXPECT_TRUE(plan->egress[2].has_value());
  EXPECT_EQ(lib.link(plan->trunk->link).name, "optical");
  // Hub near the sources, split near the targets.
  EXPECT_LT(plan->hub_pos.x, 25.0);
  EXPECT_GT(plan->split_pos.x, 75.0);
  // And the merged plan beats three dedicated radio links.
  const double separate = 2000.0 * (cg.distance(ArcId{0}) +
                                    cg.distance(ArcId{1}) +
                                    cg.distance(ArcId{2}));
  EXPECT_LT(plan->cost, separate);
}

TEST(Pricer, MaxPolicyKeepsTrunkOnRadio) {
  // Under the literal Def 2.8 capacity rule the trunk only needs
  // max(b) = 10 Mbps, so the radio suffices.
  ConstraintGraph cg;
  const VertexId d = cg.add_port("D", {0, 0});
  const VertexId a = cg.add_port("A", {50, 1});
  const VertexId b = cg.add_port("B", {50, -1});
  cg.add_channel(d, a, 10.0);
  cg.add_channel(d, b, 10.0);
  const commlib::Library lib = commlib::wan_library();
  const auto sum_plan = price_merging(cg, lib, {ArcId{0}, ArcId{1}},
                                      CapacityPolicy::kSharedSum);
  const auto max_plan = price_merging(cg, lib, {ArcId{0}, ArcId{1}},
                                      CapacityPolicy::kMaxPerConstraint);
  ASSERT_TRUE(sum_plan.has_value());
  ASSERT_TRUE(max_plan.has_value());
  EXPECT_DOUBLE_EQ(sum_plan->trunk_bandwidth, 20.0);
  EXPECT_DOUBLE_EQ(max_plan->trunk_bandwidth, 10.0);
  EXPECT_EQ(lib.link(max_plan->trunk->link).name, "radio");
  EXPECT_LT(max_plan->cost, sum_plan->cost);
}

TEST(Pricer, InfeasibleWithoutMuxCapableNode) {
  ConstraintGraph cg;
  const VertexId u1 = cg.add_port("u1", {0, 0});
  const VertexId u2 = cg.add_port("u2", {0, 4});
  const VertexId v = cg.add_port("v", {100, 0});
  cg.add_channel(u1, v, 1.0);
  cg.add_channel(u2, v, 1.0);
  commlib::Library lib("nonodes");
  lib.add_link(commlib::Link{
      .name = "l", .bandwidth = 10.0, .cost_per_length = 1.0});
  // Differing sources need a hub, but the library offers no node at all.
  EXPECT_FALSE(price_merging(cg, lib, {ArcId{0}, ArcId{1}}).has_value());
}

TEST(Pricer, ManhattanNormStarMerging) {
  // SoC-style: two wires from a common source heading the same way share
  // their trunk; with sum capacity of 2 > wire bandwidth 1 the trunk must
  // duplicate, so no repeater is saved -- merging costs at least as much as
  // separate segmentation plus mux/demux. The pricer must discover this.
  ConstraintGraph cg(geom::Norm::kManhattan);
  const VertexId s = cg.add_port("s", {0, 0});
  const VertexId t1 = cg.add_port("t1", {3.0, 0.1});
  const VertexId t2 = cg.add_port("t2", {3.0, -0.1});
  cg.add_channel(s, t1, 1.0);
  cg.add_channel(s, t2, 1.0);
  const commlib::Library lib = commlib::soc_library(0.6);
  const auto plan = price_merging(cg, lib, {ArcId{0}, ArcId{1}});
  ASSERT_TRUE(plan.has_value());
  const double separate =
      best_point_to_point_cost(cg.distance(ArcId{0}), 1.0, lib) +
      best_point_to_point_cost(cg.distance(ArcId{1}), 1.0, lib);
  EXPECT_GE(plan->cost, separate);
}

TEST(Pricer, ArcsGetCanonicalGeometryOrder) {
  // The plan lists arcs in canonical geometry-record order
  // (synth/canonical_order.hpp), independent of the ids or the order the
  // caller passes -- the invariant that keeps pricing a pure function of
  // geometry across renumbered graphs.
  ConstraintGraph cg;
  const VertexId u = cg.add_port("u", {0, 0});
  const VertexId v = cg.add_port("v", {10, 0});
  const VertexId w = cg.add_port("w", {0, 5});
  const VertexId x = cg.add_port("x", {10, 5});
  cg.add_channel(w, x, 10.0);  // ArcId 0: record starts (0, 5, ...)
  cg.add_channel(u, v, 10.0);  // ArcId 1: record starts (0, 0, ...)
  for (const auto& subset : {std::vector<ArcId>{ArcId{0}, ArcId{1}},
                             std::vector<ArcId>{ArcId{1}, ArcId{0}}}) {
    const auto plan = price_merging(cg, commlib::wan_library(), subset);
    ASSERT_TRUE(plan.has_value());
    EXPECT_EQ(plan->arcs[0], ArcId{1});  // geometry sorts arc 1 first
    EXPECT_EQ(plan->arcs[1], ArcId{0});
  }
}

TEST(Pricer, GeometricallyIdenticalArcsKeepCallerOrder) {
  // Arcs with identical geometry records are indistinguishable to pricing;
  // the canonical sort is stable, so they stay in presentation order.
  ConstraintGraph cg;
  const VertexId u = cg.add_port("u", {0, 0});
  const VertexId v = cg.add_port("v", {10, 0});
  cg.add_channel(u, v, 10.0);
  cg.add_channel(u, v, 10.0);
  const auto plan =
      price_merging(cg, commlib::wan_library(), {ArcId{1}, ArcId{0}});
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->arcs[0], ArcId{1});
  EXPECT_EQ(plan->arcs[1], ArcId{0});
}

// ---------------------------------------------------------------------------
// Fixpoint-terminated placement. price_merging stops alternating hub and
// split half-steps once one returns its input bit-for-bit. The reference
// below is the placement it replaced, kept as the oracle: it always runs
// the full 3 rounds (Weiszfeld for linear libraries, Weiszfeld seed plus
// Nelder-Mead otherwise). Hub and split must agree bit-for-bit.

struct Placement {
  geom::Point2D hub;
  geom::Point2D split;
};

Placement reference_placement(const ConstraintGraph& cg,
                              const commlib::Library& library,
                              std::vector<ArcId> subset) {
  canonicalize_subset(cg, subset);
  const geom::Norm norm = cg.norm();
  std::vector<geom::Point2D> sources;
  std::vector<geom::Point2D> targets;
  std::vector<double> bandwidths;
  for (ArcId a : subset) {
    sources.push_back(cg.position(cg.source(a)));
    targets.push_back(cg.position(cg.target(a)));
    bandwidths.push_back(cg.bandwidth(a));
  }
  auto all_coincide = [](const std::vector<geom::Point2D>& pts) {
    return std::all_of(pts.begin(), pts.end(), [&](geom::Point2D p) {
      return geom::almost_equal(p, pts.front(), 1e-9);
    });
  };
  const bool has_hub = !all_coincide(sources);
  const bool has_split = !all_coincide(targets);
  double trunk_bandwidth = 0.0;
  for (double b : bandwidths) trunk_bandwidth += b;  // kSharedSum

  auto legs_cost = [&](geom::Point2D hub, geom::Point2D split) {
    double total = best_point_to_point_cost(geom::distance(hub, split, norm),
                                            trunk_bandwidth, library);
    for (std::size_t i = 0; i < subset.size(); ++i) {
      if (has_hub) {
        total += best_point_to_point_cost(
            geom::distance(sources[i], hub, norm), bandwidths[i], library);
      }
      if (has_split) {
        total += best_point_to_point_cost(
            geom::distance(split, targets[i], norm), bandwidths[i], library);
      }
    }
    return total;
  };

  geom::Point2D hub = sources.front();
  geom::Point2D split = targets.front();
  if (has_hub || has_split) {
    const PtpCostModel ptp(library);
    const double trunk_w = ptp.length_slope(trunk_bandwidth);
    std::vector<double> leg_w;
    for (double b : bandwidths) leg_w.push_back(ptp.length_slope(b));
    auto weiszfeld_hub = [&]() {
      std::vector<geom::Point2D> pts = sources;
      std::vector<double> ws = leg_w;
      pts.push_back(split);
      ws.push_back(trunk_w);
      return geom::weighted_geometric_median(pts, ws, norm);
    };
    auto weiszfeld_split = [&]() {
      std::vector<geom::Point2D> pts = targets;
      std::vector<double> ws = leg_w;
      pts.push_back(hub);
      ws.push_back(trunk_w);
      return geom::weighted_geometric_median(pts, ws, norm);
    };
    if (has_hub) hub = weiszfeld_hub();
    if (has_split) split = weiszfeld_split();

    const int rounds = (has_hub && has_split) ? 3 : 1;
    if (library.linear_cost_model()) {
      for (int r = 1; r < rounds; ++r) {
        if (has_hub) hub = weiszfeld_hub();
        if (has_split) split = weiszfeld_split();
      }
    } else {
      geom::BBox box;
      for (geom::Point2D p : sources) box.expand(p);
      for (geom::Point2D p : targets) box.expand(p);
      box.inflate(1e-6);
      geom::NelderMeadOptions nm;
      nm.max_iterations = 150;
      nm.restarts = 1;
      nm.tolerance = 1e-8;
      for (int r = 0; r < rounds; ++r) {
        if (has_hub) {
          auto f = [&](geom::Point2D h) { return legs_cost(h, split); };
          const geom::MinimizeResult2D res =
              geom::minimize_in_box(f, box, 6, nm);
          if (res.value <= legs_cost(hub, split)) hub = res.x;
        }
        if (has_split) {
          auto f = [&](geom::Point2D sp) { return legs_cost(hub, sp); };
          const geom::MinimizeResult2D res =
              geom::minimize_in_box(f, box, 6, nm);
          if (res.value <= legs_cost(hub, split)) split = res.x;
        }
      }
    }
  }
  return {hub, split};
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

TEST(PricerFixpoint, MatchesFullThreeRoundAlternation) {
  const struct {
    const char* name;
    ConstraintGraph cg;
    commlib::Library lib;
  } corpus[] = {
      {"wan2002", workloads::wan2002(), commlib::wan_library()},
      {"mpeg4_soc", workloads::mpeg4_soc(),
       commlib::soc_library(workloads::kMpeg4CritLengthMm)},
      {"campus_lan", workloads::campus_lan(), commlib::lan_library()},
      {"noc_mesh", workloads::noc_mesh(workloads::NocMeshParams{}),
       commlib::noc_library()},
      {"mcm_board", workloads::mcm_board(), commlib::mcm_library()},
  };
  std::size_t priced = 0;
  for (const auto& entry : corpus) {
    // Every pair and triple of the first 9 arcs: linear and segmented
    // libraries, common-side and two-sided stars.
    const std::uint32_t n = static_cast<std::uint32_t>(
        std::min<std::size_t>(entry.cg.num_channels(), 9));
    std::vector<std::vector<ArcId>> subsets;
    for (std::uint32_t a = 0; a < n; ++a) {
      for (std::uint32_t b = a + 1; b < n; ++b) {
        subsets.push_back({ArcId{a}, ArcId{b}});
        for (std::uint32_t c = b + 1; c < n; ++c) {
          subsets.push_back({ArcId{a}, ArcId{b}, ArcId{c}});
        }
      }
    }
    for (const std::vector<ArcId>& subset : subsets) {
      const std::optional<MergingPlan> plan =
          price_merging(entry.cg, entry.lib, subset);
      if (!plan) continue;
      ++priced;
      const Placement want = reference_placement(entry.cg, entry.lib, subset);
      std::string where = entry.name;
      for (ArcId a : subset) where += ' ' + std::to_string(a.index());
      EXPECT_EQ(bits(plan->hub_pos.x), bits(want.hub.x)) << where;
      EXPECT_EQ(bits(plan->hub_pos.y), bits(want.hub.y)) << where;
      EXPECT_EQ(bits(plan->split_pos.x), bits(want.split.x)) << where;
      EXPECT_EQ(bits(plan->split_pos.y), bits(want.split.y)) << where;
    }
  }
  EXPECT_GT(priced, 100u);
}

}  // namespace
}  // namespace cdcs::synth
