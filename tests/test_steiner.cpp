#include <gtest/gtest.h>

#include "geom/steiner.hpp"
#include "synth/tree_pricer.hpp"

#include "commlib/standard_libraries.hpp"
#include "model/validator.hpp"
#include "synth/synthesizer.hpp"

namespace cdcs::geom {
namespace {

SteinerGraph path_graph(int n) {
  SteinerGraph g;
  g.num_vertices = n;
  for (int i = 0; i + 1 < n; ++i) {
    g.edges.push_back({static_cast<std::size_t>(i),
                       static_cast<std::size_t>(i + 1), 1.0});
  }
  return g;
}

TEST(SteinerGraphSolver, TwoTerminalsIsShortestPath) {
  // Triangle with a shortcut: 0-1 (5), 0-2 (1), 2-1 (1).
  SteinerGraph g;
  g.num_vertices = 3;
  g.edges.push_back({0, 1, 5.0});
  g.edges.push_back({0, 2, 1.0});
  g.edges.push_back({2, 1, 1.0});
  const SteinerTree t = steiner_in_graph(g, {0, 1});
  EXPECT_DOUBLE_EQ(t.cost, 2.0);
  EXPECT_EQ(t.edges.size(), 2u);
}

TEST(SteinerGraphSolver, StarCenterIsTheSteinerPoint) {
  // Terminals at the tips of a 3-spoke star; the optimum uses the center.
  SteinerGraph g;
  g.num_vertices = 4;  // 0 center, 1..3 tips
  g.edges.push_back({0, 1, 1.0});
  g.edges.push_back({0, 2, 1.0});
  g.edges.push_back({0, 3, 1.0});
  // Expensive direct rim edges that a pairwise-path solution would use.
  g.edges.push_back({1, 2, 2.5});
  g.edges.push_back({2, 3, 2.5});
  const SteinerTree t = steiner_in_graph(g, {1, 2, 3});
  EXPECT_DOUBLE_EQ(t.cost, 3.0);
  EXPECT_EQ(t.edges.size(), 3u);
}

TEST(SteinerGraphSolver, PathGraphSpansTheRange) {
  const SteinerGraph g = path_graph(6);
  const SteinerTree t = steiner_in_graph(g, {1, 4});
  EXPECT_DOUBLE_EQ(t.cost, 3.0);
  const SteinerTree t2 = steiner_in_graph(g, {0, 3, 5});
  EXPECT_DOUBLE_EQ(t2.cost, 5.0);
}

TEST(SteinerGraphSolver, SingleTerminalIsFree) {
  const SteinerGraph g = path_graph(3);
  const SteinerTree t = steiner_in_graph(g, {1});
  EXPECT_DOUBLE_EQ(t.cost, 0.0);
  EXPECT_TRUE(t.edges.empty());
}

TEST(SteinerGraphSolver, RejectsBadInputs) {
  const SteinerGraph g = path_graph(3);
  EXPECT_THROW(steiner_in_graph(g, {}), std::invalid_argument);
  EXPECT_THROW(steiner_in_graph(g, {0, 7}), std::invalid_argument);
  EXPECT_THROW(steiner_in_graph(g, {0, 0}), std::invalid_argument);
  SteinerGraph bad = g;
  bad.edges.push_back({0, 1, -1.0});
  EXPECT_THROW(steiner_in_graph(bad, {0, 1}), std::invalid_argument);
  // Disconnected terminals.
  SteinerGraph split;
  split.num_vertices = 4;
  split.edges.push_back({0, 1, 1.0});
  split.edges.push_back({2, 3, 1.0});
  EXPECT_THROW(steiner_in_graph(split, {0, 3}), std::runtime_error);
}

TEST(HananSteiner, RectilinearCrossUsesSteinerPoint) {
  // Four terminals at the arms of a plus sign: the RSMT routes through the
  // center Hanan point, total length 4; pairwise spanning would pay 6.
  const std::vector<Point2D> terminals = {
      {0, 1}, {2, 1}, {1, 0}, {1, 2}};
  const PlanarSteinerTree t =
      steiner_tree_on_hanan_grid(terminals, Norm::kManhattan);
  EXPECT_DOUBLE_EQ(t.cost, 4.0);
  // The center (1,1) must appear as a junction vertex.
  bool center = false;
  for (const Point2D& v : t.vertices) {
    if (almost_equal(v, {1, 1})) center = true;
  }
  EXPECT_TRUE(center);
}

TEST(HananSteiner, LShapeNeedsNoSteinerPoint) {
  const std::vector<Point2D> terminals = {{0, 0}, {3, 0}, {3, 4}};
  const PlanarSteinerTree t =
      steiner_tree_on_hanan_grid(terminals, Norm::kManhattan);
  EXPECT_DOUBLE_EQ(t.cost, 7.0);
}

TEST(HananSteiner, CoincidentTerminalsShareAVertex) {
  const std::vector<Point2D> terminals = {{0, 0}, {1, 0}, {1, 0}};
  const PlanarSteinerTree t =
      steiner_tree_on_hanan_grid(terminals, Norm::kManhattan);
  EXPECT_DOUBLE_EQ(t.cost, 1.0);
  EXPECT_EQ(t.terminal_vertex[1], t.terminal_vertex[2]);
}

TEST(HananSteiner, BeatsOrMatchesStarAndChainLowerBounds) {
  // Property: the RSMT cost never exceeds the best star (sum of center-to-
  // terminal distances over any Hanan center) or any chain over terminals.
  const std::vector<Point2D> terminals = {
      {0, 0}, {4, 1}, {2, 5}, {6, 3}, {1, 3}};
  const PlanarSteinerTree t =
      steiner_tree_on_hanan_grid(terminals, Norm::kManhattan);
  // Chain in input order.
  double chain = 0.0;
  for (std::size_t i = 0; i + 1 < terminals.size(); ++i) {
    chain += distance(terminals[i], terminals[i + 1], Norm::kManhattan);
  }
  EXPECT_LE(t.cost, chain + 1e-9);
  // Star at each terminal.
  for (const Point2D& c : terminals) {
    double star = 0.0;
    for (const Point2D& p : terminals) {
      star += distance(c, p, Norm::kManhattan);
    }
    EXPECT_LE(t.cost, star + 1e-9);
  }
}

TEST(HananSteiner, NeverExceedsTerminalMst) {
  // Property: the Steiner tree is at most the minimum spanning tree of the
  // terminals (the MST is a feasible Steiner tree). Random point sets,
  // deterministic LCG.
  std::uint64_t state = 0x2545F4914F6CDD1Dull;
  auto next = [&state]() {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<double>(state >> 11) / 9007199254740992.0;
  };
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<Point2D> pts;
    const int n = 3 + trial % 5;
    for (int i = 0; i < n; ++i) {
      pts.push_back({next() * 30.0, next() * 30.0});
    }
    const PlanarSteinerTree t =
        steiner_tree_on_hanan_grid(pts, Norm::kManhattan);
    // Prim's MST over the terminal metric closure.
    std::vector<bool> in(n, false);
    std::vector<double> key(n, 1e18);
    key[0] = 0.0;
    double mst = 0.0;
    for (int it = 0; it < n; ++it) {
      int best = -1;
      for (int v = 0; v < n; ++v) {
        if (!in[v] && (best == -1 || key[v] < key[best])) best = v;
      }
      in[best] = true;
      mst += key[best];
      for (int v = 0; v < n; ++v) {
        if (!in[v]) {
          key[v] = std::min(key[v],
                            distance(pts[best], pts[v], Norm::kManhattan));
        }
      }
    }
    EXPECT_LE(t.cost, mst + 1e-9) << "trial " << trial;
    // And at least the Steiner ratio bound: RSMT >= 2/3 * MST.
    EXPECT_GE(t.cost, 2.0 / 3.0 * mst - 1e-9) << "trial " << trial;
    // Tree edge lengths sum to the reported cost.
    double sum = 0.0;
    for (const auto& e : t.edges) sum += e.length;
    EXPECT_NEAR(sum, t.cost, 1e-9);
  }
}

}  // namespace
}  // namespace cdcs::geom

namespace cdcs::synth {
namespace {

using model::ArcId;
using model::ConstraintGraph;
using model::VertexId;

TEST(TreePricer, CrossFanoutBeatsStarAndChain) {
  // Manhattan cross with an extended north arm. Under the max capacity
  // policy every edge carries the same unit bandwidth, so pricing is pure
  // length and the RSMT topology is provably the best of the three
  // structures: it shares the stem, branches at the crossing, and serves
  // the far-north target by passing through the near one.
  // (Under sum-based pricing no structure dominates universally -- trunk
  // bandwidth upgrades can favor chains; the generator prices all three.)
  ConstraintGraph cg(geom::Norm::kManhattan);
  const VertexId s = cg.add_port("s", {2, 0});
  const VertexId t1 = cg.add_port("t1", {0, 4});
  const VertexId t2 = cg.add_port("t2", {2, 6});
  const VertexId t3 = cg.add_port("t3", {4, 4});
  const VertexId t4 = cg.add_port("t4", {2, 8});
  cg.add_channel(s, t1, 1.0);
  cg.add_channel(s, t2, 1.0);
  cg.add_channel(s, t3, 1.0);
  cg.add_channel(s, t4, 1.0);
  const commlib::Library lib = commlib::noc_library(/*l_crit_mm=*/10.0);
  const std::vector<ArcId> all = {ArcId{0}, ArcId{1}, ArcId{2}, ArcId{3}};
  const auto policy = model::CapacityPolicy::kMaxPerConstraint;

  const auto tree = price_tree_merging(cg, lib, all, policy);
  const auto star = price_merging(cg, lib, all, policy);
  const auto chain = price_chain_merging(cg, lib, all, policy);
  ASSERT_TRUE(tree.has_value());
  ASSERT_TRUE(star.has_value());
  ASSERT_TRUE(chain.has_value());
  EXPECT_LT(tree->cost, star->cost);
  EXPECT_LT(tree->cost, chain->cost);
  EXPECT_TRUE(tree->source_rooted);
  // RSMT wire length is 12 mm; one branching junction plus the drop
  // junction at the pass-through terminal t2.
  double edge_len = 0.0;
  for (const auto& e : tree->edges) edge_len += e.plan.span;
  EXPECT_NEAR(edge_len, 12.0, 1e-9);
  EXPECT_TRUE(tree->drop[1].has_value());  // t2 sits at a junction
}

TEST(TreePricer, RejectsMixedEndpointsAndParallelArcs) {
  ConstraintGraph cg;
  const VertexId a = cg.add_port("a", {0, 0});
  const VertexId b = cg.add_port("b", {5, 0});
  const VertexId c = cg.add_port("c", {0, 5});
  const VertexId d = cg.add_port("d", {5, 5});
  cg.add_channel(a, b, 1.0);
  cg.add_channel(c, d, 1.0);
  cg.add_channel(a, b, 1.0);
  const commlib::Library lib = commlib::wan_library();
  EXPECT_FALSE(price_tree_merging(cg, lib, {ArcId{0}, ArcId{1}}).has_value());
  EXPECT_FALSE(price_tree_merging(cg, lib, {ArcId{0}, ArcId{2}}).has_value());
}

TEST(TreePricer, EndToEndTreeSelectionValidates) {
  // A 2-D hotspot where the tree is the natural aggregation structure.
  ConstraintGraph cg(geom::Norm::kManhattan);
  const VertexId hub = cg.add_port("mem", {2, 0});
  const VertexId a = cg.add_port("a", {0, 3});
  const VertexId b = cg.add_port("b", {2, 4});
  const VertexId c = cg.add_port("c", {4, 3});
  cg.add_channel(a, hub, 1.0);
  cg.add_channel(b, hub, 1.0);
  cg.add_channel(c, hub, 1.0);
  const commlib::Library lib = commlib::noc_library(/*l_crit_mm=*/0.6);
  synth::SynthesisOptions opts;
  opts.drop_unprofitable = true;
  const SynthesisResult result = synthesize(cg, lib, opts).value();
  EXPECT_TRUE(result.validation.ok())
      << (result.validation.problems.empty()
              ? ""
              : result.validation.problems.front());
  // Whatever structure wins, it must not lose to point-to-point; and if a
  // tree was selected, its materialization round-trips the validator.
  for (const Candidate* cand : result.selected()) {
    if (const auto* tree = std::get_if<TreePlan>(&cand->plan)) {
      EXPECT_FALSE(tree->source_rooted);  // common target
      EXPECT_GE(tree->edges.size(), cand->arcs.size());
    }
  }
}

TEST(TreePricer, DegradesToChainOnCollinearTargets) {
  // Collinear corridor: tree cost equals the chain cost (same structure).
  ConstraintGraph cg;
  const VertexId s = cg.add_port("s", {0, 0});
  const VertexId t1 = cg.add_port("t1", {10, 0});
  const VertexId t2 = cg.add_port("t2", {20, 0});
  const VertexId t3 = cg.add_port("t3", {30, 0});
  cg.add_channel(s, t1, 15.0);
  cg.add_channel(s, t2, 15.0);
  cg.add_channel(s, t3, 15.0);
  const commlib::Library lib = commlib::wan_library();
  const std::vector<ArcId> all = {ArcId{0}, ArcId{1}, ArcId{2}};
  const auto tree = price_tree_merging(cg, lib, all);
  const auto chain = price_chain_merging(cg, lib, all);
  ASSERT_TRUE(tree.has_value());
  ASSERT_TRUE(chain.has_value());
  EXPECT_NEAR(tree->cost, chain->cost, 1e-6 * chain->cost);
}

}  // namespace
}  // namespace cdcs::synth
