#include <gtest/gtest.h>

#include "commlib/standard_libraries.hpp"
#include "model/validator.hpp"
#include "synth/synthesizer.hpp"

namespace cdcs::synth {
namespace {

using model::ArcId;
using model::ConstraintGraph;
using model::VertexId;

/// Source at the origin, three 15 Mbps channels to collinear targets at
/// x = 10, 20, 30 km. Per-channel 15 Mbps exceeds the 11 Mbps radio, so
/// every star spoke costs optical-rate $4000/km -- the chain (whose
/// segments reuse the same corridor) should win 120k vs 160k.
ConstraintGraph bus_instance() {
  ConstraintGraph cg;
  const VertexId s = cg.add_port("s", {0, 0});
  const VertexId t1 = cg.add_port("t1", {10, 0});
  const VertexId t2 = cg.add_port("t2", {20, 0});
  const VertexId t3 = cg.add_port("t3", {30, 0});
  cg.add_channel(s, t1, 15.0, "c1");
  cg.add_channel(s, t2, 15.0, "c2");
  cg.add_channel(s, t3, 15.0, "c3");
  return cg;
}

TEST(ChainPricer, BeatsStarOnCollinearBus) {
  const ConstraintGraph cg = bus_instance();
  const commlib::Library lib = commlib::wan_library();
  const std::vector<ArcId> subset = {ArcId{0}, ArcId{1}, ArcId{2}};

  const auto star = price_merging(cg, lib, subset);
  const auto chain = price_chain_merging(cg, lib, subset);
  ASSERT_TRUE(star.has_value());
  ASSERT_TRUE(chain.has_value());
  EXPECT_NEAR(chain->cost, 120000.0, 500.0);
  EXPECT_NEAR(star->cost, 160000.0, 500.0);
  EXPECT_LT(chain->cost, star->cost);
}

TEST(ChainPricer, OrdersDropsAlongTheCorridor) {
  const ConstraintGraph cg = bus_instance();
  const commlib::Library lib = commlib::wan_library();
  // Shuffled subset order must not matter: drops come out nearest-first.
  const auto chain =
      price_chain_merging(cg, lib, {ArcId{2}, ArcId{0}, ArcId{1}});
  ASSERT_TRUE(chain.has_value());
  ASSERT_EQ(chain->arcs.size(), 3u);
  EXPECT_EQ(chain->arcs[0], ArcId{0});  // t1 dropped first
  EXPECT_EQ(chain->arcs[1], ArcId{1});
  EXPECT_EQ(chain->arcs[2], ArcId{2});  // t3 terminates the trunk
  ASSERT_EQ(chain->drop_pos.size(), 2u);
  EXPECT_NEAR(chain->drop_pos[0].x, 10.0, 1e-6);
  EXPECT_NEAR(chain->drop_pos[1].x, 20.0, 1e-6);
  // Segment bandwidths shrink as channels drop off: 45, 30, 15.
  ASSERT_EQ(chain->segment_bandwidth.size(), 3u);
  EXPECT_DOUBLE_EQ(chain->segment_bandwidth[0], 45.0);
  EXPECT_DOUBLE_EQ(chain->segment_bandwidth[1], 30.0);
  EXPECT_DOUBLE_EQ(chain->segment_bandwidth[2], 15.0);
}

TEST(ChainPricer, TargetRootedMirror) {
  ConstraintGraph cg;
  const VertexId s1 = cg.add_port("s1", {10, 0});
  const VertexId s2 = cg.add_port("s2", {20, 0});
  const VertexId s3 = cg.add_port("s3", {30, 0});
  const VertexId t = cg.add_port("t", {0, 0});
  cg.add_channel(s1, t, 15.0);
  cg.add_channel(s2, t, 15.0);
  cg.add_channel(s3, t, 15.0);
  const auto chain = price_chain_merging(cg, commlib::wan_library(),
                                         {ArcId{0}, ArcId{1}, ArcId{2}});
  ASSERT_TRUE(chain.has_value());
  EXPECT_FALSE(chain->source_rooted);
  EXPECT_NEAR(chain->cost, 120000.0, 500.0);
}

TEST(ChainPricer, RejectsHeterogeneousEndpoints) {
  ConstraintGraph cg;
  const VertexId a = cg.add_port("a", {0, 0});
  const VertexId b = cg.add_port("b", {10, 0});
  const VertexId c = cg.add_port("c", {0, 10});
  const VertexId d = cg.add_port("d", {10, 10});
  cg.add_channel(a, b, 10.0);
  cg.add_channel(c, d, 10.0);
  EXPECT_FALSE(price_chain_merging(cg, commlib::wan_library(),
                                   {ArcId{0}, ArcId{1}})
                   .has_value());
}

TEST(ChainPricer, RejectsParallelArcs) {
  // Common source AND target: the star (shared trunk, no nodes) is the
  // canonical structure; the chain declines.
  ConstraintGraph cg;
  const VertexId a = cg.add_port("a", {0, 0});
  const VertexId b = cg.add_port("b", {10, 0});
  cg.add_channel(a, b, 10.0);
  cg.add_channel(a, b, 10.0);
  EXPECT_FALSE(price_chain_merging(cg, commlib::wan_library(),
                                   {ArcId{0}, ArcId{1}})
                   .has_value());
}

TEST(ChainPricer, RequiresDropNode) {
  const ConstraintGraph cg = bus_instance();
  commlib::Library lib("nodrop");
  lib.add_link(commlib::Link{
      .name = "l", .bandwidth = 100.0, .cost_per_length = 1.0});
  EXPECT_FALSE(price_chain_merging(cg, lib, {ArcId{0}, ArcId{1}, ArcId{2}})
                   .has_value());
}

TEST(ChainSynthesis, EndToEndSelectsChainAndValidates) {
  const ConstraintGraph cg = bus_instance();
  const commlib::Library lib = commlib::wan_library();
  const SynthesisResult result = synthesize(cg, lib).value();
  ASSERT_TRUE(result.cover.optimal);
  EXPECT_TRUE(result.validation.ok()) << (result.validation.problems.empty()
                                              ? ""
                                              : result.validation.problems[0]);
  // The chain over all three channels is the optimum.
  ASSERT_EQ(result.cover.chosen.size(), 1u);
  const Candidate& c = *result.selected().front();
  ASSERT_TRUE(std::holds_alternative<ChainPlan>(c.plan));
  EXPECT_NEAR(result.total_cost, 120000.0, 500.0);
  // Structure: two demux-capable drops materialized.
  EXPECT_EQ(result.implementation->num_comm_vertices(), 2u);
  // All three arcs classified as merged (they share trunk segment 1).
  for (std::uint32_t i = 0; i < 3; ++i) {
    EXPECT_EQ(result.implementation->classify(ArcId{i}),
              model::ImplKind::kMergedShare);
  }
}

TEST(ChainSynthesis, TargetRootedEndToEndValidates) {
  ConstraintGraph cg;
  const VertexId s1 = cg.add_port("s1", {10, 2});
  const VertexId s2 = cg.add_port("s2", {21, -1});
  const VertexId s3 = cg.add_port("s3", {30, 1});
  const VertexId t = cg.add_port("t", {0, 0});
  cg.add_channel(s1, t, 15.0);
  cg.add_channel(s2, t, 15.0);
  cg.add_channel(s3, t, 15.0);
  const commlib::Library library = commlib::wan_library();
  const SynthesisResult result = synthesize(cg, library).value();
  EXPECT_TRUE(result.validation.ok()) << (result.validation.problems.empty()
                                              ? ""
                                              : result.validation.problems[0]);
  bool used_chain = false;
  for (const Candidate* c : result.selected()) {
    if (std::holds_alternative<ChainPlan>(c->plan)) used_chain = true;
  }
  EXPECT_TRUE(used_chain);
}

TEST(ChainSynthesis, DisablingChainsFallsBackToStar) {
  const ConstraintGraph cg = bus_instance();
  const commlib::Library lib = commlib::wan_library();
  SynthesisOptions star_only_opts;
  star_only_opts.enable_chain_topology = false;
  // The Steiner tree of collinear targets IS the chain, so it must be
  // disabled too for a genuine star-only run.
  star_only_opts.enable_tree_topology = false;
  const SynthesisResult star_only = synthesize(cg, lib, star_only_opts).value();
  const SynthesisResult with_chain = synthesize(cg, lib).value();
  EXPECT_TRUE(star_only.validation.ok());
  EXPECT_GT(star_only.total_cost, with_chain.total_cost);
  for (const Candidate* c : star_only.selected()) {
    EXPECT_FALSE(std::holds_alternative<ChainPlan>(c->plan));
    EXPECT_FALSE(std::holds_alternative<TreePlan>(c->plan));
  }

  // With only chains disabled, the tree structure recovers the same cost.
  SynthesisOptions no_chain;
  no_chain.enable_chain_topology = false;
  const SynthesisResult tree_fallback = synthesize(cg, lib, no_chain).value();
  EXPECT_TRUE(tree_fallback.validation.ok());
  EXPECT_NEAR(tree_fallback.total_cost, with_chain.total_cost,
              1e-6 * with_chain.total_cost);
}

TEST(ChainSynthesis, WanStillPrefersStar) {
  // On the paper's WAN the star {a4,a5,a6} beats any chain, so enabling
  // chains must not change the Figure 4 architecture.
  const ConstraintGraph cg = [] {
    ConstraintGraph g;
    const VertexId d = g.add_port("D", {-2, -97});
    const VertexId a = g.add_port("A", {0, 0});
    const VertexId b = g.add_port("B", {4, 3});
    const VertexId c = g.add_port("C", {9, 1});
    g.add_channel(d, a, 10.0);
    g.add_channel(d, b, 10.0);
    g.add_channel(d, c, 10.0);
    return g;
  }();
  const commlib::Library lib = commlib::wan_library();
  const auto star = price_merging(cg, lib, {ArcId{0}, ArcId{1}, ArcId{2}});
  const auto chain =
      price_chain_merging(cg, lib, {ArcId{0}, ArcId{1}, ArcId{2}});
  ASSERT_TRUE(star.has_value());
  ASSERT_TRUE(chain.has_value());
  EXPECT_LT(star->cost, chain->cost);
}

}  // namespace
}  // namespace cdcs::synth
