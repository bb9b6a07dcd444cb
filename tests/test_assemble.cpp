#include <gtest/gtest.h>

#include "commlib/standard_libraries.hpp"
#include "io/report.hpp"
#include "model/validator.hpp"
#include "synth/assemble.hpp"
#include "synth/candidate_generator.hpp"
#include "synth/synthesizer.hpp"

namespace cdcs::synth {
namespace {

using model::ArcId;
using model::ConstraintGraph;
using model::VertexId;

TEST(Assemble, SegmentationPlacesRepeatersEvenly) {
  ConstraintGraph cg(geom::Norm::kManhattan);
  const VertexId u = cg.add_port("u", {0, 0});
  const VertexId v = cg.add_port("v", {1.5, 0.3});  // 1.8 mm -> 3 wires
  cg.add_channel(u, v, 1.0);
  const commlib::Library lib = commlib::soc_library(0.6);
  const SynthesisResult result = synthesize(cg, lib).value();
  const auto& impl = *result.implementation;
  ASSERT_EQ(impl.num_comm_vertices(), 2u);  // 2 repeaters
  // Repeaters at 1/3 and 2/3 of the straight segment.
  const VertexId r1{2}, r2{3};
  EXPECT_TRUE(impl.is_communication(r1));
  EXPECT_NEAR(impl.position(r1).x, 0.5, 1e-9);
  EXPECT_NEAR(impl.position(r1).y, 0.1, 1e-9);
  EXPECT_NEAR(impl.position(r2).x, 1.0, 1e-9);
  // Each wire spans exactly 0.6 mm.
  for (std::size_t i = 0; i < impl.num_link_arcs(); ++i) {
    EXPECT_NEAR(impl.arc_span(ArcId{static_cast<std::uint32_t>(i)}), 0.6,
                1e-9);
  }
  // Path shape: one path with 3 arcs.
  const auto& paths = impl.arc_implementation(ArcId{0});
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_EQ(paths[0].arcs.size(), 3u);
  EXPECT_EQ(impl.classify(ArcId{0}), model::ImplKind::kSegmentation);
}

TEST(Assemble, DuplicationRegistersParallelPathsAndAccounting) {
  ConstraintGraph cg;
  const VertexId u = cg.add_port("u", {0, 0});
  const VertexId v = cg.add_port("v", {1.0, 0});
  cg.add_channel(u, v, 25.0);  // needs 3 radios or optical; make radios win
  commlib::Library lib("radios");
  lib.add_link(commlib::Link{
      .name = "radio", .bandwidth = 11.0, .cost_per_length = 2000.0});
  lib.add_node(commlib::Node{
      .name = "mux", .kind = commlib::NodeKind::kMux, .cost = 5.0});
  lib.add_node(commlib::Node{
      .name = "demux", .kind = commlib::NodeKind::kDemux, .cost = 5.0});
  const SynthesisResult result = synthesize(cg, lib).value();
  const auto& impl = *result.implementation;
  // 3 parallel links, plus mux+demux accounting vertices.
  EXPECT_EQ(impl.num_link_arcs(), 3u);
  EXPECT_EQ(impl.count_nodes(commlib::NodeKind::kMux), 1u);
  EXPECT_EQ(impl.count_nodes(commlib::NodeKind::kDemux), 1u);
  EXPECT_EQ(impl.arc_implementation(ArcId{0}).size(), 3u);
  EXPECT_EQ(impl.classify(ArcId{0}), model::ImplKind::kDuplication);
  // Def 2.5 cost: 3 links + both bundle nodes.
  EXPECT_NEAR(result.total_cost, 3 * 2000.0 + 10.0, 1e-6);
  EXPECT_TRUE(result.validation.ok());
}

TEST(Assemble, MergingSharesTrunkArcsAcrossConstraints) {
  // WAN star: a4/a5/a6 paths must share the identical trunk arc ids.
  ConstraintGraph cg;
  const VertexId d = cg.add_port("D", {-2, -97});
  const VertexId a = cg.add_port("A", {0, 0});
  const VertexId b = cg.add_port("B", {4, 3});
  const VertexId c = cg.add_port("C", {9, 1});
  cg.add_channel(d, a, 10.0);
  cg.add_channel(d, b, 10.0);
  cg.add_channel(d, c, 10.0);
  const commlib::Library library = commlib::wan_library();
  const SynthesisResult result = synthesize(cg, library).value();
  const auto& impl = *result.implementation;
  const auto& p0 = impl.arc_implementation(ArcId{0});
  const auto& p1 = impl.arc_implementation(ArcId{1});
  ASSERT_FALSE(p0.empty());
  ASSERT_FALSE(p1.empty());
  // First arc of each path is the shared trunk link out of chi(D).
  EXPECT_EQ(p0[0].arcs.front(), p1[0].arcs.front());
  // Trunk first, then the spoke: every path has exactly 2 arcs.
  EXPECT_EQ(p0[0].arcs.size(), 2u);
  EXPECT_TRUE(result.validation.ok());
}

TEST(Assemble, ThrowsWhenCoverIncomplete) {
  ConstraintGraph cg;
  const VertexId u = cg.add_port("u", {0, 0});
  const VertexId v = cg.add_port("v", {1, 0});
  cg.add_channel(u, v, 1.0);
  cg.add_channel(v, u, 1.0);
  const commlib::Library lib = commlib::wan_library();
  const CandidateSet set = generate_candidates(cg, lib, {}).value();
  // Select only the first singleton: arc 2 uncovered.
  EXPECT_THROW(assemble(cg, lib, set.candidates, {0}), std::invalid_argument);
}

TEST(Assemble, OverlappingCoverIsLegalIfWasteful) {
  ConstraintGraph cg;
  const VertexId u = cg.add_port("u", {0, 0});
  const VertexId v = cg.add_port("v", {10, 0});
  cg.add_channel(u, v, 10.0);
  cg.add_channel(u, v, 10.0);
  const commlib::Library lib = commlib::wan_library();
  const CandidateSet set = generate_candidates(cg, lib, {}).value();
  // Take both singletons AND the 2-way merging: arcs covered twice.
  std::vector<std::size_t> chosen;
  for (std::size_t i = 0; i < set.candidates.size(); ++i) chosen.push_back(i);
  const auto impl = assemble(cg, lib, set.candidates, chosen);
  const auto report = model::validate(*impl);
  EXPECT_TRUE(report.ok()) << (report.problems.empty()
                                   ? ""
                                   : report.problems.front());
  // Each arc has paths from its singleton and from the merging.
  EXPECT_GE(impl->arc_implementation(ArcId{0}).size(), 2u);
}

TEST(Report, DescribeCandidateMentionsStructure) {
  const ConstraintGraph cg = [] {
    ConstraintGraph g;
    const VertexId s = g.add_port("s", {0, 0});
    const VertexId t1 = g.add_port("t1", {10, 0});
    const VertexId t2 = g.add_port("t2", {20, 0});
    g.add_channel(s, t1, 15.0);
    g.add_channel(s, t2, 15.0);
    return g;
  }();
  const commlib::Library lib = commlib::wan_library();
  const SynthesisResult result = synthesize(cg, lib).value();
  const std::string report = io::describe(result, cg, lib);
  EXPECT_NE(report.find("Selected implementation"), std::string::npos);
  EXPECT_NE(report.find("Validation: PASS"), std::string::npos);
  // A chain or merge should be described with its structure keyword.
  const bool mentions_structure =
      report.find("chain-merge") != std::string::npos ||
      report.find("merge {") != std::string::npos ||
      report.find("point-to-point") != std::string::npos;
  EXPECT_TRUE(mentions_structure);
}

}  // namespace
}  // namespace cdcs::synth
