#include <gtest/gtest.h>

#include "commlib/standard_libraries.hpp"
#include "synth/synthesizer.hpp"
#include "workloads/noc_mesh.hpp"

namespace cdcs::workloads {
namespace {

TEST(NocMesh, NeighborTrafficShape) {
  NocMeshParams p;
  p.rows = 3;
  p.cols = 4;
  p.traffic = NocTraffic::kNeighbor;
  const model::ConstraintGraph cg = noc_mesh(p);
  EXPECT_EQ(cg.num_ports(), 12u);
  // East channels: 3 rows x 3, south channels: 2 x 4.
  EXPECT_EQ(cg.num_channels(), 9u + 8u);
  EXPECT_EQ(cg.norm(), geom::Norm::kManhattan);
  // Every neighbor channel spans exactly one tile pitch.
  for (model::ArcId a : cg.arcs()) {
    EXPECT_NEAR(cg.distance(a), p.tile_pitch_mm, 1e-12);
  }
}

TEST(NocMesh, HotspotTargetsTheController) {
  NocMeshParams p;
  p.rows = 4;
  p.cols = 4;
  p.traffic = NocTraffic::kHotspotMemory;
  const model::ConstraintGraph cg = noc_mesh(p);
  EXPECT_EQ(cg.num_channels(), 15u);  // every tile but the controller
  const model::VertexId controller = cg.target(model::ArcId{0});
  EXPECT_EQ(cg.port(controller).name, "tile_3_2");
  for (model::ArcId a : cg.arcs()) {
    EXPECT_EQ(cg.target(a), controller);
    EXPECT_NE(cg.source(a), controller);
  }
}

TEST(NocMesh, BitComplementPairsTiles) {
  NocMeshParams p;
  p.rows = 4;
  p.cols = 4;
  p.traffic = NocTraffic::kBitComplement;
  const model::ConstraintGraph cg = noc_mesh(p);
  EXPECT_EQ(cg.num_channels(), 16u);  // no tile is its own complement
  for (model::ArcId a : cg.arcs()) {
    const geom::Point2D u = cg.position(cg.source(a));
    const geom::Point2D v = cg.position(cg.target(a));
    // Complement pairs are point-symmetric about the grid center.
    EXPECT_NEAR(u.x + v.x, 3 * p.tile_pitch_mm, 1e-9);
    EXPECT_NEAR(u.y + v.y, 3 * p.tile_pitch_mm, 1e-9);
  }
}

TEST(NocMesh, OddGridCenterTileSkipsSelfChannel) {
  NocMeshParams p;
  p.rows = 3;
  p.cols = 3;
  p.traffic = NocTraffic::kBitComplement;
  const model::ConstraintGraph cg = noc_mesh(p);
  EXPECT_EQ(cg.num_channels(), 8u);  // center tile maps to itself
}

TEST(NocMesh, RejectsTinyGrids) {
  NocMeshParams p;
  p.rows = 1;
  EXPECT_THROW(noc_mesh(p), std::invalid_argument);
}

TEST(NocMesh, HotspotSynthesisMergesAndValidates) {
  NocMeshParams p;
  p.rows = 3;
  p.cols = 3;
  p.traffic = NocTraffic::kHotspotMemory;
  const model::ConstraintGraph cg = noc_mesh(p);
  const commlib::Library lib = commlib::noc_library();
  synth::SynthesisOptions opts;
  opts.drop_unprofitable = true;
  opts.max_merge_k = 4;
  const synth::SynthesisResult result = synth::synthesize(cg, lib, opts).value();
  EXPECT_TRUE(result.validation.ok());
  std::size_t merged = 0;
  for (const synth::Candidate* c : result.selected()) {
    if (!std::holds_alternative<synth::PtpPlan>(c->plan)) ++merged;
  }
  EXPECT_GT(merged, 0u);
}

TEST(NocLibrary, BusEconomyOfScale) {
  const commlib::Library lib = commlib::noc_library();
  const commlib::Link& wire = lib.link(*lib.find_link("wire"));
  const commlib::Link& bus = lib.link(*lib.find_link("bus4"));
  // The bundle is cheaper per unit bandwidth but pricier per instance.
  EXPECT_LT(bus.cost_per_length / bus.bandwidth,
            wire.cost_per_length / wire.bandwidth);
  EXPECT_GT(bus.cost_per_length, wire.cost_per_length);
  EXPECT_TRUE(lib.validate().empty());
}

}  // namespace
}  // namespace cdcs::workloads
