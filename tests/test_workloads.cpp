#include <cmath>
#include <cstdint>

#include <gtest/gtest.h>

#include "baseline/baselines.hpp"
#include "commlib/standard_libraries.hpp"
#include "synth/synthesizer.hpp"
#include "workloads/fingerprint.hpp"
#include "workloads/lan.hpp"
#include "workloads/mcm.hpp"
#include "workloads/mpeg4_soc.hpp"
#include "workloads/noc_mesh.hpp"
#include "workloads/random_gen.hpp"
#include "workloads/scale_gen.hpp"
#include "workloads/wan2002.hpp"

namespace cdcs::workloads {
namespace {

TEST(Wan2002, StructureMatchesReconstruction) {
  const model::ConstraintGraph cg = wan2002();
  EXPECT_EQ(cg.num_ports(), 5u);
  EXPECT_EQ(cg.num_channels(), 8u);
  EXPECT_EQ(cg.norm(), geom::Norm::kEuclidean);
  EXPECT_TRUE(cg.validate().empty());

  // Arc lengths against the closed forms of the reconstruction.
  const double expected[] = {5.0,
                             std::sqrt(29.0),
                             std::sqrt(82.0),
                             std::sqrt(9413.0),
                             std::sqrt(10036.0),
                             std::sqrt(9725.0),
                             std::sqrt(13.0),
                             std::sqrt(13.0)};
  for (std::uint32_t i = 0; i < 8; ++i) {
    EXPECT_NEAR(cg.distance(model::ArcId{i}), expected[i], 1e-12)
        << "a" << i + 1;
    EXPECT_DOUBLE_EQ(cg.bandwidth(model::ArcId{i}), kWanBandwidthMbps);
  }
  // a7 and a8 are the two directions between D and E.
  EXPECT_EQ(cg.port(cg.source(model::ArcId{6})).name, "D");
  EXPECT_EQ(cg.port(cg.target(model::ArcId{6})).name, "E");
  EXPECT_EQ(cg.port(cg.source(model::ArcId{7})).name, "E");
  EXPECT_EQ(cg.port(cg.target(model::ArcId{7})).name, "D");
}

TEST(Mpeg4Soc, TotalsFiftyFivePaperCosts) {
  const model::ConstraintGraph cg = mpeg4_soc();
  EXPECT_EQ(cg.norm(), geom::Norm::kManhattan);
  EXPECT_EQ(cg.num_ports(), 10u);
  EXPECT_EQ(cg.num_channels(), 14u);
  std::size_t total = 0;
  for (model::ArcId a : cg.arcs()) {
    const double d = cg.distance(a);
    total += static_cast<std::size_t>(std::floor(d / kMpeg4CritLengthMm));
    // No channel sits exactly on a multiple of l_crit (keeps the paper's
    // floor() cost and the physical ceil()-1 repeater count identical).
    EXPECT_GT(std::fmod(d + 1e-12, kMpeg4CritLengthMm), 1e-6) << "channel "
        << cg.channel(a).name;
    // Every critical channel needs at least one repeater.
    EXPECT_GT(d, kMpeg4CritLengthMm);
  }
  EXPECT_EQ(total, 55u);
}

TEST(CampusLan, ShapesAndUnits) {
  const model::ConstraintGraph cg = campus_lan();
  EXPECT_EQ(cg.num_ports(), 6u);
  EXPECT_EQ(cg.num_channels(), 10u);
  EXPECT_TRUE(cg.validate().empty());
  // The mirroring channel is the big one.
  bool found = false;
  for (model::ArcId a : cg.arcs()) {
    if (cg.channel(a).name == "dc->backup") {
      EXPECT_DOUBLE_EQ(cg.bandwidth(a), 2000.0);
      EXPECT_LT(cg.distance(a), 20.0);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(McmBoard, ShapeAndSynthesis) {
  const model::ConstraintGraph cg = mcm_board();
  EXPECT_EQ(cg.num_ports(), 4u);
  EXPECT_EQ(cg.num_channels(), 10u);
  EXPECT_TRUE(cg.validate().empty());
  // Coherence channels exceed the 8 GB/s PCB bundle: the synthesizer must
  // either bundle traces or use serdes, never fail.
  const commlib::Library lib = commlib::mcm_library();
  const synth::SynthesisResult result = synth::synthesize(cg, lib).value();
  EXPECT_TRUE(result.validation.ok());
  const baseline::BaselineResult ptp =
      baseline::point_to_point_baseline(cg, lib);
  EXPECT_LE(result.total_cost, ptp.cost + 1e-9);
}

TEST(RandomWorkload, DeterministicForSeed) {
  RandomWorkloadParams p;
  p.seed = 42;
  const model::ConstraintGraph a = random_workload(p);
  const model::ConstraintGraph b = random_workload(p);
  ASSERT_EQ(a.num_channels(), b.num_channels());
  for (model::ArcId arc : a.arcs()) {
    EXPECT_DOUBLE_EQ(a.distance(arc), b.distance(arc));
    EXPECT_DOUBLE_EQ(a.bandwidth(arc), b.bandwidth(arc));
  }
  p.seed = 43;
  const model::ConstraintGraph c = random_workload(p);
  bool any_diff = false;
  for (model::ArcId arc : a.arcs()) {
    if (std::abs(a.distance(arc) - c.distance(arc)) > 1e-12) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(RandomWorkload, HonorsParameters) {
  RandomWorkloadParams p;
  p.num_clusters = 4;
  p.ports_per_cluster = 2;
  p.num_channels = 9;
  p.min_bandwidth = 3.0;
  p.max_bandwidth = 4.0;
  p.norm = geom::Norm::kManhattan;
  const model::ConstraintGraph cg = random_workload(p);
  EXPECT_EQ(cg.num_ports(), 8u);
  EXPECT_EQ(cg.num_channels(), 9u);
  EXPECT_EQ(cg.norm(), geom::Norm::kManhattan);
  for (model::ArcId a : cg.arcs()) {
    EXPECT_GE(cg.bandwidth(a), 3.0);
    EXPECT_LE(cg.bandwidth(a), 4.0);
  }
  EXPECT_TRUE(cg.validate().empty());
}

TEST(RandomWorkload, SingleClusterHasNoInterTraffic) {
  RandomWorkloadParams p;
  p.num_clusters = 1;
  p.ports_per_cluster = 5;
  p.num_channels = 6;
  p.inter_cluster_fraction = 1.0;  // must degrade gracefully
  const model::ConstraintGraph cg = random_workload(p);
  EXPECT_EQ(cg.num_channels(), 6u);
}

// --- Pinned generator fingerprints (workloads/fingerprint.hpp) ----------
// Every generator's full construction-visible output (norm, port names and
// position bit patterns, arc endpoints, bandwidth bit patterns) is pinned:
// ANY drift -- a nudged coordinate, a reordered arc, a renamed port --
// fails here loudly instead of silently shifting the benchmark baselines
// (the partitioned-scaling cost pinned by
// KernelIdentity.PartitionedGeoWan1000Seed7 holds on every machine only
// while the inputs are bit-stable).

TEST(GeneratorFingerprints, HandWrittenCorpusPinned) {
  EXPECT_EQ(fingerprint(wan2002()), 0xf48331dac8e45094ull);
  EXPECT_EQ(fingerprint(mpeg4_soc()), 0x45af6710eb10ea3eull);
  EXPECT_EQ(fingerprint(campus_lan()), 0x3d7f37732267ed5cull);
  EXPECT_EQ(fingerprint(mcm_board()), 0x05191521fd679af6ull);
}

TEST(GeneratorFingerprints, NocMeshPinned) {
  EXPECT_EQ(fingerprint(noc_mesh(NocMeshParams{})), 0xf645c1d269b2f0a3ull);
  NocMeshParams big;
  big.rows = 16;
  big.cols = 16;
  EXPECT_EQ(fingerprint(noc_mesh(big)), 0xb116193616e1cca8ull);
  // 16x16 is only constructible since the channel-name separator fix in
  // noc_mesh.cpp; pin that large meshes stay duplicate-free.
  EXPECT_TRUE(noc_mesh(big).validate().empty());
}

TEST(GeneratorFingerprints, ScaleGeneratorsPinned) {
  // splitmix64-based (portable across standard libraries and platforms:
  // scale_gen.hpp documents why these never use std::*_distribution).
  EXPECT_EQ(fingerprint(geo_wan(GeoWanParams{})), 0xf35df1887b3de0efull);
  EXPECT_EQ(fingerprint(geo_wan(GeoWanParams::sized(100, 7))),
            0xcd0d68ef8181e651ull);
  EXPECT_EQ(fingerprint(geo_wan(GeoWanParams::sized(1000, 7))),
            0x65b4e049bc0a41e8ull);
  EXPECT_EQ(fingerprint(fat_tree_traffic(FatTreeParams{})),
            0xb7052aed43b93a1full);
  EXPECT_EQ(fingerprint(fat_tree_traffic(FatTreeParams::sized(500, 3))),
            0xdbab2298fe390c2bull);
}

#ifdef __GLIBCXX__
TEST(GeneratorFingerprints, RandomWorkloadPinnedPerStdlib) {
  // random_gen draws through std::mt19937_64 + std::*_distribution, whose
  // exact output is standard-library specific (random_gen.hpp documents
  // the caveat) -- so this pin is guarded: it holds for libstdc++, the
  // toolchain every CI job uses.
  RandomWorkloadParams p;
  p.seed = 42;
  EXPECT_EQ(fingerprint(random_workload(p)), 0x25f9fcea8afbe800ull);
}
#endif

TEST(ScaleGen, GeoWanSizedHitsExactArcCountAndIsSeedDeterministic) {
  for (const std::size_t arcs : {std::size_t{100}, std::size_t{500},
                                 std::size_t{1000}}) {
    const model::ConstraintGraph cg = geo_wan(GeoWanParams::sized(arcs, 7));
    EXPECT_EQ(cg.num_channels(), arcs);
    EXPECT_TRUE(cg.validate().empty());
  }
  EXPECT_EQ(fingerprint(geo_wan(GeoWanParams::sized(200, 3))),
            fingerprint(geo_wan(GeoWanParams::sized(200, 3))));
  EXPECT_NE(fingerprint(geo_wan(GeoWanParams::sized(200, 3))),
            fingerprint(geo_wan(GeoWanParams::sized(200, 4))));
}

TEST(ScaleGen, FatTreeSizedHitsExactArcCountAndIsSeedDeterministic) {
  for (const std::size_t arcs : {std::size_t{120}, std::size_t{500}}) {
    const model::ConstraintGraph cg =
        fat_tree_traffic(FatTreeParams::sized(arcs, 3));
    EXPECT_EQ(cg.num_channels(), arcs);
    EXPECT_TRUE(cg.validate().empty());
  }
  EXPECT_EQ(fingerprint(fat_tree_traffic(FatTreeParams::sized(150, 1))),
            fingerprint(fat_tree_traffic(FatTreeParams::sized(150, 1))));
  EXPECT_NE(fingerprint(fat_tree_traffic(FatTreeParams::sized(150, 1))),
            fingerprint(fat_tree_traffic(FatTreeParams::sized(150, 2))));
}

TEST(ScaleGen, GeoWanStructure) {
  const GeoWanParams p = GeoWanParams::sized(100, 7);
  const model::ConstraintGraph cg = geo_wan(p);
  EXPECT_EQ(cg.num_ports(), p.sites * p.ports_per_site);
  for (model::ArcId a : cg.arcs()) {
    EXPECT_NE(cg.source(a).index(), cg.target(a).index());
    EXPECT_GE(cg.bandwidth(a), p.min_bandwidth);
    EXPECT_LE(cg.bandwidth(a), p.max_bandwidth);
  }
}

}  // namespace
}  // namespace cdcs::workloads
