// Synthesis-level contracts of hierarchical partitioned synthesis
// (synth/partitioned_synthesizer.hpp):
//
//   * exact fallback -- with partitioning enabled, instances at or below
//     the arc threshold take the unmodified exact pipeline, bit-identical
//     to a run with partitioning off (the whole pinned seed corpus);
//   * forced partitioned runs produce valid implementations, an honest
//     summed lower bound, and stay within the 10% optimality-gap
//     acceptance bound of the true exact optimum on small instances;
//   * PartitionedDeterminism -- the stitched result is bit-identical at
//     1, 2, and 8 worker threads (this suite also runs under TSan in CI).
#include <cmath>

#include <gtest/gtest.h>

#include "baseline/baselines.hpp"
#include "commlib/standard_libraries.hpp"
#include "synth/partitioned_synthesizer.hpp"
#include "synth/synthesizer.hpp"
#include "workloads/lan.hpp"
#include "workloads/mcm.hpp"
#include "workloads/mpeg4_soc.hpp"
#include "workloads/scale_gen.hpp"
#include "workloads/wan2002.hpp"

namespace cdcs::synth {
namespace {

void expect_bit_identical(const SynthesisResult& a, const SynthesisResult& b,
                          const char* what) {
  EXPECT_EQ(a.total_cost, b.total_cost) << what;
  EXPECT_EQ(a.cover.cost, b.cover.cost) << what;
  EXPECT_EQ(a.cover.chosen, b.cover.chosen) << what;
  EXPECT_EQ(a.cover.nodes_explored, b.cover.nodes_explored) << what;
  ASSERT_EQ(a.candidates().size(), b.candidates().size()) << what;
  for (std::size_t i = 0; i < a.candidates().size(); ++i) {
    EXPECT_EQ(a.candidates()[i].cost, b.candidates()[i].cost)
        << what << " candidate " << i;
  }
}

TEST(PartitionedSynth, BelowThresholdIsExactPath) {
  // Every pinned seed-corpus instance sits far below the default 64-arc
  // threshold: enabling partitioning must not change one bit of the
  // result (cost, chosen columns, node counts, candidate costs).
  const struct {
    const char* name;
    model::ConstraintGraph cg;
    commlib::Library lib;
  } corpus[] = {
      {"wan2002", workloads::wan2002(), commlib::wan_library()},
      {"mpeg4_soc", workloads::mpeg4_soc(), commlib::soc_library()},
      {"campus_lan", workloads::campus_lan(), commlib::lan_library()},
      {"mcm_board", workloads::mcm_board(), commlib::mcm_library()},
  };
  for (const auto& entry : corpus) {
    ASSERT_FALSE(
        partitioning_applies(entry.cg, [] {
          SynthesisOptions o;
          o.partitioning.enabled = true;
          return o;
        }()))
        << entry.name;
    SynthesisOptions off;
    SynthesisOptions on;
    on.partitioning.enabled = true;
    const SynthesisResult exact =
        synthesize(entry.cg, entry.lib, off).value();
    const SynthesisResult fallback =
        synthesize(entry.cg, entry.lib, on).value();
    expect_bit_identical(exact, fallback, entry.name);
    EXPECT_EQ(fallback.degradation.stage, exact.degradation.stage)
        << entry.name;
  }
}

TEST(PartitionedSynth, ForcedPartitionBracketedByExactAndPointToPoint) {
  // Force the partitioned path on wan2002 (threshold 1, 3-arc clusters).
  // wan2002 is deliberately merge-heavy -- its optimal mergings span most
  // of the instance -- so tiny forced clusters DO lose real cost (which is
  // exactly why the arc_threshold fallback exists; the scaling acceptance
  // bound lives on the large geo-WAN instances where clusters align with
  // the merge structure). What must hold unconditionally: the stitch is
  // bracketed by the exact optimum below and the all-point-to-point
  // baseline above, and the summed cluster lower bound stays honest.
  const model::ConstraintGraph cg = workloads::wan2002();
  const commlib::Library lib = commlib::wan_library();
  const SynthesisResult exact = synthesize(cg, lib).value();
  const baseline::BaselineResult ptp =
      baseline::point_to_point_baseline(cg, lib);

  SynthesisOptions opts;
  opts.partitioning.enabled = true;
  opts.partitioning.arc_threshold = 1;
  opts.partitioning.max_cluster_arcs = 3;
  ASSERT_TRUE(partitioning_applies(cg, opts));
  const SynthesisResult part = synthesize(cg, lib, opts).value();

  EXPECT_TRUE(part.validation.ok());
  EXPECT_GE(part.total_cost, exact.total_cost - 1e-9);
  EXPECT_LE(part.total_cost, ptp.cost + 1e-9);
  EXPECT_GT(part.degradation.lower_bound, 0.0);
  EXPECT_LE(part.degradation.lower_bound, part.cover.cost + 1e-9);
  EXPECT_LE(part.degradation.optimality_gap, 0.10);
  EXPECT_GE(part.degradation.stage, SynthesisStage::kIncumbent);
  EXPECT_NE(part.degradation.reason.find("partitioned synthesis"),
            std::string::npos);
  EXPECT_FALSE(part.cover.optimal);  // global optimality is not proven
}

TEST(PartitionedSynth, LargeInstanceEndToEnd) {
  // A real multi-cluster instance through the public synthesize() entry:
  // valid implementation, every arc covered, honest gap.
  const model::ConstraintGraph cg =
      workloads::geo_wan(workloads::GeoWanParams::sized(150, 5));
  SynthesisOptions opts;
  opts.partitioning.enabled = true;
  const commlib::Library library = commlib::wan_library();
  const SynthesisResult r =
      synthesize(cg, library, opts).value();
  EXPECT_TRUE(r.validation.ok());
  EXPECT_GT(r.degradation.lower_bound, 0.0);
  EXPECT_LE(r.degradation.optimality_gap, 0.10);
  EXPECT_NE(r.degradation.reason.find("clusters"), std::string::npos);
}

// The acceptance contract for the parallel fan-out: the stitched result is
// a deterministic function of the instance alone, for ANY worker count.
// CI runs this suite under ThreadSanitizer as well (ci.yml tsan job).
TEST(PartitionedDeterminism, SameResultAtOneTwoEightThreads) {
  const model::ConstraintGraph cg =
      workloads::geo_wan(workloads::GeoWanParams::sized(150, 5));
  const commlib::Library lib = commlib::wan_library();
  SynthesisOptions opts;
  opts.partitioning.enabled = true;
  opts.threads = 1;
  const SynthesisResult serial = synthesize(cg, lib, opts).value();
  for (const int threads : {2, 8}) {
    opts.threads = threads;
    const SynthesisResult parallel = synthesize(cg, lib, opts).value();
    expect_bit_identical(serial, parallel, "threads");
    EXPECT_EQ(parallel.degradation.lower_bound,
              serial.degradation.lower_bound);
    EXPECT_EQ(parallel.degradation.reason, serial.degradation.reason);
  }
}

TEST(PartitionedDeterminism, FatTreeAcrossThreads) {
  const model::ConstraintGraph cg =
      workloads::fat_tree_traffic(workloads::FatTreeParams::sized(120, 3));
  const commlib::Library lib = commlib::wan_library();
  SynthesisOptions opts;
  opts.partitioning.enabled = true;
  opts.partitioning.arc_threshold = 32;
  opts.threads = 1;
  const SynthesisResult serial = synthesize(cg, lib, opts).value();
  EXPECT_TRUE(serial.validation.ok());
  opts.threads = 8;
  const SynthesisResult parallel = synthesize(cg, lib, opts).value();
  expect_bit_identical(serial, parallel, "fat_tree");
}

}  // namespace
}  // namespace cdcs::synth
