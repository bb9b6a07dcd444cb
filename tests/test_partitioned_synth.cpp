// Synthesis-level contracts of hierarchical partitioned synthesis
// (synth/partitioned_synthesizer.hpp):
//
//   * exact fallback -- with partitioning enabled, instances at or below
//     the arc threshold take the unmodified exact pipeline, bit-identical
//     to a run with partitioning off (the whole pinned seed corpus);
//   * forced partitioned runs produce valid implementations, cost no less
//     than the exact optimum, and report a gap of at most 10% against the
//     summed cluster bound. That bound covers only the clustered
//     (restricted) problem, not the instance: on geo_wan(60, 1) it reads
//     5,942,160 against a validated monolithic cover at 4,637,841;
//   * synth.degraded_runs counts degraded cluster solves, not partitioned
//     runs as such;
//   * PartitionedDeterminism -- the stitched result is bit-identical at
//     1, 2, and 8 worker threads (this suite also runs under TSan in CI).
#include <cmath>
#include <cstdint>
#include <memory>

#include <gtest/gtest.h>

#include "baseline/baselines.hpp"
#include "commlib/standard_libraries.hpp"
#include "support/fault.hpp"
#include "support/metrics.hpp"
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
  // baseline above, and the summed cluster bound (a bound on the clustered
  // problem only) does not exceed the stitched cost.
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

// A partitioned run reports stage incumbent by design; it counts as a
// degraded run only when a cluster's own solve degraded.
TEST(PartitionedSynth, DegradedRunsCountOnlyDegradedClusters) {
  const model::ConstraintGraph cg = workloads::wan2002();
  const commlib::Library lib = commlib::wan_library();
  support::Counter& degraded =
      support::MetricsRegistry::global().counter("synth.degraded_runs");

  SynthesisOptions opts;
  opts.partitioning.enabled = true;
  opts.partitioning.arc_threshold = 1;
  opts.partitioning.max_cluster_arcs = 3;
  ASSERT_TRUE(partitioning_applies(cg, opts));

  const std::uint64_t before_clean = degraded.value();
  const SynthesisResult clean = synthesize(cg, lib, opts).value();
  EXPECT_EQ(clean.degradation.stage, SynthesisStage::kIncumbent);
  EXPECT_EQ(clean.degradation.reason.find("worst cluster rung"),
            std::string::npos);  // every cluster solved exactly
  EXPECT_EQ(degraded.value(), before_clean);

  opts.deadline = support::Deadline::after_ms(0.0);
  const std::uint64_t before_expired = degraded.value();
  const SynthesisResult expired = synthesize(cg, lib, opts).value();
  EXPECT_TRUE(expired.validation.ok());
  EXPECT_GE(degraded.value(), before_expired + 1);
}

// The stitched cover's stop is the first cluster stop that is not
// kCompleted, so a deadline that cut one cluster's solve short shows.
TEST(PartitionedSynth, StitchedStopReportsAClusterDeadline) {
  const model::ConstraintGraph cg = workloads::wan2002();
  const commlib::Library lib = commlib::wan_library();
  SynthesisOptions opts;
  opts.threads = 1;
  opts.partitioning.enabled = true;
  opts.partitioning.arc_threshold = 1;
  opts.partitioning.max_cluster_arcs = 3;
  ASSERT_TRUE(partitioning_applies(cg, opts));
  EXPECT_EQ(synthesize(cg, lib, opts).value().cover.stop,
            ucp::CoverStop::kCompleted);

  // ucp.solve hands the second cluster's solver an expired deadline.
  opts.fault_injection.injector = std::make_shared<support::FaultInjector>(
      support::FaultPlan::parse("ucp.solve@2").value());
  const SynthesisResult part = synthesize(cg, lib, opts).value();
  EXPECT_TRUE(part.validation.ok());
  EXPECT_EQ(part.cover.stop, ucp::CoverStop::kDeadline);
}

TEST(PartitionedSynth, LargeInstanceEndToEnd) {
  // A real multi-cluster instance through the public synthesize() entry:
  // valid implementation, every arc covered, gap against the summed
  // cluster bound within 10%.
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
