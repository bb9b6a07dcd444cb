#include <gtest/gtest.h>

#include <type_traits>
#include <utility>

#include "baseline/baselines.hpp"
#include "commlib/standard_libraries.hpp"
#include "model/implementation_graph.hpp"
#include "synth/synthesizer.hpp"
#include "workloads/mpeg4_soc.hpp"
#include "workloads/random_gen.hpp"
#include "workloads/wan2002.hpp"

namespace cdcs::synth {
namespace {

// True when synthesize() accepts a library of value category `Lib`, with
// and without explicit options.
template <typename Lib>
constexpr bool kSynthesizeAccepts =
    requires(const model::ConstraintGraph& cg, const SynthesisOptions& opts) {
      synthesize(cg, std::declval<Lib>());
      synthesize(cg, std::declval<Lib>(), opts);
    };

// The result's implementation graph keeps a pointer to the library, so a
// temporary library would leave it dangling once the call's statement ends.
// Those calls do not compile.
TEST(Synthesizer, TemporaryLibraryDoesNotCompile) {
  static_assert(kSynthesizeAccepts<const commlib::Library&>);
  static_assert(kSynthesizeAccepts<commlib::Library&>);
  static_assert(!kSynthesizeAccepts<commlib::Library>);
  static_assert(!kSynthesizeAccepts<const commlib::Library>);
  static_assert(std::is_constructible_v<model::ImplementationGraph,
                                        const model::ConstraintGraph&,
                                        const commlib::Library&>);
  static_assert(!std::is_constructible_v<model::ImplementationGraph,
                                         const model::ConstraintGraph&,
                                         commlib::Library>);
}

// True when synthesize() accepts a constraint graph of value category
// `Graph` (with a named library), with and without explicit options.
template <typename Graph>
constexpr bool kSynthesizeAcceptsGraph =
    requires(const commlib::Library& lib, const SynthesisOptions& opts) {
      synthesize(std::declval<Graph>(), lib);
      synthesize(std::declval<Graph>(), lib, opts);
    };

// The implementation graph keeps a pointer to the constraint graph too, so
// a temporary graph does not compile either.
TEST(Synthesizer, TemporaryGraphDoesNotCompile) {
  static_assert(kSynthesizeAcceptsGraph<const model::ConstraintGraph&>);
  static_assert(kSynthesizeAcceptsGraph<model::ConstraintGraph&>);
  static_assert(!kSynthesizeAcceptsGraph<model::ConstraintGraph>);
  static_assert(!kSynthesizeAcceptsGraph<const model::ConstraintGraph>);
  static_assert(std::is_constructible_v<model::ImplementationGraph,
                                        const model::ConstraintGraph&,
                                        const commlib::Library&>);
  static_assert(!std::is_constructible_v<model::ImplementationGraph,
                                         model::ConstraintGraph,
                                         const commlib::Library&>);
}

TEST(Synthesizer, WanReproducesFigure4) {
  const model::ConstraintGraph cg = workloads::wan2002();
  const commlib::Library lib = commlib::wan_library();
  const SynthesisResult result = synthesize(cg, lib).value();

  EXPECT_TRUE(result.cover.optimal);
  EXPECT_TRUE(result.validation.ok());

  // Exactly one merging: {a4, a5, a6} on the optical link; rest radio.
  std::size_t mergings = 0;
  for (const Candidate* c : result.selected()) {
    if (const auto* m = std::get_if<MergingPlan>(&c->plan)) {
      ++mergings;
      ASSERT_EQ(c->arcs.size(), 3u);
      EXPECT_EQ(c->arcs[0].index(), 3u);
      EXPECT_EQ(c->arcs[1].index(), 4u);
      EXPECT_EQ(c->arcs[2].index(), 5u);
      EXPECT_EQ(lib.link(m->trunk->link).name, "optical");
    } else {
      EXPECT_EQ(lib.link(std::get<PtpPlan>(c->plan).link).name, "radio");
    }
  }
  EXPECT_EQ(mergings, 1u);

  // The merged architecture saves substantially over point-to-point.
  const baseline::BaselineResult ptp =
      baseline::point_to_point_baseline(cg, lib);
  EXPECT_LT(result.total_cost, ptp.cost - 100000.0);

  // Def 2.5 total equals the sum of the chosen candidates' costs (no
  // inter-candidate sharing in this instance).
  double chosen_sum = 0.0;
  for (const Candidate* c : result.selected()) chosen_sum += c->cost;
  EXPECT_NEAR(result.total_cost, chosen_sum, 1.0);
}

TEST(Synthesizer, WanClassifiesStructures) {
  const model::ConstraintGraph cg = workloads::wan2002();
  const commlib::Library lib = commlib::wan_library();
  const SynthesisResult result = synthesize(cg, lib).value();
  const auto& impl = *result.implementation;
  // a4, a5, a6 (indices 3..5) share the optical trunk -> merged; the other
  // five arcs are plain matchings.
  for (std::uint32_t i = 0; i < 8; ++i) {
    const model::ImplKind kind = impl.classify(model::ArcId{i});
    if (i >= 3 && i <= 5) {
      EXPECT_EQ(kind, model::ImplKind::kMergedShare) << "arc " << i;
    } else {
      EXPECT_EQ(kind, model::ImplKind::kMatching) << "arc " << i;
    }
  }
  // One junction node (the split) was instantiated.
  EXPECT_EQ(impl.count_nodes(commlib::NodeKind::kSwitch), 1u);
}

TEST(Synthesizer, Soc55Repeaters) {
  const model::ConstraintGraph cg = workloads::mpeg4_soc();
  const commlib::Library lib = commlib::soc_library(0.6);
  const SynthesisResult result = synthesize(cg, lib).value();
  EXPECT_TRUE(result.cover.optimal);
  EXPECT_TRUE(result.validation.ok());
  EXPECT_EQ(result.implementation->count_nodes(commlib::NodeKind::kRepeater),
            55u);
  EXPECT_DOUBLE_EQ(result.total_cost, 55.0);
  // Pure segmentation: every selected candidate is point-to-point.
  for (const Candidate* c : result.selected()) {
    const auto* p = std::get_if<PtpPlan>(&c->plan);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(p->parallel, 1);
  }
}

TEST(Synthesizer, MaxPolicyChangesWanOptimum) {
  // Under the literal Def 2.8 capacity reading, radio trunks can be shared
  // freely, so merging gets much cheaper than Figure 4's optical solution.
  const model::ConstraintGraph cg = workloads::wan2002();
  const commlib::Library lib = commlib::wan_library();
  SynthesisOptions opts;
  opts.policy = model::CapacityPolicy::kMaxPerConstraint;
  const SynthesisResult max_result = synthesize(cg, lib, opts).value();
  const SynthesisResult sum_result = synthesize(cg, lib).value();
  EXPECT_LT(max_result.total_cost, sum_result.total_cost);
  EXPECT_TRUE(
      model::validate(*max_result.implementation,
                      model::CapacityPolicy::kMaxPerConstraint)
          .ok());
}

TEST(Synthesizer, SelectedCandidatesCoverEveryArcOnce) {
  const model::ConstraintGraph cg = workloads::wan2002();
  const commlib::Library lib = commlib::wan_library();
  const SynthesisResult result = synthesize(cg, lib).value();
  std::vector<int> covered(cg.num_channels(), 0);
  for (const Candidate* c : result.selected()) {
    for (model::ArcId a : c->arcs) ++covered[a.index()];
  }
  for (int count : covered) EXPECT_EQ(count, 1);  // positive costs -> no overlap
}

// End-to-end exactness: on random small instances, the full pipeline must
// match the exhaustive partition optimum, with and without pruning, and the
// greedy baseline must never beat it.
class RandomExactness : public ::testing::TestWithParam<int> {};

TEST_P(RandomExactness, PipelineMatchesExhaustive) {
  workloads::RandomWorkloadParams params;
  params.seed = static_cast<std::uint64_t>(GetParam()) * 7919 + 3;
  params.num_clusters = 2;
  params.ports_per_cluster = 3;
  params.num_channels = 6;
  params.cluster_radius = 4.0;
  params.area_extent = 120.0;
  const model::ConstraintGraph cg = workloads::random_workload(params);
  const commlib::Library lib = commlib::wan_library();

  const baseline::BaselineResult exhaustive =
      baseline::exhaustive_partition_optimum(cg, lib);

  const SynthesisResult pruned = synthesize(cg, lib).value();
  ASSERT_TRUE(pruned.cover.optimal);
  EXPECT_TRUE(pruned.validation.ok());
  EXPECT_NEAR(pruned.total_cost, exhaustive.cost,
              1e-6 * std::max(1.0, exhaustive.cost))
      << "pruned pipeline lost the optimum (seed " << params.seed << ")";

  SynthesisOptions no_pruning;
  no_pruning.use_lemma31 = false;
  no_pruning.use_lemma32 = false;
  no_pruning.use_theorem31 = false;
  no_pruning.use_theorem32 = false;
  const SynthesisResult full = synthesize(cg, lib, no_pruning).value();
  EXPECT_NEAR(full.total_cost, exhaustive.cost,
              1e-6 * std::max(1.0, exhaustive.cost))
      << "unpruned pipeline disagrees (seed " << params.seed << ")";

  const baseline::BaselineResult greedy =
      baseline::greedy_merge_baseline(cg, lib);
  EXPECT_GE(greedy.cost, exhaustive.cost - 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomExactness, ::testing::Range(0, 8));

// The strong (every-pivot) rule must also preserve the optimum.
class StrongPruningExactness : public ::testing::TestWithParam<int> {};

TEST_P(StrongPruningExactness, AnyPivotKeepsOptimum) {
  workloads::RandomWorkloadParams params;
  params.seed = static_cast<std::uint64_t>(GetParam()) * 104729 + 11;
  params.num_clusters = 2;
  params.ports_per_cluster = 2;
  params.num_channels = 5;
  const model::ConstraintGraph cg = workloads::random_workload(params);
  const commlib::Library lib = commlib::wan_library();

  SynthesisOptions strong;
  strong.pivot_rule = PivotRule::kAnyPivot;
  const SynthesisResult result = synthesize(cg, lib, strong).value();
  const baseline::BaselineResult exhaustive =
      baseline::exhaustive_partition_optimum(cg, lib);
  EXPECT_NEAR(result.total_cost, exhaustive.cost,
              1e-6 * std::max(1.0, exhaustive.cost));
}

INSTANTIATE_TEST_SUITE_P(Seeds, StrongPruningExactness, ::testing::Range(0, 6));

TEST(Synthesizer, ValidatesUnderBothPoliciesWhenSumPolicyUsed) {
  const model::ConstraintGraph cg = workloads::wan2002();
  const commlib::Library lib = commlib::wan_library();
  const SynthesisResult result = synthesize(cg, lib).value();
  // Sum-feasible implies max-feasible.
  EXPECT_TRUE(model::validate(*result.implementation,
                              model::CapacityPolicy::kSharedSum)
                  .ok());
  EXPECT_TRUE(model::validate(*result.implementation,
                              model::CapacityPolicy::kMaxPerConstraint)
                  .ok());
}

TEST(Synthesizer, EmptyConstraintGraph) {
  const model::ConstraintGraph cg;
  const commlib::Library lib = commlib::wan_library();
  const SynthesisResult result = synthesize(cg, lib).value();
  EXPECT_DOUBLE_EQ(result.total_cost, 0.0);
  EXPECT_TRUE(result.validation.ok());
}

}  // namespace
}  // namespace cdcs::synth
