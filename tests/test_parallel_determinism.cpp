// The engine's headline guarantee for --threads N (docs/performance.md):
// parallel pricing is BIT-IDENTICAL to serial. Enumeration, pruning, and
// the cover solve stay serial; only the pure per-subset pricing fans out,
// and results are folded back in enumeration order. So for any thread
// count the candidate set, the chosen cover, the total cost, and the
// degradation stage must match the single-threaded run exactly -- not
// within a tolerance, exactly.
#include <sstream>

#include <gtest/gtest.h>

#include "commlib/standard_libraries.hpp"
#include "synth/pricing_cache.hpp"
#include "synth/synthesizer.hpp"
#include "workloads/mpeg4_soc.hpp"
#include "workloads/noc_mesh.hpp"
#include "workloads/wan2002.hpp"

namespace cdcs::synth {
namespace {

/// Exact textual fingerprint of everything the determinism guarantee
/// covers. Costs are printed with full precision so a 1-ulp divergence
/// between runs fails the comparison.
std::string fingerprint(const SynthesisResult& r) {
  std::ostringstream os;
  os.precision(17);
  for (const Candidate& c : r.candidates()) {
    os << '[';
    for (model::ArcId a : c.arcs) os << a.value << ',';
    os << "] cost=" << c.cost << " plan=" << c.plan.index() << '\n';
  }
  os << "chosen:";
  for (std::size_t j : r.cover.chosen) os << ' ' << j;
  os << "\ntotal=" << r.total_cost
     << "\nstage=" << to_string(r.degradation.stage)
     << "\nucp_nodes=" << r.cover.nodes_explored << '\n';
  return os.str();
}

void expect_thread_invariant(const model::ConstraintGraph& cg,
                             const commlib::Library& lib,
                             SynthesisOptions options) {
  options.threads = 1;
  const auto serial = synthesize(cg, lib, options);
  ASSERT_TRUE(serial.ok()) << serial.status().to_string();
  const std::string want = fingerprint(*serial);
  EXPECT_EQ(serial->candidate_set.stats.threads_used, 1u);

  for (int threads : {2, 8}) {
    options.threads = threads;
    const auto parallel = synthesize(cg, lib, options);
    ASSERT_TRUE(parallel.ok()) << parallel.status().to_string();
    EXPECT_EQ(fingerprint(*parallel), want) << "threads=" << threads;
    EXPECT_EQ(parallel->candidate_set.stats.threads_used,
              static_cast<std::size_t>(threads));
  }
}

TEST(ParallelDeterminism, Wan2002) {
  expect_thread_invariant(workloads::wan2002(), commlib::wan_library(), {});
}

TEST(ParallelDeterminism, Wan2002MaxPolicyLean) {
  SynthesisOptions options;
  options.policy = model::CapacityPolicy::kMaxPerConstraint;
  options.drop_unprofitable = true;
  expect_thread_invariant(workloads::wan2002(), commlib::wan_library(),
                          options);
}

TEST(ParallelDeterminism, Mpeg4Soc) {
  expect_thread_invariant(workloads::mpeg4_soc(), commlib::soc_library(), {});
}

TEST(ParallelDeterminism, NocMeshHotspot) {
  workloads::NocMeshParams p;
  p.rows = 3;
  p.cols = 3;
  const model::ConstraintGraph cg = workloads::noc_mesh(p);
  expect_thread_invariant(cg, commlib::noc_library(), {});
}

TEST(ParallelDeterminism, SharedPricingCacheDoesNotPerturbResults) {
  // A warm cross-run cache changes how plans are OBTAINED, never what they
  // are: run 1 (cold) and run 2 (all hits) must fingerprint identically,
  // in both serial and parallel mode.
  const model::ConstraintGraph cg = workloads::wan2002();
  const commlib::Library lib = commlib::wan_library();

  SynthesisOptions cold;
  const auto baseline = synthesize(cg, lib, cold);
  ASSERT_TRUE(baseline.ok());
  const std::string want = fingerprint(*baseline);

  PricingCache cache;
  for (int threads : {1, 8}) {
    SynthesisOptions options;
    options.threads = threads;
    options.pricing_cache = &cache;
    const auto run = synthesize(cg, lib, options);
    ASSERT_TRUE(run.ok());
    EXPECT_EQ(fingerprint(*run), want)
        << "threads=" << threads << " cached=" << cache.stats().hits;
  }
  EXPECT_GT(cache.stats().hits, 0u);  // second run actually hit the cache
}

}  // namespace
}  // namespace cdcs::synth
