// The parallel_bnb contract (docs/performance.md section 8):
//
//   * the rounds engine is DETERMINISTIC across thread counts: the
//     explored-node set (pinned via CoverSolution::explored_fingerprint),
//     node count, chosen cover, and cost are bit-identical at 1, 2, and 8
//     workers, on the solver corpus and through the whole synthesis
//     pipeline, and the cost is the one serial bnb_v2 proves.
//   * A firing ucp.frontier fault degrades a solve all-or-nothing: the
//     returned incumbent is a valid cover (never torn), just no longer
//     claimed optimal.
//
// The ParallelBnbConcurrency suite doubles as the TSan target for the
// rounds engine (.github/workflows/ci.yml tsan job).
#include <cstdint>
#include <random>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "commlib/standard_libraries.hpp"
#include "support/fault.hpp"
#include "synth/synthesizer.hpp"
#include "ucp/bnb.hpp"
#include "workloads/mpeg4_soc.hpp"
#include "workloads/noc_mesh.hpp"
#include "workloads/wan2002.hpp"

namespace cdcs::ucp {
namespace {

/// Same generator as tests/test_ucp.cpp and bench/bench_ucp_solver.cpp:
/// keep the three in sync so all pinned numbers describe one corpus.
CoverProblem corpus_problem(int rows, int cols, double density,
                            unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::uniform_real_distribution<double> weight(0.5, 10.0);
  CoverProblem p(rows);
  for (int j = 0; j < cols; ++j) {
    std::vector<std::size_t> covered;
    for (int r = 0; r < rows; ++r) {
      if (unit(rng) < density) covered.push_back(r);
    }
    if (covered.empty()) covered.push_back(j % rows);
    p.add_column(covered, weight(rng));
  }
  for (int r = 0; r < rows; ++r) {
    p.add_column({static_cast<std::size_t>(r)}, 12.0);
  }
  return p;
}

struct CorpusInstance {
  int rows, cols;
  double density;
  unsigned seed;
  /// The rounds engine's explored tree at the default batch size.
  std::size_t rounds_nodes;
  std::uint64_t rounds_fingerprint;
};

const CorpusInstance kCorpus[] = {
    {10, 30, 0.30, 101, 4, 16541765940544332065u},
    {12, 200, 0.25, 103, 11, 14405111966531092392u},
    {15, 60, 0.25, 106, 24, 7928290202329275620u},
    {20, 100, 0.20, 111, 29, 17295474699760951989u},
    // the bench_perf_summary headline instance
    {20, 2000, 0.15, 111, 228, 15031904695916508000u},
};

BnbOptions serial_options() {
  BnbOptions opt;
  opt.backend = "bnb_v2";  // branch-and-bound even on <= 20 rows
  return opt;
}

BnbOptions parallel_options(int threads) {
  BnbOptions opt;
  opt.backend = "parallel_bnb";
  opt.threads = threads;
  return opt;
}

TEST(ParallelBnbDeterminism, RoundsBitIdenticalAcrossThreadCounts) {
  for (const CorpusInstance& c : kCorpus) {
    const CoverProblem p = corpus_problem(c.rows, c.cols, c.density, c.seed);

    const CoverSolution serial = solve_exact(p, serial_options());
    ASSERT_TRUE(serial.optimal);
    EXPECT_EQ(serial.explored_fingerprint, 0u);  // serial does not hash

    CoverSolution baseline;
    for (const int threads : {1, 2, 8}) {
      const CoverSolution s = solve_exact(p, parallel_options(threads));
      EXPECT_TRUE(s.optimal) << threads;
      EXPECT_TRUE(p.covers_all(s.chosen)) << threads;
      EXPECT_NEAR(s.cost, serial.cost, 1e-9)
          << c.rows << "x" << c.cols << " threads=" << threads;
      if (threads == 1) {
        baseline = s;
        EXPECT_EQ(s.nodes_explored, c.rounds_nodes);
        EXPECT_EQ(s.explored_fingerprint, c.rounds_fingerprint)
            << c.rows << "x" << c.cols;
        continue;
      }
      // The determinism contract: not "same cost", the SAME computation.
      EXPECT_EQ(s.cost, baseline.cost) << threads;
      EXPECT_EQ(s.chosen, baseline.chosen) << threads;
      EXPECT_EQ(s.nodes_explored, baseline.nodes_explored) << threads;
      EXPECT_EQ(s.explored_fingerprint, baseline.explored_fingerprint)
          << c.rows << "x" << c.cols << " threads=" << threads;
    }
  }
}

TEST(ParallelBnbDeterminism, RoundsBatchSizeChangesTreeNotAnswer) {
  const CoverProblem p = corpus_problem(15, 60, 0.25, 106);
  const CoverSolution serial = solve_exact(p, serial_options());
  for (const std::size_t batch : {std::size_t{1}, std::size_t{4},
                                  std::size_t{64}}) {
    BnbOptions opt = parallel_options(2);
    opt.rounds_batch_size = batch;
    const CoverSolution s = solve_exact(p, opt);
    EXPECT_TRUE(s.optimal) << batch;
    EXPECT_NEAR(s.cost, serial.cost, 1e-9) << batch;
  }
}

TEST(ParallelBnbDeterminism, StopReasonDistinguishesBudgets) {
  const CoverProblem p = corpus_problem(15, 60, 0.25, 106);

  BnbOptions done = parallel_options(2);
  EXPECT_EQ(solve_exact(p, done).stop, CoverStop::kCompleted);

  BnbOptions budget = parallel_options(2);
  budget.max_nodes = 1;
  const CoverSolution b = solve_exact(p, budget);
  EXPECT_FALSE(b.optimal);
  EXPECT_EQ(b.stop, CoverStop::kNodeBudget);
  EXPECT_FALSE(b.deadline_expired);
  EXPECT_TRUE(p.covers_all(b.chosen));  // incumbent survives the cutoff

  BnbOptions late = parallel_options(2);
  late.deadline = support::Deadline::expire_after_checks(0);
  const CoverSolution d = solve_exact(p, late);
  EXPECT_FALSE(d.optimal);
  EXPECT_EQ(d.stop, CoverStop::kDeadline);
  EXPECT_TRUE(d.deadline_expired);

  BnbOptions cramped = parallel_options(2);
  cramped.best_first_max_frontier = 2;
  const CoverSolution f = solve_exact(p, cramped);
  EXPECT_FALSE(f.optimal);
  EXPECT_EQ(f.stop, CoverStop::kFrontierCap);
  EXPECT_FALSE(f.deadline_expired);
  EXPECT_TRUE(p.covers_all(f.chosen));
}

// ---- Whole-pipeline determinism -------------------------------------------

std::string pipeline_fingerprint(const synth::SynthesisResult& r) {
  std::ostringstream os;
  os.precision(17);
  os << "chosen:";
  for (std::size_t j : r.cover.chosen) os << ' ' << j;
  os << "\ntotal=" << r.total_cost << "\ncost=" << r.cover.cost
     << "\nstage=" << synth::to_string(r.degradation.stage)
     << "\nucp_nodes=" << r.cover.nodes_explored
     << "\nfp=" << r.cover.explored_fingerprint << '\n';
  return os.str();
}

void expect_pipeline_rounds_invariant(const model::ConstraintGraph& cg,
                                      const commlib::Library& lib) {
  synth::SynthesisOptions serial;
  serial.solver.backend = "bnb_v2";  // B&B even on WAN's 19 rows
  const auto want = synth::synthesize(cg, lib, serial);
  ASSERT_TRUE(want.ok()) << want.status().to_string();

  std::string baseline;
  for (const int threads : {1, 2, 8}) {
    synth::SynthesisOptions options;
    options.solver.backend = "parallel_bnb";
    options.solver.threads = threads;
    const auto run = synth::synthesize(cg, lib, options);
    ASSERT_TRUE(run.ok()) << run.status().to_string();
    EXPECT_NEAR(run->total_cost, want->total_cost, 1e-9)
        << "threads=" << threads;
    const std::string fp = pipeline_fingerprint(*run);
    if (threads == 1) {
      baseline = fp;
    } else {
      EXPECT_EQ(fp, baseline) << "ucp-threads=" << threads;
    }
  }
}

TEST(ParallelBnbDeterminism, PipelineWan2002) {
  expect_pipeline_rounds_invariant(workloads::wan2002(),
                                   commlib::wan_library());
}

TEST(ParallelBnbDeterminism, PipelineMpeg4Soc) {
  expect_pipeline_rounds_invariant(workloads::mpeg4_soc(),
                                   commlib::soc_library());
}

TEST(ParallelBnbDeterminism, PipelineNocMesh) {
  workloads::NocMeshParams p;
  p.rows = 3;
  p.cols = 3;
  expect_pipeline_rounds_invariant(workloads::noc_mesh(p),
                                   commlib::noc_library());
}

// ---- Concurrency / robustness (TSan targets) ------------------------------

TEST(ParallelBnbConcurrency, RoundsStressSmallBatches) {
  // Small batches maximize round turnover (merge/fan-out churn) under TSan.
  const CoverProblem p = corpus_problem(20, 100, 0.20, 111);
  const CoverSolution serial = solve_exact(p, serial_options());
  BnbOptions opt = parallel_options(8);
  opt.rounds_batch_size = 2;
  for (int repeat = 0; repeat < 3; ++repeat) {
    const CoverSolution s = solve_exact(p, opt);
    ASSERT_TRUE(s.optimal);
    EXPECT_NEAR(s.cost, serial.cost, 1e-9);
  }
}

TEST(ParallelBnbConcurrency, RoundsFrontierFaultAbortsAllOrNothing) {
  const CoverProblem p = corpus_problem(15, 60, 0.25, 106);
  const CoverSolution serial = solve_exact(p, serial_options());

  auto plan = support::FaultPlan::parse("ucp.frontier@1");
  ASSERT_TRUE(plan.ok());
  support::FaultInjector injector(*plan);

  BnbOptions opt = parallel_options(2);
  opt.fault_injector = &injector;
  const CoverSolution s = solve_exact(p, opt);
  // First frontier consultation fires: the solve aborts before expanding a
  // single node, handing back the seeded incumbent -- a complete, valid
  // cover, not a torn one.
  EXPECT_EQ(s.stop, CoverStop::kAborted);
  EXPECT_FALSE(s.optimal);
  EXPECT_EQ(s.nodes_explored, 0u);
  EXPECT_TRUE(p.covers_all(s.chosen));
  EXPECT_GE(s.cost, serial.cost - 1e-9);  // never better than the optimum
  EXPECT_GT(injector.total_fires(), 0u);
}

}  // namespace
}  // namespace cdcs::ucp
