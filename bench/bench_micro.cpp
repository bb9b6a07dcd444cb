// Micro-benchmarks (google-benchmark) for the pipeline's inner kernels:
// Gamma/Delta matrix construction, point-to-point pricing, merging pricing
// (the placement NLP), the chain and tree pricers on a Manhattan NoC subset
// and the chain pricer on the paper's WAN, candidate generation on the WAN
// instance, and the exact UCP solve of its 65-column covering matrix.
#include <benchmark/benchmark.h>

#include "commlib/standard_libraries.hpp"
#include "synth/candidate_generator.hpp"
#include "synth/chain_pricer.hpp"
#include "synth/synthesizer.hpp"
#include "synth/tree_pricer.hpp"
#include "ucp/bnb.hpp"
#include "workloads/noc_mesh.hpp"
#include "workloads/random_gen.hpp"
#include "workloads/wan2002.hpp"

namespace {

using namespace cdcs;

void BM_GammaDelta(benchmark::State& state) {
  workloads::RandomWorkloadParams params;
  params.num_channels = static_cast<int>(state.range(0));
  params.ports_per_cluster = 4;
  const model::ConstraintGraph cg = workloads::random_workload(params);
  for (auto _ : state) {
    benchmark::DoNotOptimize(synth::gamma_matrix(cg));
    benchmark::DoNotOptimize(synth::delta_matrix(cg));
  }
}
BENCHMARK(BM_GammaDelta)->Arg(8)->Arg(32)->Arg(128);

void BM_PtpPricing(benchmark::State& state) {
  const commlib::Library lib = commlib::lan_library();
  double d = 1.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(synth::best_point_to_point(d, 80.0, lib));
    d = d < 2000.0 ? d + 13.7 : 1.0;
  }
}
BENCHMARK(BM_PtpPricing);

void BM_MergingPricer3Way(benchmark::State& state) {
  const model::ConstraintGraph cg = workloads::wan2002();
  const commlib::Library lib = commlib::wan_library();
  const std::vector<model::ArcId> subset = {model::ArcId{3}, model::ArcId{4},
                                            model::ArcId{5}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(synth::price_merging(cg, lib, subset));
  }
}
BENCHMARK(BM_MergingPricer3Way);

/// Four tiles of the 12x12 NoC hotspot mesh streaming into the memory tile
/// from different rows and columns: a common-target subset the chain and
/// tree pricers see thousands of times per noc_hotspot_12 synthesis.
struct NocSubset {
  model::ConstraintGraph cg;
  std::vector<model::ArcId> subset = {model::ArcId{5}, model::ArcId{18},
                                      model::ArcId{40}, model::ArcId{77}};
  NocSubset() {
    workloads::NocMeshParams params;
    params.rows = 12;
    params.cols = 12;
    cg = workloads::noc_mesh(params);
  }
};

void BM_ChainPricer4WayManhattan(benchmark::State& state) {
  const NocSubset noc;
  const commlib::Library lib = commlib::wan_library();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        synth::price_chain_merging(noc.cg, lib, noc.subset));
  }
}
BENCHMARK(BM_ChainPricer4WayManhattan);

void BM_TreePricer4WayManhattan(benchmark::State& state) {
  const NocSubset noc;
  const commlib::Library lib = commlib::wan_library();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        synth::price_tree_merging(noc.cg, lib, noc.subset));
  }
}
BENCHMARK(BM_TreePricer4WayManhattan);

// a4..a7, the four channels leaving D: a Euclidean common-source chain.
void BM_ChainPricerWan(benchmark::State& state) {
  const model::ConstraintGraph cg = workloads::wan2002();
  const commlib::Library lib = commlib::wan_library();
  const std::vector<model::ArcId> subset = {model::ArcId{3}, model::ArcId{4},
                                            model::ArcId{5}, model::ArcId{6}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(synth::price_chain_merging(cg, lib, subset));
  }
}
BENCHMARK(BM_ChainPricerWan);

void BM_WanCandidateGeneration(benchmark::State& state) {
  const model::ConstraintGraph cg = workloads::wan2002();
  const commlib::Library lib = commlib::wan_library();
  for (auto _ : state) {
    benchmark::DoNotOptimize(synth::generate_candidates(cg, lib, {}));
  }
}
BENCHMARK(BM_WanCandidateGeneration);

void BM_WanUcpSolve(benchmark::State& state) {
  const model::ConstraintGraph cg = workloads::wan2002();
  const commlib::Library lib = commlib::wan_library();
  const synth::CandidateSet set = synth::generate_candidates(cg, lib, {}).value();
  ucp::CoverProblem cover(cg.num_channels());
  for (const synth::Candidate& c : set.candidates) {
    std::vector<std::size_t> rows;
    for (model::ArcId a : c.arcs) rows.push_back(a.index());
    cover.add_column(rows, c.cost);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(ucp::solve_exact(cover));
  }
}
BENCHMARK(BM_WanUcpSolve);

void BM_WanEndToEnd(benchmark::State& state) {
  const model::ConstraintGraph cg = workloads::wan2002();
  const commlib::Library lib = commlib::wan_library();
  for (auto _ : state) {
    benchmark::DoNotOptimize(synth::synthesize(cg, lib));
  }
}
BENCHMARK(BM_WanEndToEnd);

}  // namespace

BENCHMARK_MAIN();
