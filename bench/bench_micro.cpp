// Micro-benchmarks (google-benchmark) for the pipeline's inner kernels:
// Gamma/Delta matrix construction, point-to-point pricing, merging pricing
// (the placement NLP), the Weiszfeld lane engine against the scalar solver
// it replaced, batched against one-at-a-time star pricing of geo-WAN
// cluster subsets, the chain and tree pricers on a Manhattan NoC subset
// and the chain pricer on the paper's WAN, candidate generation on the WAN
// instance, and the exact UCP solve of its 65-column covering matrix.
#include <benchmark/benchmark.h>

#include <random>
#include <span>
#include <vector>

#include "commlib/standard_libraries.hpp"
#include "geom/weiszfeld.hpp"
#include "synth/candidate_generator.hpp"
#include "synth/chain_pricer.hpp"
#include "synth/partition.hpp"
#include "synth/pipeline.hpp"
#include "synth/synthesizer.hpp"
#include "synth/tree_pricer.hpp"
#include "ucp/bnb.hpp"
#include "ucp/dp.hpp"
#include "weiszfeld_oracle.hpp"
#include "workloads/noc_mesh.hpp"
#include "workloads/random_gen.hpp"
#include "workloads/scale_gen.hpp"
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

/// 256 star-shaped placement solves: five terminals (four legs and the
/// trunk's far end) spread over a geo-WAN site, with leg-slope weights.
struct WeiszfeldCorpus {
  std::vector<geom::Point2D> terminals;
  std::vector<double> weights;
  static constexpr std::size_t kProblems = 256;
  static constexpr std::size_t kTerminals = 5;
  WeiszfeldCorpus() {
    std::mt19937_64 rng(7);
    std::uniform_real_distribution<double> coord(0.0, 8.0);
    std::uniform_real_distribution<double> slope(50.0, 400.0);
    for (std::size_t i = 0; i < kProblems * kTerminals; ++i) {
      terminals.push_back({coord(rng), coord(rng)});
      weights.push_back(slope(rng));
    }
  }
  std::span<const geom::Point2D> problem_terminals(std::size_t p) const {
    return std::span(terminals).subspan(p * kTerminals, kTerminals);
  }
  std::span<const double> problem_weights(std::size_t p) const {
    return std::span(weights).subspan(p * kTerminals, kTerminals);
  }
};

void BM_WeiszfeldScalarOracle(benchmark::State& state) {
  const WeiszfeldCorpus corpus;
  for (auto _ : state) {
    for (std::size_t p = 0; p < WeiszfeldCorpus::kProblems; ++p) {
      benchmark::DoNotOptimize(geom::reference::scalar_median(
          corpus.problem_terminals(p), corpus.problem_weights(p)));
    }
  }
  state.SetItemsProcessed(state.iterations() * WeiszfeldCorpus::kProblems);
}
BENCHMARK(BM_WeiszfeldScalarOracle);

/// The corpus through the lane engine; Arg 0 runs the portable body, Arg 1
/// the AVX2 body (skipped where the CPU lacks AVX2).
void BM_WeiszfeldLanes(benchmark::State& state) {
  const geom::LaneBody body =
      state.range(0) == 0 ? geom::LaneBody::kPortable : geom::LaneBody::kAvx2;
  if (!geom::lane_body_supported(body)) {
    state.SkipWithError("lane body not supported on this CPU");
    return;
  }
  state.SetLabel(std::string(geom::to_string(body)));
  const WeiszfeldCorpus corpus;
  struct Feed final : geom::WeiszfeldFeed {
    const WeiszfeldCorpus* corpus;
    std::size_t next_problem{0};
    geom::Point2D last;
    bool next(geom::WeiszfeldProblem& problem) override {
      if (next_problem == WeiszfeldCorpus::kProblems) return false;
      problem = {next_problem, corpus->problem_terminals(next_problem),
                 corpus->problem_weights(next_problem)};
      ++next_problem;
      return true;
    }
    void done(std::size_t, geom::Point2D median) override { last = median; }
  };
  for (auto _ : state) {
    Feed feed;
    feed.corpus = &corpus;
    geom::solve_weiszfeld_lanes(feed, {}, body);
    benchmark::DoNotOptimize(feed.last);
  }
  state.SetItemsProcessed(state.iterations() * WeiszfeldCorpus::kProblems);
}
BENCHMARK(BM_WeiszfeldLanes)->Arg(0)->Arg(1);

/// 64 subsets of the largest geo_wan(1000, 7) interior cluster -- its
/// pairs, then its triples, as the generator enumerates them -- that price
/// to a star: the shape the partitioned geo_wan_1k synthesis prices tens of
/// thousands of.
struct GeoWanClusterSubsets {
  model::ConstraintGraph cg =
      workloads::geo_wan(workloads::GeoWanParams::sized(1000, 7));
  commlib::Library lib = commlib::wan_library();
  std::vector<std::vector<model::ArcId>> subsets;
  static constexpr std::size_t kSubsets = 64;

  GeoWanClusterSubsets() {
    const synth::Partition part =
        synth::partition_graph(cg, synth::PartitioningOptions{});
    const synth::Cluster* largest = &part.clusters.front();
    for (std::size_t c = 0; c < part.num_interior; ++c) {
      if (part.clusters[c].arcs.size() > largest->arcs.size()) {
        largest = &part.clusters[c];
      }
    }
    const std::vector<model::ArcId>& arcs = largest->arcs;
    auto keep = [&](std::vector<model::ArcId> subset) {
      if (subsets.size() < kSubsets &&
          synth::price_merging(cg, lib, subset).has_value()) {
        subsets.push_back(std::move(subset));
      }
    };
    for (std::size_t a = 0; a < arcs.size(); ++a) {
      for (std::size_t b = a + 1; b < arcs.size(); ++b) {
        keep({arcs[a], arcs[b]});
      }
    }
    for (std::size_t a = 0; a < arcs.size(); ++a) {
      for (std::size_t b = a + 1; b < arcs.size(); ++b) {
        for (std::size_t c = b + 1; c < arcs.size(); ++c) {
          keep({arcs[a], arcs[b], arcs[c]});
        }
      }
    }
  }
};

void BM_StarPricerWanOneAtATime(benchmark::State& state) {
  const GeoWanClusterSubsets w;
  for (auto _ : state) {
    for (const std::vector<model::ArcId>& subset : w.subsets) {
      benchmark::DoNotOptimize(synth::price_merging(w.cg, w.lib, subset));
    }
  }
  state.SetItemsProcessed(state.iterations() * w.subsets.size());
}
BENCHMARK(BM_StarPricerWanOneAtATime);

void BM_StarPricerWanBatch(benchmark::State& state) {
  const GeoWanClusterSubsets w;
  const std::vector<std::span<const model::ArcId>> spans(w.subsets.begin(),
                                                         w.subsets.end());
  for (auto _ : state) {
    benchmark::DoNotOptimize(synth::price_mergings(w.cg, w.lib, spans));
  }
  state.SetItemsProcessed(state.iterations() * w.subsets.size());
}
BENCHMARK(BM_StarPricerWanBatch);

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

/// The largest cluster cover of the partitioned 12x12 NoC hotspot
/// synthesis (18 rows, 4,047 columns), built as the partitioned synthesizer
/// builds it: the cluster's own graph, merges capped at 4 arcs.
ucp::CoverProblem noc_largest_cluster_cover() {
  workloads::NocMeshParams params;
  params.rows = 12;
  params.cols = 12;
  const model::ConstraintGraph cg = workloads::noc_mesh(params);
  const commlib::Library lib = commlib::wan_library();
  const synth::Partition part =
      synth::partition_graph(cg, synth::PartitioningOptions{});
  synth::SynthesisOptions options;
  options.threads = 1;
  options.max_merge_k = 4;
  ucp::CoverProblem largest(0);
  for (const synth::Cluster& cluster : part.clusters) {
    const model::ConstraintGraph sub = synth::cluster_subgraph(cg, cluster);
    const synth::CandidateSet set =
        synth::generate_candidates(sub, lib, options).value();
    ucp::CoverProblem cover =
        synth::build_cover_problem(sub.num_channels(), set);
    if (cover.num_columns() > largest.num_columns()) largest = std::move(cover);
  }
  return largest;
}

void BM_DenseDpNocCluster(benchmark::State& state) {
  const ucp::CoverProblem cover = noc_largest_cluster_cover();
  std::size_t nodes = 0;
  for (auto _ : state) {
    const ucp::CoverSolution s = ucp::solve_dp(cover);
    nodes = s.nodes_explored;
    benchmark::DoNotOptimize(s);
  }
  state.counters["rows"] = static_cast<double>(cover.num_rows());
  state.counters["columns"] = static_cast<double>(cover.num_columns());
  state.counters["states"] = static_cast<double>(nodes);
}
BENCHMARK(BM_DenseDpNocCluster)->Unit(benchmark::kMillisecond);

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
