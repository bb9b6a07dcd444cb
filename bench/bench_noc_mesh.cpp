// Extension bench: NoC-style tile-grid synthesis -- the problem class the
// paper's approach grew into (COSI). A grid of tiles with hotspot (memory
// controller), neighbor, and bit-complement traffic over an on-chip library
// whose 4-wire bus bundle gives trunk sharing a genuine economy of scale
// (bus4: 4x bandwidth at 2.5x track cost).
//
// Reports synthesized cost vs the point-to-point baseline, the structures
// selected, and validation status. Hotspot traffic merges aggressively
// (every tile streams to one controller); neighbor traffic stays
// point-to-point (nothing shares a corridor); bit-complement sits between.
#include <chrono>
#include <cstdio>

#include "baseline/baselines.hpp"
#include "commlib/standard_libraries.hpp"
#include "synth/synthesizer.hpp"
#include "workloads/noc_mesh.hpp"

namespace {

const char* traffic_name(cdcs::workloads::NocTraffic t) {
  switch (t) {
    case cdcs::workloads::NocTraffic::kNeighbor:
      return "neighbor";
    case cdcs::workloads::NocTraffic::kHotspotMemory:
      return "hotspot";
    case cdcs::workloads::NocTraffic::kBitComplement:
      return "bit-complement";
  }
  return "?";
}

}  // namespace

int main() {
  using namespace cdcs;
  const commlib::Library lib = commlib::noc_library();

  std::puts("=== NoC tile-grid synthesis (Manhattan, wire+bus4 library) ===");
  std::printf("%6s %15s | %5s | %9s %9s %7s | %5s %5s %5s | %8s | %5s\n", "grid",
              "traffic", "|A|", "ptp", "synth", "save%", "star",
              "chain", "tree", "time", "valid");

  int failures = 0;
  for (const auto& [rows, cols, traffic] :
       {std::tuple{3, 3, workloads::NocTraffic::kNeighbor},
        std::tuple{3, 3, workloads::NocTraffic::kHotspotMemory},
        std::tuple{3, 3, workloads::NocTraffic::kBitComplement},
        std::tuple{4, 4, workloads::NocTraffic::kNeighbor},
        std::tuple{4, 4, workloads::NocTraffic::kHotspotMemory},
        std::tuple{4, 4, workloads::NocTraffic::kBitComplement}}) {
    workloads::NocMeshParams params;
    params.rows = rows;
    params.cols = cols;
    params.traffic = traffic;
    const model::ConstraintGraph cg = workloads::noc_mesh(params);

    synth::SynthesisOptions opts;
    opts.drop_unprofitable = true;  // keep UCP columns to the useful set
    opts.max_merge_k = 4;           // bus4 carries at most 4 unit channels

    const auto t0 = std::chrono::steady_clock::now();
    const synth::SynthesisResult result = synth::synthesize(cg, lib, opts).value();
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();

    const baseline::BaselineResult ptp =
        baseline::point_to_point_baseline(cg, lib);

    std::size_t merges = 0;
    std::size_t chains = 0;
    std::size_t trees = 0;
    for (const synth::Candidate* c : result.selected()) {
      merges += std::holds_alternative<synth::MergingPlan>(c->plan);
      chains += std::holds_alternative<synth::ChainPlan>(c->plan);
      trees += std::holds_alternative<synth::TreePlan>(c->plan);
    }
    const double save = 100.0 * (ptp.cost - result.total_cost) / ptp.cost;
    std::printf("%3dx%-2d %15s | %5zu | %9.2f %9.2f %6.1f%% | %5zu %5zu %5zu | %6.0fms | %s\n",
                rows, cols, traffic_name(traffic), cg.num_channels(),
                ptp.cost, result.total_cost, save, merges, chains, trees, ms,
                result.validation.ok() ? "PASS" : "FAIL");
    if (!result.validation.ok() || result.total_cost > ptp.cost + 1e-6) {
      ++failures;
    }
    // Hotspot traffic must actually merge; neighbor traffic must not pay
    // for structures it does not need.
    if (traffic == workloads::NocTraffic::kHotspotMemory &&
        merges + chains + trees == 0) {
      std::puts("FAIL: hotspot traffic found no profitable merging");
      ++failures;
    }
  }
  std::puts(failures == 0 ? "\nNoC mesh synthesis: PASS"
                          : "\nNoC mesh synthesis: FAIL");
  return failures == 0 ? 0 : 1;
}
