// Scaling bench for hierarchical partitioned synthesis (synth/partition.hpp
// + synth/partitioned_synthesizer.hpp; docs/performance.md).
//
// The monolithic pipeline explores the full merging space and is exact, but
// its enumeration cost explodes with the arc count; the partitioned path
// clusters the arcs geometrically, synthesizes every cluster independently
// (fanned across the thread pool), and stitches the per-cluster optima with
// an honest aggregate lower bound. This bench quantifies the trade on
// geo-WAN instances from 100 to 10k arcs:
//
//   * scaling table: arcs, clusters, boundary arcs, UCP columns, stitched
//     cost, summed cluster lower bound, optimality gap, wall clock;
//   * an exact-path comparison at every size up to --exact-max-arcs, run
//     under a deadline of 10x the partitioned wall (at least 1 s) so a
//     blown-up exact run cannot stall the bench;
//   * a second table for the other large-instance families (fat-tree
//     datacenter traffic, 16x16 NoC mesh).
//
// Exit code: 0 unless any partitioned run fails validation, exceeds the
// 10% optimality-gap acceptance bound, or (with --deadline-ms) degrades
// past the incumbent rung, or an exact-path comparison finishes within its
// deadline in under 10x the partitioned wall (partitioning would then not
// earn its approximation), or an exact-path run overshoots its deadline by
// more than 2x (a stretch of the exact path that does not poll it) -- so
// CI can run this directly as a smoke gate.
// The 1k-arc instance's cluster shape, stitched cost and lower bound are
// pinned by KernelIdentity.PartitionedGeoWan1000Seed7.
//
// Flags (all also accept --flag=value):
//   --max-arcs N       skip scaling rows larger than N (default 10000)
//   --threads N        worker threads (default 0 = all hardware)
//   --deadline-ms MS   per-run synthesis deadline (default 0 = none)
//   --exact-max-arcs N largest size to run the exact comparison at
//                      (default 100; 0 disables the comparison)
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>

#include "commlib/standard_libraries.hpp"
#include "synth/partition.hpp"
#include "synth/synthesizer.hpp"
#include "workloads/fingerprint.hpp"
#include "workloads/noc_mesh.hpp"
#include "workloads/scale_gen.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

struct Row {
  std::size_t clusters{0};
  std::size_t boundary{0};
  std::size_t candidates{0};
  double cost{0.0};
  double lower_bound{0.0};
  double gap{0.0};
  double millis{0.0};
  bool valid{false};
  cdcs::synth::SynthesisStage stage{cdcs::synth::SynthesisStage::kExact};
};

Row run_partitioned(const cdcs::model::ConstraintGraph& cg,
                    const cdcs::commlib::Library& lib,
                    cdcs::synth::SynthesisOptions opts) {
  using namespace cdcs;
  opts.partitioning.enabled = true;
  const synth::Partition part = synth::partition_graph(cg, opts.partitioning);
  const auto t0 = Clock::now();
  const synth::SynthesisResult r = synth::synthesize(cg, lib, opts).value();
  Row row;
  row.millis = ms_since(t0);
  row.clusters = part.clusters.size();
  row.boundary = part.boundary_arcs.size();
  row.candidates = r.candidates().size();
  row.cost = r.total_cost;
  row.lower_bound = r.degradation.lower_bound;
  row.gap = r.degradation.optimality_gap;
  row.valid = r.validation.ok();
  row.stage = r.degradation.stage;
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cdcs;

  std::size_t max_arcs = 10000;
  int threads = 0;
  double deadline_ms = 0.0;
  std::size_t exact_max_arcs = 100;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string inline_value;
    bool has_inline = false;
    if (const std::size_t eq = arg.find('='); eq != std::string::npos) {
      inline_value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
      has_inline = true;
    }
    auto next = [&]() -> std::string {
      if (has_inline) return inline_value;
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs an argument\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--max-arcs") {
      max_arcs = static_cast<std::size_t>(std::atoll(next().c_str()));
    } else if (arg == "--threads") {
      threads = std::atoi(next().c_str());
    } else if (arg == "--deadline-ms") {
      deadline_ms = std::atof(next().c_str());
    } else if (arg == "--exact-max-arcs") {
      exact_max_arcs = static_cast<std::size_t>(std::atoll(next().c_str()));
    } else {
      std::fprintf(stderr,
                   "usage: %s [--max-arcs N] [--threads N] [--deadline-ms MS]"
                   " [--exact-max-arcs N]\n",
                   argv[0]);
      return 2;
    }
  }

  const commlib::Library lib = commlib::wan_library();
  int failures = 0;

  auto base_options = [&] {
    synth::SynthesisOptions opts;
    opts.threads = threads;
    if (deadline_ms > 0.0) {
      opts.deadline = support::Deadline::after_ms(deadline_ms);
    }
    return opts;
  };
  auto gate = [&](const char* label, const Row& row) {
    if (!row.valid) {
      std::fprintf(stderr, "FAIL %s: validation failed\n", label);
      ++failures;
    }
    if (row.gap > 0.10) {
      std::fprintf(stderr, "FAIL %s: optimality gap %.4f exceeds 0.10\n",
                   label, row.gap);
      ++failures;
    }
    if (deadline_ms > 0.0 &&
        row.stage > synth::SynthesisStage::kIncumbent) {
      const std::string_view stage = to_string(row.stage);
      std::fprintf(stderr, "FAIL %s: degraded past incumbent (%.*s)\n", label,
                   static_cast<int>(stage.size()), stage.data());
      ++failures;
    }
  };

  std::puts("=== Partitioned synthesis scaling: geo-WAN, seed 7 ===");
  std::printf("%6s | %8s %8s %10s | %14s %14s %7s | %10s %s\n", "arcs",
              "clusters", "boundary", "columns", "cost", "lower_bound",
              "gap%", "wall", "stage");
  for (std::size_t arcs : {std::size_t{100}, std::size_t{1000},
                           std::size_t{5000}, std::size_t{10000}}) {
    if (arcs > max_arcs) continue;
    const model::ConstraintGraph cg =
        workloads::geo_wan(workloads::GeoWanParams::sized(arcs, 7));
    const Row row = run_partitioned(cg, lib, base_options());
    const std::string_view stage = to_string(row.stage);
    std::printf(
        "%6zu | %8zu %8zu %10zu | %14.3f %14.3f %6.2f%% | %8.1fms %.*s\n",
        arcs, row.clusters, row.boundary, row.candidates, row.cost,
        row.lower_bound, row.gap * 100.0, row.millis,
        static_cast<int>(stage.size()), stage.data());
    gate("geo_wan", row);

    // Exact-path comparison where still tractable: same instance through
    // the monolithic pipeline under a 10x-partitioned-wall deadline. The
    // partitioned path earns its keep when the exact run either blows the
    // deadline (degrading to an anytime cover) or costs >= 10x the wall;
    // otherwise the row fails.
    if (arcs <= exact_max_arcs) {
      synth::SynthesisOptions exact = base_options();
      const double budget_ms = std::max(10.0 * row.millis, 1000.0);
      exact.deadline = support::Deadline::after_ms(budget_ms);
      const auto t0 = Clock::now();
      const synth::SynthesisResult r =
          synth::synthesize(cg, lib, exact).value();
      const double exact_ms = ms_since(t0);
      const bool expired =
          r.degradation.stage != synth::SynthesisStage::kExact;
      std::printf(
          "       | exact path: cost %.3f, wall %.1fms (budget %.0fms)%s, "
          "partitioned overhead %+.2f%%\n",
          r.total_cost, exact_ms, budget_ms,
          expired ? ", DEADLINE EXPIRED" : "",
          r.total_cost > 0.0 ? (row.cost / r.total_cost - 1.0) * 100.0 : 0.0);
      if (!expired && exact_ms < 10.0 * row.millis) {
        std::fprintf(stderr,
                     "FAIL geo_wan %zu arcs: exact path finished in %.1fms vs "
                     "partitioned %.1fms (< 10x, no timeout)\n",
                     arcs, exact_ms, row.millis);
        ++failures;
      }
      if (exact_ms > 2.0 * budget_ms) {
        std::fprintf(stderr,
                     "FAIL geo_wan %zu arcs: exact path took %.1fms, over 2x "
                     "its %.0fms deadline\n",
                     arcs, exact_ms, budget_ms);
        ++failures;
      }
    }
  }

  std::puts("\n=== Other large-instance families ===");
  std::printf("%-22s | %6s %8s %8s | %14s %7s | %10s\n", "workload", "arcs",
              "clusters", "boundary", "cost", "gap%", "wall");
  {
    const model::ConstraintGraph ft =
        workloads::fat_tree_traffic(workloads::FatTreeParams::sized(500, 3));
    if (ft.num_channels() <= max_arcs) {
      const Row row = run_partitioned(ft, lib, base_options());
      std::printf("%-22s | %6zu %8zu %8zu | %14.3f %6.2f%% | %8.1fms\n",
                  "fat_tree(500)", ft.num_channels(), row.clusters,
                  row.boundary, row.cost, row.gap * 100.0, row.millis);
      gate("fat_tree", row);
    }
    workloads::NocMeshParams noc;
    noc.rows = 16;
    noc.cols = 16;
    const model::ConstraintGraph mesh = workloads::noc_mesh(noc);
    if (mesh.num_channels() <= max_arcs) {
      const Row row = run_partitioned(mesh, lib, base_options());
      std::printf("%-22s | %6zu %8zu %8zu | %14.3f %6.2f%% | %8.1fms\n",
                  "noc_mesh(16x16)", mesh.num_channels(), row.clusters,
                  row.boundary, row.cost, row.gap * 100.0, row.millis);
      gate("noc_mesh", row);
    }
  }

  // Input canary: the scaling numbers above are only comparable across
  // machines while the generators are bit-stable.
  std::printf("\ngeo_wan(1000, seed 7) fingerprint: %016llx\n",
              static_cast<unsigned long long>(workloads::fingerprint(
                  workloads::geo_wan(workloads::GeoWanParams::sized(1000, 7)))));
  return failures == 0 ? 0 : 1;
}
