// Parallel branch-and-bound bench: the parallel_bnb determinism contract
// and its wall time against serial bnb_v2, on the bench_ucp_solver corpus
// (same generator and seeds as tests/test_parallel_bnb.cpp and
// Exact.SeedCorpusNodeCounts).
//
//   bench_parallel_bnb [--deterministic]
//
// For every corpus instance this binary ASSERTS (non-zero exit on failure)
// that parallel_bnb at 1, 2, and 8 threads returns bit-identical cost,
// cover, node count, and explored-set fingerprint, with the cost matching
// serial bnb_v2. The wall-clock columns are informational -- speedups
// depend on the machine (docs/performance.md section 8).
//
// --deterministic prints only the machine-independent columns, so the
// output is a pure function of the corpus.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <random>
#include <thread>
#include <tuple>
#include <vector>

#include "ucp/bnb.hpp"

namespace {

cdcs::ucp::CoverProblem random_problem(int rows, int cols, double density,
                                       unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::uniform_real_distribution<double> weight(0.5, 10.0);
  cdcs::ucp::CoverProblem p(rows);
  for (int j = 0; j < cols; ++j) {
    std::vector<std::size_t> covered;
    for (int r = 0; r < rows; ++r) {
      if (unit(rng) < density) covered.push_back(r);
    }
    if (covered.empty()) covered.push_back(j % rows);
    p.add_column(covered, weight(rng));
  }
  for (int r = 0; r < rows; ++r) {
    p.add_column({static_cast<std::size_t>(r)}, 12.0);  // feasibility floor
  }
  return p;
}

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cdcs::ucp;
  bool deterministic = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--deterministic") == 0) {
      deterministic = true;
    } else {
      std::fprintf(stderr, "usage: %s [--deterministic]\n", argv[0]);
      return 2;
    }
  }

  std::printf(
      "=== Parallel weighted-UCP branch-and-bound ===\n"
      "hardware threads: %u%s\n\n"
      "%5s %5s | %10s %9s | %11s %16s",
      std::thread::hardware_concurrency(),
      deterministic ? "  (--deterministic: wall times omitted)" : "",
      "rows", "cols", "cost", "bnb_nodes", "rnds_nodes", "rounds_fp");
  if (!deterministic) {
    std::printf(" | %9s %9s %9s", "t_serial", "t_rnds_1", "t_rnds_8");
  }
  std::printf("\n");

  BnbOptions serial_opt;
  serial_opt.backend = "bnb_v2";  // names B&B even on <= 20 rows

  int failures = 0;
  for (const auto& [rows, cols, density] :
       {std::tuple{10, 30, 0.30}, std::tuple{12, 200, 0.25},
        std::tuple{15, 60, 0.25}, std::tuple{20, 100, 0.20},
        std::tuple{20, 2000, 0.15}}) {
    const CoverProblem p =
        random_problem(rows, cols, density, 91 + static_cast<unsigned>(rows));

    auto t0 = std::chrono::steady_clock::now();
    const CoverSolution serial = solve_exact(p, serial_opt);
    const double t_serial = ms_since(t0);

    // The explored tree must be a function of the instance alone --
    // identical at every thread count, cost matching serial.
    BnbOptions rounds_opt;
    rounds_opt.backend = "parallel_bnb";
    CoverSolution rounds_base;
    double t_rounds_1 = 0.0, t_rounds_8 = 0.0;
    for (const int threads : {1, 2, 8}) {
      rounds_opt.threads = threads;
      t0 = std::chrono::steady_clock::now();
      const CoverSolution r = solve_exact(p, rounds_opt);
      const double t = ms_since(t0);
      if (threads == 1) {
        rounds_base = r;
        t_rounds_1 = t;
        if (!r.optimal || std::abs(r.cost - serial.cost) > 1e-9) {
          std::fprintf(stderr,
                       "ROUNDS COST MISMATCH on %dx%d: %.9f != serial %.9f "
                       "(optimal=%d)\n",
                       rows, cols, r.cost, serial.cost, r.optimal ? 1 : 0);
          ++failures;
        }
      } else {
        if (threads == 8) t_rounds_8 = t;
        if (r.cost != rounds_base.cost || r.chosen != rounds_base.chosen ||
            r.nodes_explored != rounds_base.nodes_explored ||
            r.explored_fingerprint != rounds_base.explored_fingerprint) {
          std::fprintf(
              stderr,
              "ROUNDS DETERMINISM VIOLATION on %dx%d at %d threads: "
              "fp %016llx nodes %zu vs fp %016llx nodes %zu\n",
              rows, cols, threads,
              static_cast<unsigned long long>(r.explored_fingerprint),
              r.nodes_explored,
              static_cast<unsigned long long>(
                  rounds_base.explored_fingerprint),
              rounds_base.nodes_explored);
          ++failures;
        }
      }
    }

    std::printf("%5d %5d | %10.4f %9zu | %11zu %016llx", rows, cols,
                serial.cost, serial.nodes_explored,
                rounds_base.nodes_explored,
                static_cast<unsigned long long>(
                    rounds_base.explored_fingerprint));
    if (!deterministic) {
      std::printf(" | %7.2fms %7.2fms %7.2fms", t_serial, t_rounds_1,
                  t_rounds_8);
    }
    std::printf("\n");
  }

  if (failures != 0) {
    std::fprintf(stderr, "\n%d violation(s)\n", failures);
    return 1;
  }
  std::puts("\nall determinism and optimality assertions held");
  return 0;
}
