// Standalone chaos soak for the durability layer (the CI chaos-smoke job's
// long-running half; tests/test_chaos.cpp is the in-suite version).
//
//   chaos_driver [--iterations N] [--seed S] [--threads T]
//                [--fault-plan SPEC] [--journal-dir DIR]
//                [--postmortem-dir DIR]
//
// Each iteration builds a journaled Engine session on the WAN instance,
// applies a few seeded random edit batches under an armed FaultPlan
// (rotating over every registered fault site unless --fault-plan pins
// one), and checks the session invariants after every apply:
//
//   * a failed apply leaves the graph byte-identical (all-or-nothing),
//   * the journal always reads back cleanly and replays to the live graph,
//   * a clean-options Engine::recover() agrees with the live session.
//
// Exits 0 when every iteration holds the invariants; 1 on the first
// violation (with the iteration, plan, and journal path on stderr, and the
// journal file left behind for the CI artifact upload); 2 on bad usage.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "commlib/standard_libraries.hpp"
#include "io/journal.hpp"
#include "io/text_format.hpp"
#include "model/delta.hpp"
#include "support/fault.hpp"
#include "support/flight_recorder.hpp"
#include "support/metrics.hpp"
#include "synth/engine.hpp"
#include "ucp/bnb_options.hpp"
#include "workloads/wan2002.hpp"

namespace {

using namespace cdcs;
using support::FaultInjector;
using support::FaultPlan;

struct Args {
  int iterations = 200;
  std::uint32_t seed = 0xC0FFEE;
  int threads = 2;
  std::string fault_plan;  // empty = rotate over all registered sites
  std::string journal_dir = "/tmp";
  std::string postmortem_dir;  // empty = no postmortem dumps
};

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " [--iterations N] [--seed S] [--threads T]"
               " [--fault-plan SPEC] [--journal-dir DIR]"
               " [--postmortem-dir DIR]\n"
               "fault-plan SPEC: 'site@n | site%k | site~p' rules joined"
               " with ';', optional 'seed=N' (docs/robustness.md)\n";
  return 2;
}

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
    if (!v) return false;
    ++i;
    if (flag == "--iterations") {
      args.iterations = std::atoi(v);
    } else if (flag == "--seed") {
      args.seed = static_cast<std::uint32_t>(std::strtoul(v, nullptr, 10));
    } else if (flag == "--threads") {
      args.threads = std::atoi(v);
    } else if (flag == "--fault-plan") {
      args.fault_plan = v;
    } else if (flag == "--journal-dir") {
      args.journal_dir = v;
    } else if (flag == "--postmortem-dir") {
      args.postmortem_dir = v;
    } else {
      std::cerr << "unknown flag '" << flag << "'\n";
      return false;
    }
  }
  return args.iterations > 0 && args.threads > 0;
}

std::string graph_bytes(const model::ConstraintGraph& cg) {
  return io::write_constraint_graph(cg);
}

/// Seeded valid-by-construction edit batches (mirrors the test suite's
/// generators; kept local so the driver links against the library only).
class ChaosGen {
 public:
  explicit ChaosGen(std::uint32_t seed) : rng_(seed) {}

  model::Delta next_batch(model::ConstraintGraph& shadow) {
    model::Delta batch;
    const int n = 1 + static_cast<int>(rng_() % 2);
    for (int i = 0; i < n; ++i) {
      model::Delta one;
      one.ops.push_back(next_op(shadow));
      if (!model::apply_delta(shadow, one).ok()) {
        std::cerr << "internal: generated an invalid op\n";
        std::abort();
      }
      batch.ops.push_back(std::move(one.ops.front()));
    }
    return batch;
  }

 private:
  model::EditOp next_op(const model::ConstraintGraph& shadow) {
    const std::vector<model::VertexId> ports = shadow.ports();
    while (true) {
      switch (rng_() % 4) {
        case 0: {
          const model::ArcId a{
              static_cast<std::uint32_t>(rng_() % shadow.num_channels())};
          return model::SetBandwidthOp{
              shadow.channel(a).name,
              1.0 + static_cast<double>(rng_() % 390) / 10.0};
        }
        case 1:
        case 2: {
          const model::VertexId v = ports[rng_() % ports.size()];
          const geom::Point2D p = shadow.port(v).position;
          return model::MovePortOp{shadow.port(v).name,
                                   {p.x + jitter(), p.y + jitter()}};
        }
        default: {
          const model::VertexId u = ports[rng_() % ports.size()];
          const model::VertexId v = ports[rng_() % ports.size()];
          if (u == v) continue;
          return model::AddArcOp{
              "ce" + std::to_string(counter_++), shadow.port(u).name,
              shadow.port(v).name,
              1.0 + static_cast<double>(rng_() % 200) / 10.0};
        }
      }
    }
  }

  double jitter() { return (static_cast<double>(rng_() % 41) - 20.0) / 10.0; }

  std::mt19937 rng_;
  int counter_ = 0;
};

std::string plan_for_iteration(const Args& args, int i) {
  if (!args.fault_plan.empty()) return args.fault_plan;
  const auto& sites = support::all_fault_sites();
  const std::string site(sites[static_cast<std::size_t>(i) % sites.size()]);
  std::string rule;
  switch ((i / static_cast<int>(sites.size())) % 3) {
    case 0: rule = site + "@" + std::to_string(1 + i % 3); break;
    case 1: rule = site + "%" + std::to_string(1 + i % 2); break;
    default: rule = site + "~0.4"; break;
  }
  return rule + ";seed=" + std::to_string(args.seed + i);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) return usage(argv[0]);

  const model::ConstraintGraph base = workloads::wan2002();
  const commlib::Library lib = commlib::wan_library();

  if (!args.postmortem_dir.empty()) {
    support::set_postmortem_dir(args.postmortem_dir);
  }

  int failures = 0;
  int successes = 0;
  for (int i = 0; i < args.iterations; ++i) {
    // One postmortem per iteration at most: each iteration is its own
    // experiment, and the monotonic dump sequence keeps filenames distinct.
    support::reset_postmortem_latch();
    const std::string spec = plan_for_iteration(args, i);
    const std::string journal =
        args.journal_dir + "/chaos_" + std::to_string(i) + ".journal";
    const auto fail = [&](const std::string& what) {
      std::cerr << "INVARIANT VIOLATION at iteration " << i << " (plan '"
                << spec << "', journal '" << journal << "'): " << what
                << "\n";
      return 1;
    };

    const auto plan = FaultPlan::parse(spec);
    if (!plan.ok()) {
      std::cerr << "bad fault plan '" << spec
                << "': " << plan.status().to_string() << "\n";
      return 2;
    }
    synth::SynthesisOptions options;
    options.threads = args.threads;
    options.fault_injection.injector = std::make_shared<FaultInjector>(*plan);
    // Rotate the cover solves across both backends (kCoverBackends), so the
    // rotating plans exercise the ucp.frontier fault site in each engine
    // (dense DP at entry and per deadline poll, bnb_v2 per branch node).
    // WAN instances sit under the dense-DP row cutoff, so bnb_v2 runs only
    // because it is named here.
    options.solver.backend = ucp::kCoverBackends[static_cast<std::size_t>(i) %
                                               ucp::kCoverBackends.size()];

    synth::Engine engine(base, lib, options);
    // open_journal consults the io.journal.open fault site, so it may be
    // the injected failure itself; the session is still sound un-journaled.
    const bool journaled = engine.open_journal(journal).ok();

    ChaosGen gen(args.seed + static_cast<std::uint32_t>(i));
    model::ConstraintGraph shadow = engine.graph();
    for (int b = 0; b < 3; ++b) {
      const model::Delta batch = gen.next_batch(shadow);
      const std::string before = graph_bytes(engine.graph());
      const auto result = engine.apply(batch);
      if (result.ok()) {
        ++successes;
        if (!(result->total_cost > 0.0)) {
          return fail("apply succeeded with non-positive total cost");
        }
      } else {
        ++failures;
        if (graph_bytes(engine.graph()) != before) {
          return fail("failed apply mutated the session graph: " +
                      result.status().to_string());
        }
        shadow = engine.graph();  // the batch was NOT applied
      }
      if (journaled && engine.journaling()) {
        const auto contents = io::read_journal(journal);
        if (!contents.ok()) {
          return fail("journal unreadable mid-session: " +
                      contents.status().to_string());
        }
        model::ConstraintGraph replayed = contents->base;
        for (const model::Delta& d : contents->deltas) {
          if (!model::apply_delta(replayed, d).ok()) {
            return fail("journaled delta does not replay");
          }
        }
        if (graph_bytes(replayed) != graph_bytes(engine.graph())) {
          return fail("journal replay diverges from the live session");
        }
      }
    }

    if (journaled && engine.journaling()) {
      auto recovered = synth::Engine::recover(journal, lib);
      if (!recovered.ok()) {
        return fail("recover failed: " + recovered.status().to_string());
      }
      if (graph_bytes((*recovered)->graph()) != graph_bytes(engine.graph())) {
        return fail("recovered graph diverges from the live session");
      }
    }
    std::remove(journal.c_str());  // keep journals only from failed runs
  }

  std::cout << "chaos_driver: " << args.iterations << " iteration(s), "
            << successes << " applies ok, " << failures
            << " injected failure(s) rolled back cleanly, "
            << support::MetricsRegistry::global()
                   .counter("fault.fires")
                   .value()
            << " fault fire(s), "
            << support::MetricsRegistry::global()
                   .counter("postmortem.dumps")
                   .value()
            << " postmortem(s)\n";
  return 0;
}
