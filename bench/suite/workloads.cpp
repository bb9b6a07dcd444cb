#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <unordered_map>
#include <utility>

#include "baseline/baselines.hpp"
#include "commlib/standard_libraries.hpp"
#include "model/delta.hpp"
#include "model/validator.hpp"
#include "synth/engine.hpp"
#include "synth/partition.hpp"
#include "synth/synthesizer.hpp"
#include "workloads/fingerprint.hpp"
#include "workloads/lan.hpp"
#include "workloads/mpeg4_soc.hpp"
#include "workloads/noc_mesh.hpp"
#include "workloads/scale_gen.hpp"
#include "workloads/wan2002.hpp"

namespace cdcs::bench {
namespace {

using Result = support::Expected<synth::SynthesisResult>;

// A 20 s run on a 4-core host reaches 25-33 geo_wan_1k units, 14-17
// noc_hotspot_12 units, 25k-35k edits and 70-95 corpus rounds. edit_wan
// reports p90 although p99.9 would still have ten samples beyond it: past
// p90 an edit's time is the shared host's scheduling noise, and p99 spread
// 70% from run to run where p90 spread as little as p50.
const std::vector<WorkloadSpec> kSpecs = {
    {"geo_wan_1k", 75.0, 10, std::size_t{1} << 20},
    {"noc_hotspot_12", 75.0, 8, std::size_t{1} << 20},
    {"edit_wan", 90.0, 5000, std::size_t{1} << 14},
    {"paper_corpus", 90.0, 20, std::size_t{1} << 18},
};

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Uniform draw in [-1, 1), a pure function of (seed, index).
double signed_unit(std::uint64_t seed, std::uint64_t index) {
  const std::uint64_t bits = splitmix64(splitmix64(seed) + index);
  return static_cast<double>(bits >> 11) * 0x1.0p-52 - 1.0;
}

bool same_cost(double a, double b, double rel_tol) {
  return std::abs(a - b) <= rel_tol * std::max(std::abs(a), std::abs(b));
}

std::string format_cost(double cost) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6f", cost);
  return buf;
}

/// "" when `cg` is the generator output pinned for `instance`.
std::string check_fingerprint(const References& refs,
                              const std::string& instance,
                              const model::ConstraintGraph& cg) {
  const auto it = refs.find(instance + ".fingerprint");
  if (it == refs.end()) return "no pinned fingerprint for " + instance;
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(workloads::fingerprint(cg)));
  if (it->second != hex) {
    return "generator drift: " + instance + " fingerprint " + hex +
           ", pinned " + it->second;
  }
  return "";
}

/// "" when `cost` matches the cost pinned for `instance`.
std::string check_pinned_cost(const References& refs,
                              const std::string& instance, double cost) {
  const auto ref = refs.find(instance + ".cost");
  const auto tol = refs.find(instance + ".rel_tol");
  if (ref == refs.end() || tol == refs.end()) {
    return "no pinned cost for " + instance;
  }
  if (!same_cost(cost, std::stod(ref->second), std::stod(tol->second))) {
    return instance + " cost " + format_cost(cost) + ", pinned " +
           ref->second;
  }
  return "";
}

/// The checks every synthesis result gets: an OK status, a valid
/// implementation (the pipeline's own report and an independent
/// re-validation), a total cost that matches the implementation, no
/// regression past the point-to-point baseline, and an anytime-ladder stage
/// no worse than `worst`.
std::string check_result(const Result& r, double ptp_cost,
                         synth::SynthesisStage worst) {
  if (!r.ok()) return "synthesis error: " + r.status().to_string();
  if (!r->validation.ok()) {
    return "validation failed: " + r->validation.problems.front();
  }
  const model::ValidationReport again = model::validate(*r->implementation);
  if (!again.ok()) return "re-validation failed: " + again.problems.front();
  if (!same_cost(r->implementation->cost(), r->total_cost, 1e-9)) {
    return "total_cost " + format_cost(r->total_cost) +
           " disagrees with the implementation's " +
           format_cost(r->implementation->cost());
  }
  if (r->total_cost > ptp_cost * (1.0 + 1e-9)) {
    return "cost " + format_cost(r->total_cost) +
           " above the point-to-point baseline " + format_cost(ptp_cost);
  }
  if (r->degradation.stage > worst) {
    return "stage " + std::string(to_string(r->degradation.stage)) +
           " is worse than " + std::string(to_string(worst));
  }
  return "";
}

double ptp_cost(const model::ConstraintGraph& cg,
                const commlib::Library& library) {
  return baseline::point_to_point_baseline(cg, library).cost;
}

synth::SynthesisOptions options_for(int threads, bool partitioned) {
  synth::SynthesisOptions options;
  options.threads = threads;
  options.partitioning.enabled = partitioned;
  return options;
}

/// One partitioned synthesize() per unit on a fixed large instance. The
/// seed moves every port of the pinned base instance by up to `jitter`
/// along each axis (0: the seed is unused), small enough that every seed
/// does the same amount of work. The untimed warm-up solves the base
/// instance itself and checks its pinned cost.
class PartitionedWorkload : public Workload {
 public:
  PartitionedWorkload(std::string instance,
                      std::function<model::ConstraintGraph()> make_base,
                      double jitter, std::uint64_t seed, int threads,
                      const References& refs)
      : instance_(std::move(instance)),
        make_base_(std::move(make_base)),
        jitter_(jitter),
        seed_(seed),
        options_(options_for(threads, true)),
        refs_(refs) {}

  std::string setup() override {
    const model::ConstraintGraph base = make_base_();
    if (std::string f = check_fingerprint(refs_, instance_, base); !f.empty()) {
      return f;
    }
    input_ = base;
    for (const model::VertexId v : input_.ports()) {
      const geom::Point2D p = input_.position(v);
      const std::uint64_t i = 2 * v.index();
      const support::Status moved = input_.move_port(
          v, {p.x + jitter_ * signed_unit(seed_, i),
              p.y + jitter_ * signed_unit(seed_, i + 1)});
      if (!moved.ok()) return "jitter: " + moved.to_string();
    }
    if (std::string f = check_partition(); !f.empty()) return f;
    ptp_cost_ = ptp_cost(input_, library_);

    const Result warm = synth::synthesize(base, library_, options_);
    if (std::string f = check_result(warm, ptp_cost(base, library_),
                                     synth::SynthesisStage::kIncumbent);
        !f.empty()) {
      return "warm-up on " + instance_ + ": " + f;
    }
    return check_pinned_cost(refs_, instance_, warm->total_cost);
  }

  void run_unit(std::size_t) override {
    result_ = synth::synthesize(input_, library_, options_);
  }

  UnitCheck check_unit(std::size_t index) override {
    UnitCheck check;
    check.failure = check_result(result_, ptp_cost_,
                                 synth::SynthesisStage::kIncumbent);
    if (!check.failure.empty()) return check;
    const double cost = result_->total_cost;
    check.cost_ratio = cost / ptp_cost_;
    if (index == 0) {
      first_cost_ = cost;
    } else if (cost != first_cost_) {
      check.failure = "cost " + format_cost(cost) +
                      " differs from the first unit's " +
                      format_cost(first_cost_);
    }
    return check;
  }

 private:
  /// The partition the pipeline will use must place every arc in exactly
  /// one cluster, within the cluster size cap.
  std::string check_partition() const {
    const synth::Partition part =
        synth::partition_graph(input_, options_.partitioning);
    std::vector<int> seen(input_.num_channels(), 0);
    for (const synth::Cluster& cluster : part.clusters) {
      if (cluster.arcs.size() > options_.partitioning.max_cluster_arcs) {
        return "partition: a cluster exceeds max_cluster_arcs";
      }
      for (const model::ArcId a : cluster.arcs) ++seen[a.index()];
    }
    for (const int count : seen) {
      if (count != 1) return "partition: an arc is not in exactly one cluster";
    }
    return "";
  }

  std::string instance_;
  std::function<model::ConstraintGraph()> make_base_;
  double jitter_;
  std::uint64_t seed_;
  synth::SynthesisOptions options_;
  const References& refs_;
  commlib::Library library_ = commlib::wan_library();
  model::ConstraintGraph input_;
  double ptp_cost_{0.0};
  Result result_{support::Status::Internal("no unit run yet")};
  double first_cost_{0.0};
};

/// One Engine::apply() per unit over a seeded edit stream on the paper's
/// WAN: a designer's what-if loop. Each edit undoes the previous one and
/// tries one change against the base design -- one arc's bandwidth scaled,
/// or (one edit in eight) one port moved -- drawn from finite menus, so the
/// session keeps revisiting the same 35 graphs. The pricing cache and cover
/// reuse see steady-state hits and the time left is the fixed per-call
/// cost, the same for every seed.
class EditWorkload : public Workload {
 public:
  EditWorkload(std::uint64_t seed, int threads, const References& refs)
      : seed_(seed), options_(options_for(threads, false)), refs_(refs) {}

  std::string setup() override {
    model::ConstraintGraph graph = workloads::wan2002();
    if (std::string f = check_fingerprint(refs_, "wan2002", graph);
        !f.empty()) {
      return f;
    }
    for (const model::ArcId a : graph.arcs()) {
      arcs_.push_back({graph.channel(a).name, graph.bandwidth(a)});
    }
    for (const model::VertexId v : graph.ports()) {
      ports_.push_back({graph.port(v).name, graph.position(v)});
    }
    engine_ = std::make_unique<synth::Engine>(
        std::move(graph), commlib::wan_library(), options_);
    result_ = engine_->resynthesize();
    UnitCheck base = check_unit(0);
    if (base.failure.empty()) {
      base.failure = check_pinned_cost(refs_, "wan2002", result_->total_cost);
    }
    if (!base.failure.empty()) return "base solve: " + base.failure;

    run_unit(kWarmUp);
    const UnitCheck warm = check_unit(0);
    return warm.failure.empty() ? "" : "warm-up edit: " + warm.failure;
  }

  void run_unit(std::size_t index) override {
    result_ = engine_->apply(edit(index));
  }

  UnitCheck check_unit(std::size_t index) override {
    const model::ConstraintGraph& graph = engine_->graph();
    const double ptp = ptp_cost(graph, engine_->library());
    UnitCheck check;
    check.failure = check_result(result_, ptp, synth::SynthesisStage::kExact);
    if (!check.failure.empty()) return check;
    const double cost = result_->total_cost;
    check.cost_ratio = cost / ptp;

    const auto [seen, fresh] =
        state_costs_.emplace(workloads::fingerprint(graph), cost);
    if (!fresh && seen->second != cost) {
      check.failure = "revisited graph state costs " + format_cost(cost) +
                      ", earlier " + format_cost(seen->second);
    } else if (index % kOracleEvery == 0) {
      const Result scratch =
          synth::synthesize(graph, engine_->library(), options_);
      if (!scratch.ok() || !same_cost(scratch->total_cost, cost, 1e-9)) {
        check.failure = "from-scratch synthesize() disagrees with apply()";
      }
    }
    return check;
  }

 private:
  static constexpr std::size_t kOracleEvery = 100;
  /// Edit index of the warm-up unit: the one before unit 0, whose edit
  /// undoes it.
  static constexpr std::size_t kWarmUp = ~std::size_t{0};

  model::Delta edit(std::size_t index) const {
    model::Delta delta;
    delta.ops.push_back(change(index - 1, /*undo=*/true));
    delta.ops.push_back(change(index, /*undo=*/false));
    return delta;
  }

  /// Change `index` of the stream (one of four bandwidth scales of an arc,
  /// or one of three positions of a port), or the op that restores the
  /// element it changed.
  model::EditOp change(std::size_t index, bool undo) const {
    static constexpr double kScales[] = {0.5, 0.75, 1.0, 1.25};
    static constexpr geom::Point2D kOffsets[] = {{0, 0}, {1, 0}, {0, -1}};
    const std::uint64_t h = splitmix64(splitmix64(seed_) + index);
    if (h % 8 == 0) {
      const auto& [name, origin] = ports_[(h >> 3) % ports_.size()];
      return model::MovePortOp{
          name, undo ? origin : origin + kOffsets[(h >> 16) % 3]};
    }
    const auto& [name, bandwidth] = arcs_[(h >> 3) % arcs_.size()];
    return model::SetBandwidthOp{
        name, undo ? bandwidth : bandwidth * kScales[(h >> 16) % 4]};
  }

  std::uint64_t seed_;
  synth::SynthesisOptions options_;
  const References& refs_;
  std::vector<std::pair<std::string, double>> arcs_;
  std::vector<std::pair<std::string, geom::Point2D>> ports_;
  std::unique_ptr<synth::Engine> engine_;
  Result result_{support::Status::Internal("no unit run yet")};
  std::unordered_map<std::uint64_t, double> state_costs_;
};

/// One unit = one exact, unpartitioned synthesize() of each of the paper's
/// instances, each checked against its published cost. The inputs are
/// fixed; the seed is unused.
class CorpusWorkload : public Workload {
 public:
  CorpusWorkload(int threads, const References& refs)
      : options_(options_for(threads, false)), refs_(refs) {}

  std::string setup() override {
    instances_.clear();
    instances_.push_back({"wan2002", workloads::wan2002(),
                          commlib::wan_library()});
    instances_.push_back({"mpeg4_soc", workloads::mpeg4_soc(),
                          commlib::soc_library(workloads::kMpeg4CritLengthMm)});
    instances_.push_back({"campus_lan", workloads::campus_lan(),
                          commlib::lan_library()});
    instances_.push_back({"noc_4x4_hotspot",
                          workloads::noc_mesh(workloads::NocMeshParams{}),
                          commlib::noc_library()});
    for (Instance& in : instances_) {
      if (std::string f = check_fingerprint(refs_, in.name, in.graph);
          !f.empty()) {
        return f;
      }
      in.ptp_cost = ptp_cost(in.graph, in.library);
    }
    run_unit(0);
    const UnitCheck warm = check_unit(0);
    return warm.failure.empty() ? "" : "warm-up: " + warm.failure;
  }

  void run_unit(std::size_t) override {
    for (Instance& in : instances_) {
      in.result = synth::synthesize(in.graph, in.library, options_);
    }
  }

  UnitCheck check_unit(std::size_t) override {
    UnitCheck check;
    double log_ratio = 0.0;
    for (const Instance& in : instances_) {
      check.failure = check_result(in.result, in.ptp_cost,
                                   synth::SynthesisStage::kExact);
      if (check.failure.empty()) {
        check.failure =
            check_pinned_cost(refs_, in.name, in.result->total_cost);
      }
      if (!check.failure.empty()) {
        check.failure = in.name + ": " + check.failure;
        return check;
      }
      log_ratio += std::log(in.result->total_cost / in.ptp_cost);
    }
    check.cost_ratio =
        std::exp(log_ratio / static_cast<double>(instances_.size()));
    return check;
  }

 private:
  struct Instance {
    std::string name;
    model::ConstraintGraph graph;
    commlib::Library library;
    double ptp_cost{0.0};
    Result result{support::Status::Internal("no unit run yet")};
  };

  synth::SynthesisOptions options_;
  const References& refs_;
  std::vector<Instance> instances_;
};

}  // namespace

const std::vector<WorkloadSpec>& workload_specs() { return kSpecs; }

const WorkloadSpec* find_workload(std::string_view name) {
  for (const WorkloadSpec& spec : kSpecs) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

std::unique_ptr<Workload> make_workload(const WorkloadSpec& spec,
                                        std::uint64_t seed, int threads,
                                        const References& refs) {
  if (spec.name == "geo_wan_1k") {
    // Ports move by up to 1% of a site's radius: the cost moves by ~0.2%
    // and the run time not measurably. Drawing geo_wan(1000, seed) instead
    // makes a unit take anywhere from 510 to 790 ms, seed to seed.
    return std::make_unique<PartitionedWorkload>(
        "geo_wan_1000_7",
        [] {
          return workloads::geo_wan(workloads::GeoWanParams::sized(1000, 7));
        },
        0.04, seed, threads, refs);
  }
  if (spec.name == "noc_hotspot_12") {
    // No jitter: the Manhattan grid is full of exact ties, and any
    // perturbation -- even 0.5% of the tile pitch, or shifting the whole
    // die -- changes which equal-cost structures win, moving the cost by
    // up to 3% and the run time by up to 20%. The seed is unused.
    return std::make_unique<PartitionedWorkload>(
        "noc_12x12_hotspot",
        [] {
          workloads::NocMeshParams params;
          params.rows = 12;
          params.cols = 12;
          return workloads::noc_mesh(params);
        },
        0.0, seed, threads, refs);
  }
  if (spec.name == "edit_wan") {
    return std::make_unique<EditWorkload>(seed, threads, refs);
  }
  return std::make_unique<CorpusWorkload>(threads, refs);
}

}  // namespace cdcs::bench
