#include "synth/merging_pricer.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "geom/minimize.hpp"
#include "geom/weiszfeld.hpp"
#include "synth/canonical_order.hpp"

namespace cdcs::synth {
namespace {

constexpr double kCoincideEps = 1e-9;

bool all_coincide(std::span<const geom::Point2D> pts) {
  return std::all_of(pts.begin(), pts.end(), [&](geom::Point2D p) {
    return geom::almost_equal(p, pts.front(), kCoincideEps);
  });
}

/// Bitwise equality (not ==, which equates 0.0 and -0.0).
bool same_bits(geom::Point2D a, geom::Point2D b) {
  using Bits = std::array<std::uint64_t, 2>;
  return std::bit_cast<Bits>(a) == std::bit_cast<Bits>(b);
}

/// Runs up to `half_steps` alternating placement half-steps, hub first:
/// hub = hub_step(), split = split_step(), hub = hub_step(), ... Each
/// half-step moves only its own endpoint and is a pure, idempotent function
/// of the current endpoints. When half-step t >= 1 returns its input, the
/// state is still the one half-step t-1 produced, so half-step t+1 (the
/// same kind as t-1) returns its input too, and so does every later one:
/// stopping there yields exactly the endpoints of the full run.
template <typename HubStep, typename SplitStep>
void alternate_to_fixpoint(geom::Point2D& hub, geom::Point2D& split,
                           int half_steps, HubStep hub_step,
                           SplitStep split_step) {
  for (int t = 0; t < half_steps; ++t) {
    geom::Point2D& moved = t % 2 == 0 ? hub : split;
    const geom::Point2D next = t % 2 == 0 ? hub_step() : split_step();
    const bool fixpoint = t > 0 && same_bits(next, moved);
    moved = next;
    if (fixpoint) return;
  }
}

/// One star in flight: its legs in canonical order, the placement state and
/// its plan, which is built in the caller's output slot. A star advances
/// through: setup (start), the hub/split Weiszfeld alternation of
/// alternate_to_fixpoint, resumable one half-step at a time
/// (solve_problem / accept), Nelder-Mead refinement for non-linear
/// libraries, and the plan build (finish).
struct Star {
  std::optional<MergingPlan>* out{nullptr};
  std::size_t k{0};
  /// [hub terminals: sources..., split | split terminals: targets..., hub]
  std::vector<geom::Point2D> points;
  /// [bandwidths (k) | weights: leg slopes (k), trunk slope]
  std::vector<double> values;
  geom::Point2D hub;
  geom::Point2D split;
  int half_step{0};
  int half_steps{0};

  std::span<const geom::Point2D> sources() const {
    return std::span(points).first(k);
  }
  std::span<const geom::Point2D> targets() const {
    return std::span(points).subspan(k + 1, k);
  }
  std::span<const double> bandwidths() const {
    return std::span(values).first(k);
  }
  std::span<const double> weights() const {
    return std::span(values).subspan(k, k + 1);
  }
  MergingPlan& plan() { return **out; }
  bool both() { return plan().has_hub && plan().has_split; }
  /// Whether the current half-step places the hub (else the split).
  bool hub_turn() { return both() ? half_step % 2 == 0 : plan().has_hub; }
};

/// Prices a batch of stars, feeding their Euclidean placement solves to the
/// Weiszfeld lane engine.
class StarBatch final : public geom::WeiszfeldFeed {
 public:
  /// Alternation length with both endpoints free: 3 rounds.
  static constexpr int kHalfSteps = 6;

  StarBatch(const model::ConstraintGraph& cg, const commlib::Library& library,
            model::CapacityPolicy policy, const support::Deadline* deadline,
            std::span<const std::span<const model::ArcId>> subsets,
            std::span<std::optional<MergingPlan>> out)
      : cg_(cg),
        library_(library),
        policy_(policy),
        deadline_(deadline),
        subsets_(subsets),
        out_(out),
        norm_(cg.norm()),
        ptp_(library),
        linear_(library.linear_cost_model()),
        mux_(library.cheapest_node(commlib::NodeKind::kMux)),
        demux_(library.cheapest_node(commlib::NodeKind::kDemux)) {}

  void run() {
    if (norm_ == geom::Norm::kEuclidean) {
      geom::solve_weiszfeld_lanes(*this);
      return;
    }
    // Manhattan and Chebyshev solves run inline, one star at a time.
    Star& star = stars_[0];
    for (std::size_t i = 0; i < subsets_.size(); ++i) {
      if (!start(star, i)) continue;
      for (bool more = true; more;) {
        const geom::WeiszfeldProblem p = solve_problem(star);
        more = accept(star, geom::weighted_geometric_median(
                                p.terminals, p.weights, norm_));
      }
    }
  }

  bool next(geom::WeiszfeldProblem& problem) override {
    while (ready_count_ == 0) {
      if (next_subset_ == subsets_.size()) return false;
      // A lane is idle, so fewer than kWeiszfeldLanes stars are in flight.
      std::size_t free = 0;
      while (in_flight_[free]) ++free;
      if (start(stars_[free], next_subset_++)) {
        in_flight_[free] = true;
        push_ready(free);
      }
    }
    const std::size_t s = ready_[ready_head_];
    ready_head_ = (ready_head_ + 1) % kSlots;
    --ready_count_;
    problem = solve_problem(stars_[s]);
    problem.id = s;
    return true;
  }

  void done(std::size_t id, geom::Point2D median) override {
    if (accept(stars_[id], median)) {
      push_ready(id);
    } else {
      in_flight_[id] = false;
    }
  }

 private:
  static constexpr std::size_t kSlots = geom::kWeiszfeldLanes;

  void push_ready(std::size_t s) {
    ready_[(ready_head_ + ready_count_) % kSlots] = s;
    ++ready_count_;
  }

  /// Sets up star `i` in `star`. True when its first placement solve is
  /// ready; false when it is already finished (priced or nullopt).
  bool start(Star& star, std::size_t i) {
    std::optional<MergingPlan>& out = out_[i];
    out.reset();
    if (deadline_ && deadline_->expired()) return false;
    const std::span<const model::ArcId> subset = subsets_[i];
    if (subset.size() < 2) return false;
    star.out = &out;
    MergingPlan& plan = out.emplace();
    // Canonical geometry order, NOT ArcId order: the priced plan must be
    // a pure function of the subset's geometry (synth/canonical_order.hpp)
    // so renumbered or reordered arc ids price bit-identically.
    plan.arcs.assign(subset.begin(), subset.end());
    canonicalize_subset(cg_, plan.arcs);

    const std::size_t k = plan.arcs.size();
    star.k = k;
    star.points.resize(2 * (k + 1));
    star.values.resize(2 * k + 1);
    for (std::size_t j = 0; j < k; ++j) {
      const model::ArcId a = plan.arcs[j];
      star.points[j] = cg_.position(cg_.source(a));
      star.points[k + 1 + j] = cg_.position(cg_.target(a));
      star.values[j] = cg_.bandwidth(a);
    }
    plan.has_hub = !all_coincide(star.sources());
    plan.has_split = !all_coincide(star.targets());

    if (plan.has_hub) {
      plan.hub_node = mux_;
      if (!plan.hub_node) return fail(star);
    }
    if (plan.has_split) {
      plan.split_node = demux_;
      if (!plan.split_node) return fail(star);
    }

    plan.trunk_bandwidth = 0.0;
    for (double b : star.bandwidths()) {
      plan.trunk_bandwidth = policy_ == model::CapacityPolicy::kSharedSum
                                 ? plan.trunk_bandwidth + b
                                 : std::max(plan.trunk_bandwidth, b);
    }

    // Fixed endpoints when a side is common; otherwise optimize.
    star.hub = star.sources().front();
    star.split = star.targets().front();
    if (!plan.has_hub && !plan.has_split) return finish(star);

    // Weiszfeld placement: each free endpoint is pulled by its own legs
    // plus the trunk toward the opposite endpoint. Exact for linear cost
    // models; a warm start otherwise. Both instances share the weights
    // (leg slopes, then the trunk slope); the last terminal of each point
    // block is the opposite endpoint, rewritten before every solve.
    for (std::size_t j = 0; j < k; ++j) {
      star.values[k + j] = ptp_.length_slope(star.values[j]);
    }
    star.values[2 * k] = ptp_.length_slope(plan.trunk_bandwidth);
    // With both endpoints free, up to 3 rounds of alternation (6
    // half-steps), stopped at the first fixpoint. Under a linear cost
    // model leg costs are exactly slope * length + constants, so
    // alternating Weiszfeld solves each endpoint to optimality; other
    // libraries take only the first round, as the seed of the search in
    // refine(). A star with one free endpoint solves it once.
    star.half_step = 0;
    star.half_steps = star.both() ? (linear_ ? kHalfSteps : 2) : 1;
    return true;
  }

  /// The placement solve of the star's current half-step.
  geom::WeiszfeldProblem solve_problem(Star& star) {
    const std::size_t k = star.k;
    const std::span<geom::Point2D> points(star.points);
    if (star.hub_turn()) {
      points[k] = star.split;
      return {0, points.first(k + 1), star.weights()};
    }
    points[2 * k + 1] = star.hub;
    return {0, points.subspan(k + 1, k + 1), star.weights()};
  }

  /// Applies the current half-step's solve, as alternate_to_fixpoint does.
  /// True when the star has another half-step to solve; otherwise the star
  /// is finished.
  bool accept(Star& star, geom::Point2D next) {
    geom::Point2D& moved = star.hub_turn() ? star.hub : star.split;
    const bool fixpoint = star.half_step > 0 && same_bits(next, moved);
    moved = next;
    ++star.half_step;
    if (!fixpoint && star.half_step < star.half_steps) return true;
    if (!linear_) refine(star);
    finish(star);
    return false;
  }

  /// Variable cost as a function of the two trunk endpoints. Node costs are
  /// constants and added at the end.
  double legs_cost(Star& star, geom::Point2D hub, geom::Point2D split) {
    const MergingPlan& plan = star.plan();
    const std::span<const geom::Point2D> sources = star.sources();
    const std::span<const geom::Point2D> targets = star.targets();
    const std::span<const double> bandwidths = star.bandwidths();
    double total =
        ptp_.cost(geom::distance(hub, split, norm_), plan.trunk_bandwidth);
    for (std::size_t i = 0; i < star.k; ++i) {
      if (plan.has_hub) {
        total +=
            ptp_.cost(geom::distance(sources[i], hub, norm_), bandwidths[i]);
      }
      if (plan.has_split) {
        total +=
            ptp_.cost(geom::distance(split, targets[i], norm_), bandwidths[i]);
      }
    }
    return total;
  }

  /// Segmented / fixed-cost libraries make the objective piecewise; refine
  /// the Weiszfeld seed with a bounded derivative-free search. A half-step
  /// keeps its endpoint unless the search finds a value no worse than the
  /// current one.
  void refine(Star& star) {
    geom::BBox box;
    for (geom::Point2D p : star.sources()) box.expand(p);
    for (geom::Point2D p : star.targets()) box.expand(p);
    box.inflate(1e-6);
    geom::NelderMeadOptions nm;
    nm.max_iterations = 150;
    nm.restarts = 1;
    nm.tolerance = 1e-8;
    geom::Point2D& hub = star.hub;
    geom::Point2D& split = star.split;
    auto search_hub = [&] {
      const geom::MinimizeResult2D res = geom::minimize_in_box(
          [&](geom::Point2D h) { return legs_cost(star, h, split); }, box, 6,
          nm);
      return res.value <= legs_cost(star, hub, split) ? res.x : hub;
    };
    auto search_split = [&] {
      const geom::MinimizeResult2D res = geom::minimize_in_box(
          [&](geom::Point2D s) { return legs_cost(star, hub, s); }, box, 6,
          nm);
      return res.value <= legs_cost(star, hub, split) ? res.x : split;
    };
    if (star.both()) {
      alternate_to_fixpoint(hub, split, kHalfSteps, search_hub, search_split);
    } else if (star.plan().has_hub) {
      hub = search_hub();
    } else {
      split = search_split();
    }
  }

  /// Materializes the leg plans at the chosen positions. Always false (the
  /// star is finished); the plan is reset when a leg has no feasible plan.
  bool finish(Star& star) {
    MergingPlan& plan = star.plan();
    const geom::Point2D hub = star.hub;
    const geom::Point2D split = star.split;
    plan.hub_pos = hub;
    plan.split_pos = split;

    double cost = 0.0;
    const double trunk_span = geom::distance(hub, split, norm_);
    std::optional<PtpPlan> trunk = ptp_.plan(trunk_span, plan.trunk_bandwidth);
    if (!trunk) return fail(star);
    plan.trunk = trunk;
    cost += trunk->cost;

    const std::span<const geom::Point2D> sources = star.sources();
    const std::span<const geom::Point2D> targets = star.targets();
    const std::span<const double> bandwidths = star.bandwidths();
    plan.ingress.resize(star.k);
    plan.egress.resize(star.k);
    for (std::size_t i = 0; i < star.k; ++i) {
      if (plan.has_hub) {
        auto leg =
            ptp_.plan(geom::distance(sources[i], hub, norm_), bandwidths[i]);
        if (!leg) return fail(star);
        cost += leg->cost;
        plan.ingress[i] = leg;
      }
      if (plan.has_split) {
        auto leg =
            ptp_.plan(geom::distance(split, targets[i], norm_), bandwidths[i]);
        if (!leg) return fail(star);
        cost += leg->cost;
        plan.egress[i] = leg;
      }
    }
    if (plan.hub_node) cost += library_.node(*plan.hub_node).cost;
    if (plan.split_node) cost += library_.node(*plan.split_node).cost;
    plan.cost = cost;
    return false;
  }

  /// The star has no plan. Always false (the star is finished).
  bool fail(Star& star) {
    star.out->reset();
    return false;
  }

  const model::ConstraintGraph& cg_;
  const commlib::Library& library_;
  const model::CapacityPolicy policy_;
  const support::Deadline* deadline_;
  const std::span<const std::span<const model::ArcId>> subsets_;
  const std::span<std::optional<MergingPlan>> out_;
  const geom::Norm norm_;
  const PtpCostModel ptp_;
  const bool linear_;
  const std::optional<commlib::NodeIndex> mux_;
  const std::optional<commlib::NodeIndex> demux_;

  std::array<Star, kSlots> stars_;
  std::array<bool, kSlots> in_flight_{};
  /// Stars whose next solve is ready, oldest first (a ring).
  std::array<std::size_t, kSlots> ready_{};
  std::size_t ready_head_{0};
  std::size_t ready_count_{0};
  std::size_t next_subset_{0};
};

}  // namespace

std::optional<MergingPlan> price_merging(const model::ConstraintGraph& cg,
                                         const commlib::Library& library,
                                         std::vector<model::ArcId> subset,
                                         model::CapacityPolicy policy,
                                         const support::Deadline* deadline) {
  const std::span<const model::ArcId> subsets[] = {subset};
  std::optional<MergingPlan> out;
  StarBatch(cg, library, policy, deadline, subsets, {&out, 1}).run();
  return out;
}

std::vector<std::optional<MergingPlan>> price_mergings(
    const model::ConstraintGraph& cg, const commlib::Library& library,
    std::span<const std::span<const model::ArcId>> subsets,
    model::CapacityPolicy policy, const support::Deadline* deadline) {
  std::vector<std::optional<MergingPlan>> out(subsets.size());
  StarBatch(cg, library, policy, deadline, subsets, out).run();
  return out;
}

}  // namespace cdcs::synth
