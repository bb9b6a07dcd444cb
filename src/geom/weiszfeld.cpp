#include "geom/weiszfeld.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "geom/hypot.hpp"
#include "geom/minimize.hpp"

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#define CDCS_HAVE_AVX2_BODY 1
#else
#define CDCS_HAVE_AVX2_BODY 0
#endif

namespace cdcs::geom {
namespace {

/// The weighted-median rule over (coord, weight) pairs sorted ascending:
/// the first coordinate at which the running weight reaches half the
/// total. It minimizes sum_i w_i * |x - c_i|.
double median_of_sorted(std::span<const std::pair<double, double>> sorted) {
  double total = 0.0;
  for (const auto& [c, w] : sorted) total += w;
  double acc = 0.0;
  for (const auto& [c, w] : sorted) {
    acc += w;
    if (acc >= total / 2.0) return c;
  }
  return sorted.empty() ? 0.0 : sorted.back().first;
}

/// Exact 1-D weighted median. Sorts `coord_weight` in place.
double weighted_median(std::span<std::pair<double, double>> coord_weight) {
  std::sort(coord_weight.begin(), coord_weight.end());
  return median_of_sorted(coord_weight);
}

/// Exact 1-D weighted median of three pairs. They are sorted as std::sort
/// sorts fewer than 17 elements, by a stable insertion sort: each swap
/// moves a pair past a strictly greater neighbour, so pairs that compare
/// equal (+0.0 and -0.0 among them) keep their input order, and the sorted
/// sequence is the one std::sort leaves.
double weighted_median3(std::array<std::pair<double, double>, 3> p) {
  if (p[1] < p[0]) std::swap(p[0], p[1]);
  if (p[2] < p[1]) std::swap(p[1], p[2]);
  if (p[1] < p[0]) std::swap(p[0], p[1]);
  return median_of_sorted(p);
}

/// Terminal counts up to which the Manhattan median sorts on the stack. The
/// pricers' placement solves (a chain drop's three pulls, a star's hub or
/// split over its spokes) stay within it; larger inputs use the heap.
constexpr std::size_t kInlineTerminals = 16;

Point2D manhattan_median(std::span<const Point2D> terminals,
                         std::span<const double> weights) {
  const std::size_t n = terminals.size();
  std::array<std::pair<double, double>, kInlineTerminals> inline_buf;
  std::vector<std::pair<double, double>> heap_buf;
  if (n > kInlineTerminals) heap_buf.resize(n);
  const std::span<std::pair<double, double>> buf =
      n > kInlineTerminals ? std::span(heap_buf)
                           : std::span(inline_buf).first(n);
  // One buffer serves both axes: x is taken before y is filled in.
  for (std::size_t i = 0; i < n; ++i) buf[i] = {terminals[i].x, weights[i]};
  const double x = weighted_median(buf);
  for (std::size_t i = 0; i < n; ++i) buf[i] = {terminals[i].y, weights[i]};
  return {x, weighted_median(buf)};
}

/// Weiszfeld's sentinel for an iterate sitting on a terminal.
constexpr double kAnchorEps = 1e-12;

/// distance(a, b, Norm::kEuclidean), without the per-call norm dispatch.
double euclidean_distance(Point2D a, Point2D b) {
  return geom::hypot(a.x - b.x, a.y - b.y);
}

/// The Fermat-Weber optimum is either interior (where the iteration
/// converges fast) or exactly AT a terminal, where Weiszfeld only crawls
/// toward it. Comparing `best` against every terminal makes the anchored
/// case exact -- important for the pricer's degenerate-trunk mergings,
/// whose cost must tie (not slightly exceed) the unmerged implementation.
/// `dist` is the norm's distance; `best`'s cost is fermat_weber_cost's sum.
template <std::size_t N, typename Distance>
Point2D anchor_sweep(Point2D best, std::span<const Point2D, N> terminals,
                     std::span<const double, N> weights, Distance dist) {
  double best_cost = 0.0;
  for (std::size_t i = 0; i < terminals.size(); ++i) {
    best_cost += weights[i] * dist(best, terminals[i]);
  }
  for (const Point2D& t : terminals) {
    // fermat_weber_cost(t, ...), abandoned once the partial sum reaches
    // best_cost: adding nonnegative terms never decreases it, so t could
    // no longer win.
    double c = 0.0;
    for (std::size_t i = 0; i < terminals.size() && c < best_cost; ++i) {
      c += weights[i] * dist(t, terminals[i]);
    }
    if (c < best_cost) {
      best_cost = c;
      best = t;
    }
  }
  return best;
}

Point2D anchor_sweep(Point2D best, std::span<const Point2D> terminals,
                     std::span<const double> weights, Norm norm) {
  return anchor_sweep(best, terminals, weights, [norm](Point2D a, Point2D b) {
    return distance(a, b, norm);
  });
}

/// The scalar Weiszfeld iteration from iterate `x` at iteration
/// `first_iteration`. The lane engine hands a problem over to it when an
/// iterate lands on a terminal of positive weight (Kuhn's rule), which the
/// lanes do not evaluate; it recomputes that iteration's sums, in the same
/// order, and runs to the end.
Point2D weiszfeld_from(std::span<const Point2D> terminals,
                       std::span<const double> weights,
                       const WeiszfeldOptions& options, Point2D x,
                       int first_iteration) {
  for (int it = first_iteration; it < options.max_iterations; ++it) {
    Point2D num{0.0, 0.0};
    double den = 0.0;
    double anchor_weight = 0.0;  // weight of the terminal x sits on, if any
    for (std::size_t i = 0; i < terminals.size(); ++i) {
      const double d = euclidean_distance(x, terminals[i]);
      if (d < kAnchorEps) {
        anchor_weight = weights[i];
        continue;
      }
      const double c = weights[i] / d;
      num += c * terminals[i];
      den += c;
    }
    if (den == 0.0) break;  // all terminals coincide with x
    Point2D next = num / den;
    if (anchor_weight > 0.0) {
      // Kuhn's rule: x coincides with terminal t of weight w. t is optimal
      // iff ||pull|| <= w, where pull is the net pull of the other
      // terminals; otherwise step away along the pull direction. Only this
      // rare case needs the pull, so it is summed here, in the same order
      // as the sweep above.
      Point2D pull{0.0, 0.0};
      for (std::size_t i = 0; i < terminals.size(); ++i) {
        const double d = euclidean_distance(x, terminals[i]);
        if (d < kAnchorEps) continue;
        pull += (weights[i] / d) * (terminals[i] - x);
      }
      const double pull_len = geom::hypot(pull.x, pull.y);
      if (pull_len <= anchor_weight) return x;
      const double step = (pull_len - anchor_weight) / den;
      next = x + (step / pull_len) * pull;
    }
    if (squared_length(next - x) <
        options.tolerance * options.tolerance) {
      return next;
    }
    x = next;
  }
  return x;
}

// --- Lane engine ----------------------------------------------------------

constexpr std::size_t kLanes = kWeiszfeldLanes;

/// Terminal blocks the engine holds without touching the heap: every
/// placement solve the pricers issue fits, so a single solve allocates
/// nothing.
constexpr std::size_t kInlineBlocks = 16;

/// Per-lane state of the engine, laid out for the lane bodies. Lane l of
/// terminal block j lives at blocks[3 * kLanes * j + l] (x), + kLanes (y)
/// and + 2 * kLanes (weight). A lane with count 0 is idle.
struct LaneState {
  alignas(32) double x[kLanes]{};
  alignas(32) double y[kLanes]{};
  alignas(32) double iteration[kLanes]{};  ///< completed iterations
  alignas(32) double count[kLanes]{};      ///< terminals of the lane's problem
  std::size_t max_count{0};                ///< max of count over the lanes
  const double* blocks{nullptr};
};

/// Lanes that ended in a step, as bit masks (bit l = lane l).
struct StepOutcome {
  unsigned finished;  ///< converged, capped or stalled: result in x/y
  unsigned kuhn;      ///< on a terminal: resume on the scalar path
};

/// One double: lane 0 alone. Both bodies switch to it while lane 0 is the
/// only busy lane (a lone solve, or a batch's last problem), where
/// evaluating four lanes would only lengthen each iteration. A load of lane
/// "vector" p reads p[0], lane 0's entry in every LaneState array.
struct LaneZero {
  using D = double;
  using M = bool;
  static D load(const double* p) { return p[0]; }
  static void store(double* p, D a) { p[0] = a; }
  static D set1(double a) { return a; }
  static D add(D a, D b) { return a + b; }
  static D sub(D a, D b) { return a - b; }
  static D mul(D a, D b) { return a * b; }
  static D div(D a, D b) { return a / b; }
  static D sqrt(D a) { return std::sqrt(a); }
  static D abs(D a) { return std::abs(a); }
  static D max(D a, D b) { return a > b ? a : b; }
  static D min(D a, D b) { return a < b ? a : b; }
  static M lt(D a, D b) { return a < b; }
  static M le(D a, D b) { return a <= b; }
  static M ge(D a, D b) { return a >= b; }
  static M eq(D a, D b) { return a == b; }
  static M both(M a, M b) { return a && b; }
  static M either(M a, M b) { return a || b; }
  static M but_not(M a, M b) { return !a && b; }
  static D select(M m, D if_true, D if_false) { return m ? if_true : if_false; }
  static unsigned bits(M m) { return m ? 1u : 0u; }
};

namespace lane_zero_body {
using V = LaneZero;
#define CDCS_LANE_TARGET
#include "geom/weiszfeld_lane_step.inc"
#undef CDCS_LANE_TARGET
}  // namespace lane_zero_body

/// Plain doubles, kLanes at a time: the portable body, LaneZero's
/// operations applied lane by lane.
struct PortableLanes {
  struct D {
    double v[kLanes];
  };
  struct M {
    bool v[kLanes];
  };
  template <typename R, typename F, typename... Args>
  static R each(F f, const Args&... args) {
    R r;
    for (std::size_t l = 0; l < kLanes; ++l) r.v[l] = f(args.v[l]...);
    return r;
  }
  static D load(const double* p) {
    D r;
    for (std::size_t l = 0; l < kLanes; ++l) r.v[l] = p[l];
    return r;
  }
  static void store(double* p, D a) {
    for (std::size_t l = 0; l < kLanes; ++l) p[l] = a.v[l];
  }
  static D set1(double a) {
    D r;
    for (std::size_t l = 0; l < kLanes; ++l) r.v[l] = a;
    return r;
  }
  static D add(D a, D b) { return each<D>(LaneZero::add, a, b); }
  static D sub(D a, D b) { return each<D>(LaneZero::sub, a, b); }
  static D mul(D a, D b) { return each<D>(LaneZero::mul, a, b); }
  static D div(D a, D b) { return each<D>(LaneZero::div, a, b); }
  static D sqrt(D a) { return each<D>(LaneZero::sqrt, a); }
  static D abs(D a) { return each<D>(LaneZero::abs, a); }
  static D max(D a, D b) { return each<D>(LaneZero::max, a, b); }
  static D min(D a, D b) { return each<D>(LaneZero::min, a, b); }
  static M lt(D a, D b) { return each<M>(LaneZero::lt, a, b); }
  static M le(D a, D b) { return each<M>(LaneZero::le, a, b); }
  static M ge(D a, D b) { return each<M>(LaneZero::ge, a, b); }
  static M eq(D a, D b) { return each<M>(LaneZero::eq, a, b); }
  static M both(M a, M b) { return each<M>(LaneZero::both, a, b); }
  static M either(M a, M b) { return each<M>(LaneZero::either, a, b); }
  static M but_not(M a, M b) { return each<M>(LaneZero::but_not, a, b); }
  static D select(M m, D if_true, D if_false) {
    return each<D>(LaneZero::select, m, if_true, if_false);
  }
  static unsigned bits(M m) {
    unsigned r = 0;
    for (std::size_t l = 0; l < kLanes; ++l) r |= unsigned{m.v[l]} << l;
    return r;
  }
};

namespace portable_body {
using V = PortableLanes;
#define CDCS_LANE_TARGET
#include "geom/weiszfeld_lane_step.inc"
#undef CDCS_LANE_TARGET
}  // namespace portable_body

#if CDCS_HAVE_AVX2_BODY
/// One problem per double of a 256-bit register. Every operation is the
/// correctly rounded IEEE one of the portable body (no FMA: the target is
/// "avx2" alone); compares are ordered and quiet, so a NaN fails them as
/// it fails the scalar comparison.
struct Avx2Lanes {
  using D = __m256d;
  using M = __m256d;
#define CDCS_LANE_OP [[gnu::target("avx2"), gnu::always_inline]] static inline
  CDCS_LANE_OP D load(const double* p) { return _mm256_loadu_pd(p); }
  CDCS_LANE_OP void store(double* p, D a) { _mm256_storeu_pd(p, a); }
  CDCS_LANE_OP D set1(double a) { return _mm256_set1_pd(a); }
  CDCS_LANE_OP D add(D a, D b) { return _mm256_add_pd(a, b); }
  CDCS_LANE_OP D sub(D a, D b) { return _mm256_sub_pd(a, b); }
  CDCS_LANE_OP D mul(D a, D b) { return _mm256_mul_pd(a, b); }
  CDCS_LANE_OP D div(D a, D b) { return _mm256_div_pd(a, b); }
  CDCS_LANE_OP D sqrt(D a) { return _mm256_sqrt_pd(a); }
  CDCS_LANE_OP D abs(D a) { return _mm256_andnot_pd(_mm256_set1_pd(-0.0), a); }
  // a > b ? a : b and a < b ? a : b, as the portable body.
  CDCS_LANE_OP D max(D a, D b) { return _mm256_max_pd(a, b); }
  CDCS_LANE_OP D min(D a, D b) { return _mm256_min_pd(a, b); }
  CDCS_LANE_OP M lt(D a, D b) { return _mm256_cmp_pd(a, b, _CMP_LT_OQ); }
  CDCS_LANE_OP M le(D a, D b) { return _mm256_cmp_pd(a, b, _CMP_LE_OQ); }
  CDCS_LANE_OP M ge(D a, D b) { return _mm256_cmp_pd(a, b, _CMP_GE_OQ); }
  CDCS_LANE_OP M eq(D a, D b) { return _mm256_cmp_pd(a, b, _CMP_EQ_OQ); }
  CDCS_LANE_OP M both(M a, M b) { return _mm256_and_pd(a, b); }
  CDCS_LANE_OP M either(M a, M b) { return _mm256_or_pd(a, b); }
  CDCS_LANE_OP M but_not(M a, M b) { return _mm256_andnot_pd(a, b); }
  CDCS_LANE_OP D select(M m, D if_true, D if_false) {
    return _mm256_blendv_pd(if_false, if_true, m);
  }
  CDCS_LANE_OP unsigned bits(M m) {
    return static_cast<unsigned>(_mm256_movemask_pd(m));
  }
#undef CDCS_LANE_OP
};

namespace avx2_body {
using V = Avx2Lanes;
#define CDCS_LANE_TARGET [[gnu::target("avx2")]]
#include "geom/weiszfeld_lane_step.inc"
#undef CDCS_LANE_TARGET
}  // namespace avx2_body
#endif

/// Drives the lane bodies: loads problems into idle lanes (centroid start
/// in the scalar order), steps, and finishes lanes (Kuhn hand-off, then the
/// anchor sweep) before refilling them.
class LaneEngine {
 public:
  LaneEngine(const WeiszfeldOptions& options, LaneBody body)
      : options_(options),
        tolerance_sq_(options.tolerance * options.tolerance),
        max_iterations_(static_cast<double>(options.max_iterations)),
        step_(portable_body::weiszfeld_steps) {
#if CDCS_HAVE_AVX2_BODY
    if (body == LaneBody::kAvx2) step_ = avx2_body::weiszfeld_steps;
#else
    (void)body;
#endif
    state_.blocks = inline_blocks_.data();
  }

  LaneEngine(const LaneEngine&) = delete;
  LaneEngine& operator=(const LaneEngine&) = delete;

  void run(WeiszfeldFeed& feed) {
    WeiszfeldProblem problem;
    for (;;) {
      for (std::size_t l = 0; l < kLanes; ++l) {
        while (state_.count[l] == 0.0 && feed.next(problem)) {
          load(l, problem, feed);
        }
      }
      if (state_.max_count == 0) return;  // every lane idle, nothing ready
      const bool lane_zero_alone =
          std::all_of(state_.count + 1, state_.count + kLanes,
                      [](double c) { return c == 0.0; });
      const StepOutcome outcome =
          (lane_zero_alone ? lane_zero_body::weiszfeld_steps : step_)(
              state_, tolerance_sq_, max_iterations_);
      for (std::size_t l = 0; l < kLanes; ++l) {
        if ((outcome.finished >> l) & 1u) {
          finish(l, {state_.x[l], state_.y[l]}, feed);
        } else if ((outcome.kuhn >> l) & 1u) {
          const WeiszfeldProblem& p = problems_[l];
          finish(l,
                 weiszfeld_from(p.terminals, p.weights, options_,
                                {state_.x[l], state_.y[l]},
                                static_cast<int>(state_.iteration[l])),
                 feed);
        }
      }
    }
  }

 private:
  /// Starts `problem` in idle lane `l`, or finishes it at once when no
  /// iteration runs (no terminals, no weight, no iteration budget).
  void load(std::size_t l, const WeiszfeldProblem& problem,
            WeiszfeldFeed& feed) {
    const std::span<const Point2D> terminals = problem.terminals;
    const std::span<const double> weights = problem.weights;
    const std::size_t n = terminals.size();
    if (n == 0) {
      feed.done(problem.id, {0.0, 0.0});
      return;
    }
    // Start from the weighted centroid.
    Point2D x{0.0, 0.0};
    double wsum = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      x += weights[i] * terminals[i];
      wsum += weights[i];
    }
    if (wsum <= 0.0) {
      feed.done(problem.id,
                anchor_sweep({0.0, 0.0}, terminals, weights, Norm::kEuclidean));
      return;
    }
    x = x / wsum;
    if (options_.max_iterations <= 0) {
      feed.done(problem.id,
                anchor_sweep(x, terminals, weights, Norm::kEuclidean));
      return;
    }
    reserve(n);
    for (std::size_t j = 0; j < n; ++j) {
      double* block = blocks() + 3 * kLanes * j;
      block[l] = terminals[j].x;
      block[kLanes + l] = terminals[j].y;
      block[2 * kLanes + l] = weights[j];
    }
    problems_[l] = problem;
    state_.x[l] = x.x;
    state_.y[l] = x.y;
    state_.iteration[l] = 0.0;
    state_.count[l] = static_cast<double>(n);
    state_.max_count = std::max(state_.max_count, n);
  }

  /// Idles lane `l` and reports its problem's median, `x` after the
  /// anchor sweep.
  void finish(std::size_t l, Point2D x, WeiszfeldFeed& feed) {
    const WeiszfeldProblem problem = problems_[l];
    state_.count[l] = 0.0;
    state_.x[l] = 0.0;
    state_.y[l] = 0.0;
    state_.iteration[l] = 0.0;
    state_.max_count = 0;
    for (std::size_t k = 0; k < kLanes; ++k) {
      state_.max_count = std::max(state_.max_count,
                                  static_cast<std::size_t>(state_.count[k]));
    }
    feed.done(problem.id, anchor_sweep(x, problem.terminals, problem.weights,
                                       Norm::kEuclidean));
  }

  double* blocks() { return const_cast<double*>(state_.blocks); }

  /// Makes room for `n` terminal blocks, keeping the busy lanes' blocks.
  /// Blocks enter service as unit terminals of unit weight, so the lanes
  /// that do not use them compute on ordinary numbers: uninitialized
  /// memory could hold subnormals, which cost a microcode assist per
  /// operation.
  void reserve(std::size_t n) {
    if (n > capacity_) {
      const std::size_t grown = std::max(n, 2 * capacity_);
      std::vector<double> heap(3 * kLanes * grown);
      std::copy_n(state_.blocks, 3 * kLanes * filled_, heap.begin());
      heap_blocks_ = std::move(heap);
      state_.blocks = heap_blocks_.data();
      capacity_ = grown;
    }
    if (n > filled_) {
      std::fill(blocks() + 3 * kLanes * filled_, blocks() + 3 * kLanes * n,
                1.0);
      filled_ = n;
    }
  }

  const WeiszfeldOptions options_;
  const double tolerance_sq_;
  const double max_iterations_;
  StepOutcome (*step_)(LaneState&, double, double);
  LaneState state_;
  WeiszfeldProblem problems_[kLanes];
  alignas(32) std::array<double, 3 * kLanes * kInlineBlocks> inline_blocks_;
  std::vector<double> heap_blocks_;
  std::size_t capacity_{kInlineBlocks};
  std::size_t filled_{0};  ///< blocks written since construction
};

/// A feed of one problem.
class SingleProblem final : public WeiszfeldFeed {
 public:
  SingleProblem(std::span<const Point2D> terminals,
                std::span<const double> weights)
      : problem_{0, terminals, weights} {}

  bool next(WeiszfeldProblem& problem) override {
    if (handed_out_) return false;
    handed_out_ = true;
    problem = problem_;
    return true;
  }
  void done(std::size_t, Point2D median) override { median_ = median; }

  Point2D median() const { return median_; }

 private:
  WeiszfeldProblem problem_;
  bool handed_out_{false};
  Point2D median_;
};

}  // namespace

double fermat_weber_cost(Point2D x, std::span<const Point2D> terminals,
                         std::span<const double> weights, Norm norm) {
  double cost = 0.0;
  for (std::size_t i = 0; i < terminals.size(); ++i) {
    cost += weights[i] * distance(x, terminals[i], norm);
  }
  return cost;
}

Point2D weighted_geometric_median(std::span<const Point2D> terminals,
                                  std::span<const double> weights, Norm norm,
                                  const WeiszfeldOptions& options) {
  if (terminals.size() != weights.size()) {
    throw std::invalid_argument(
        "weighted_geometric_median: terminals/weights size mismatch");
  }
  for (double w : weights) {
    if (w < 0.0) {
      throw std::invalid_argument(
          "weighted_geometric_median: negative weight");
    }
  }
  if (terminals.empty()) return {0.0, 0.0};

  if (norm == Norm::kEuclidean) {
    SingleProblem one(terminals, weights);
    solve_weiszfeld_lanes(one, options);
    return one.median();
  }
  Point2D best;
  if (norm == Norm::kManhattan) {
    best = manhattan_median(terminals, weights);
  } else {
    BBox box = BBox::of(terminals);
    box.inflate(1e-9);
    auto f = [&](Point2D p) {
      return fermat_weber_cost(p, terminals, weights, norm);
    };
    best = minimize_in_box(f, box).x;
  }
  return anchor_sweep(best, terminals, weights, norm);
}

Point2D manhattan_median3(std::span<const Point2D, 3> terminals,
                          std::span<const double, 3> weights) {
  const double x = weighted_median3({{{terminals[0].x, weights[0]},
                                      {terminals[1].x, weights[1]},
                                      {terminals[2].x, weights[2]}}});
  const double y = weighted_median3({{{terminals[0].y, weights[0]},
                                      {terminals[1].y, weights[1]},
                                      {terminals[2].y, weights[2]}}});
  return anchor_sweep(Point2D{x, y}, terminals, weights,
                      [](Point2D a, Point2D b) {
                        return distance(a, b, Norm::kManhattan);
                      });
}

std::string_view to_string(LaneBody body) {
  return body == LaneBody::kAvx2 ? "avx2" : "portable";
}

bool lane_body_supported(LaneBody body) {
#if CDCS_HAVE_AVX2_BODY
  if (body == LaneBody::kAvx2) {
    static const bool has_avx2 = __builtin_cpu_supports("avx2");
    return has_avx2;
  }
#endif
  return body == LaneBody::kPortable;
}

LaneBody default_lane_body() {
  return lane_body_supported(LaneBody::kAvx2) ? LaneBody::kAvx2
                                               : LaneBody::kPortable;
}

void solve_weiszfeld_lanes(WeiszfeldFeed& feed,
                           const WeiszfeldOptions& options, LaneBody body) {
  if (!lane_body_supported(body)) {
    throw std::invalid_argument("solve_weiszfeld_lanes: lane body '" +
                                std::string(to_string(body)) +
                                "' is not supported on this CPU");
  }
  LaneEngine engine(options, body);
  engine.run(feed);
}

}  // namespace cdcs::geom
