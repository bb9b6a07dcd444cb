#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "commlib/standard_libraries.hpp"
#include "sim/delay.hpp"
#include "synth/ptp.hpp"

namespace cdcs::synth {
namespace {

TEST(Ptp, MatchingWhenOneLinkSuffices) {
  const commlib::Library lib = commlib::wan_library();
  const auto plan = best_point_to_point(5.0, 10.0, lib);
  ASSERT_TRUE(plan.has_value());
  EXPECT_TRUE(plan->is_matching());
  EXPECT_EQ(lib.link(plan->link).name, "radio");
  EXPECT_DOUBLE_EQ(plan->cost, 5.0 * 2000.0);
}

TEST(Ptp, PicksFasterLinkWhenBandwidthDemands) {
  const commlib::Library lib = commlib::wan_library();
  // 30 Mbps > 11 Mbps radio: either 3 parallel radios (6000/km + free
  // junction mux/demux) or one optical (4000/km). Optical wins.
  const auto plan = best_point_to_point(10.0, 30.0, lib);
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(lib.link(plan->link).name, "optical");
  EXPECT_TRUE(plan->is_matching());
}

TEST(Ptp, DuplicationWhenCheaperThanUpgrade) {
  // 20 Mbps: 2 radios cost 4000/km, equal to optical's 4000/km; tie is
  // broken by evaluation order (radio first), but force the interesting
  // case at 21 Mbps where duplication still needs 2 radios.
  const commlib::Library lib = commlib::wan_library();
  const auto plan = best_point_to_point(10.0, 21.0, lib);
  ASSERT_TRUE(plan.has_value());
  // 2 radios = 4000/km == optical 4000/km; either is optimal.
  EXPECT_DOUBLE_EQ(plan->cost, 40000.0);
  if (plan->parallel == 2) {
    EXPECT_EQ(lib.link(plan->link).name, "radio");
    ASSERT_TRUE(plan->mux.has_value());
    ASSERT_TRUE(plan->demux.has_value());
  }
}

TEST(Ptp, SegmentationCountsRepeaters) {
  const commlib::Library lib = commlib::soc_library(0.6);
  const auto plan = best_point_to_point(2.0, 1.0, lib);
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->segments, 4);  // ceil(2.0 / 0.6)
  EXPECT_EQ(plan->parallel, 1);
  ASSERT_TRUE(plan->repeater.has_value());
  EXPECT_DOUBLE_EQ(plan->cost, 3.0);  // 3 repeaters, wires free
}

TEST(Ptp, ExactMultipleSpanAvoidsOffByOne) {
  const commlib::Library lib = commlib::soc_library(0.6);
  // 1.8 mm = exactly 3 wires; a naive ceil(1.8/0.6) with floating point
  // noise could give 4.
  const auto plan = best_point_to_point(1.8, 1.0, lib);
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->segments, 3);
  EXPECT_DOUBLE_EQ(plan->cost, 2.0);
}

TEST(Ptp, SegmentationAndDuplicationCombined) {
  commlib::Library lib("grid");
  lib.add_link(commlib::Link{.name = "short-slow",
                             .max_span = 1.0,
                             .bandwidth = 5.0,
                             .fixed_cost = 1.0,
                             .cost_per_length = 0.0});
  lib.add_node(commlib::Node{
      .name = "rep", .kind = commlib::NodeKind::kRepeater, .cost = 10.0});
  lib.add_node(commlib::Node{
      .name = "mux", .kind = commlib::NodeKind::kMux, .cost = 3.0});
  lib.add_node(commlib::Node{
      .name = "demux", .kind = commlib::NodeKind::kDemux, .cost = 3.0});
  const auto plan = best_point_to_point(2.5, 12.0, lib);
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->segments, 3);   // ceil(2.5/1)
  EXPECT_EQ(plan->parallel, 3);   // ceil(12/5)
  // 3 branches x 3 links x $1 + 3 branches x 2 repeaters x $10 + mux+demux.
  EXPECT_DOUBLE_EQ(plan->cost, 9.0 + 60.0 + 6.0);
}

TEST(Ptp, InfeasibleWithoutRepeater) {
  commlib::Library lib("norep");
  lib.add_link(commlib::Link{
      .name = "short", .max_span = 1.0, .bandwidth = 5.0, .fixed_cost = 1.0});
  EXPECT_FALSE(best_point_to_point(2.0, 1.0, lib).has_value());
  EXPECT_TRUE(std::isinf(best_point_to_point_cost(2.0, 1.0, lib)));
  // Within reach it is feasible.
  EXPECT_TRUE(best_point_to_point(0.9, 1.0, lib).has_value());
}

TEST(Ptp, InfeasibleWithoutMuxDemux) {
  commlib::Library lib("nomux");
  lib.add_link(commlib::Link{
      .name = "slow", .max_span = 10.0, .bandwidth = 5.0, .fixed_cost = 1.0});
  EXPECT_FALSE(best_point_to_point(1.0, 6.0, lib).has_value());
  EXPECT_TRUE(best_point_to_point(1.0, 5.0, lib).has_value());
}

TEST(Ptp, ZeroSpanIsLegal) {
  const commlib::Library lib = commlib::wan_library();
  const auto plan = best_point_to_point(0.0, 10.0, lib);
  ASSERT_TRUE(plan.has_value());
  EXPECT_DOUBLE_EQ(plan->cost, 0.0);  // per-length links cost nothing at 0
  EXPECT_EQ(plan->segments, 1);
}

TEST(Ptp, SkipsZeroBandwidthLinks) {
  commlib::Library lib("zb");
  lib.add_link(commlib::Link{.name = "broken", .bandwidth = 0.0});
  lib.add_link(commlib::Link{
      .name = "ok", .bandwidth = 1.0, .fixed_cost = 1.0});
  const auto plan = best_point_to_point(1.0, 1.0, lib);
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(lib.link(plan->link).name, "ok");
}

// Assumption 2.1 must hold on the paper's libraries: optimal point-to-point
// cost is monotone in (distance, bandwidth) and positive.
class Assumption21 : public ::testing::TestWithParam<const char*> {};

TEST_P(Assumption21, HoldsOnStandardLibraries) {
  const std::string which = GetParam();
  commlib::Library lib =
      which == "wan"   ? commlib::wan_library()
      : which == "soc" ? commlib::soc_library(0.6)
                       : commlib::lan_library();
  // For the SoC library, channels shorter than l_crit cost zero repeaters,
  // so C(P(a)) > 0 only holds on the paper instance's range d > l_crit
  // (every MPEG-4 critical channel is); check the assumption there.
  const std::vector<double> spans = which == "soc"
                                        ? std::vector<double>{0.7, 1.0, 2.0,
                                                              3.7, 5.0, 20.0}
                                        : std::vector<double>{0.1, 0.5, 1.0,
                                                              2.0, 5.0, 20.0,
                                                              100.0};
  const std::vector<double> bws = {0.5, 1.0, 5.0, 10.0, 25.0, 60.0};
  EXPECT_TRUE(check_assumption_2_1(lib, spans, bws).empty());
}

INSTANTIATE_TEST_SUITE_P(Libraries, Assumption21,
                         ::testing::Values("wan", "soc", "lan"));

TEST(Assumption21, DetectsViolatingLibrary) {
  // A pathological library: a long-reach link CHEAPER than the short one,
  // making cost non-monotone in distance (cost drops when d crosses 1.0).
  commlib::Library lib("weird");
  lib.add_link(commlib::Link{.name = "short-pricey",
                             .max_span = 1.0,
                             .bandwidth = 10.0,
                             .fixed_cost = 100.0});
  lib.add_link(commlib::Link{.name = "long-cheap",
                             .max_span = 100.0,
                             .bandwidth = 10.0,
                             .fixed_cost = 100.0,
                             .cost_per_length = 0.0});
  // Monotone actually (equal costs). Make short strictly worse via usage:
  // at d <= 1 both links cost 100 -> still monotone. Force violation with a
  // fixed+per-length crossing instead:
  commlib::Library lib2("crossing");
  lib2.add_link(commlib::Link{.name = "per-meter",
                              .max_span = 2.0,
                              .bandwidth = 10.0,
                              .cost_per_length = 50.0});
  lib2.add_link(commlib::Link{.name = "flat-rate",
                              .max_span = 100.0,
                              .bandwidth = 10.0,
                              .fixed_cost = 60.0});
  // d=0.5 -> min(25, 60) = 25; d=2.0 -> min(100,60) = 60: monotone. The
  // grid check should accordingly find no violation here...
  EXPECT_TRUE(check_assumption_2_1(lib2, {0.5, 2.0}, {1.0}).empty());
  // ...but a zero-cost point breaks positivity.
  commlib::Library lib3("freebie");
  lib3.add_link(commlib::Link{.name = "free-short",
                              .max_span = 1.0,
                              .bandwidth = 10.0});
  EXPECT_FALSE(check_assumption_2_1(lib3, {0.5}, {1.0}).empty());
}

// ---------------------------------------------------------------------------
// PtpCostModel equivalence. The reference below is the stand-alone
// optimizer loop PtpCostModel replaced, kept verbatim as the oracle: it
// looks the cheapest repeater/mux/demux up on every call and builds a full
// plan. The model must agree with it bit-for-bit, including the 1e-9
// structural tie-break and the robust ceil at exact multiples.

int reference_ceil_div(double a, double b) {
  const double q = a / b;
  const double r = std::round(q);
  if (std::abs(q - r) < 1e-9 * std::max(1.0, std::abs(q))) {
    return static_cast<int>(r);
  }
  return static_cast<int>(std::ceil(q));
}

std::optional<PtpPlan> reference_ptp(double span, double bandwidth,
                                     const commlib::Library& library,
                                     const DelayConstraint* delay = nullptr) {
  std::optional<PtpPlan> best;
  const auto repeater = library.cheapest_node(commlib::NodeKind::kRepeater);
  const auto mux = library.cheapest_node(commlib::NodeKind::kMux);
  const auto demux = library.cheapest_node(commlib::NodeKind::kDemux);

  for (commlib::LinkIndex li = 0; li < library.links().size(); ++li) {
    const commlib::Link& l = library.link(li);
    if (l.bandwidth <= 0.0) continue;
    int k = 1;
    if (!l.spans(span)) {
      if (!std::isfinite(l.max_span) || l.max_span <= 0.0) continue;
      k = reference_ceil_div(span, l.max_span);
    }
    const int m = std::max(1, reference_ceil_div(bandwidth, l.bandwidth));
    if (k > 1 && !repeater) continue;
    if (m > 1 && (!mux || !demux)) continue;
    if (delay != nullptr &&
        delay->model->link_delay_per_length * span +
                delay->model->node_delay * (k - 1) >
            delay->budget + 1e-12) {
      continue;
    }
    const double branch_links = l.cost_per_length * span + l.fixed_cost * k;
    double cost = m * branch_links;
    if (k > 1) cost += m * (k - 1) * library.node(*repeater).cost;
    if (m > 1) cost += library.node(*mux).cost + library.node(*demux).cost;
    const bool better =
        !best || cost < best->cost - 1e-9 ||
        (cost <= best->cost + 1e-9 &&
         (m < best->parallel ||
          (m == best->parallel && k < best->segments)));
    if (better) {
      best = PtpPlan{.link = li,
                     .segments = k,
                     .parallel = m,
                     .repeater = k > 1 ? repeater : std::nullopt,
                     .mux = m > 1 ? mux : std::nullopt,
                     .demux = m > 1 ? demux : std::nullopt,
                     .span = span,
                     .bandwidth = bandwidth,
                     .cost = cost};
    }
  }
  return best;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// `base`, its neighbouring doubles, and points inside and just outside
/// the 1e-9 relative band robust_ceil_div snaps to an integer.
void add_edges(std::vector<double>& out, double base) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  out.push_back(base);
  out.push_back(std::nextafter(base, 0.0));
  out.push_back(std::nextafter(base, kInf));
  for (const double rel : {5e-10, 2e-9}) {
    out.push_back(base * (1.0 + rel));
    out.push_back(base * (1.0 - rel));
  }
}

/// Spans and bandwidths for `lib`: plain values plus exact multiples of
/// every finite max_span and every link bandwidth, with their edges.
void grid_for(const commlib::Library& lib, std::vector<double>& spans,
              std::vector<double>& bandwidths) {
  spans = {0.0, 1e-3, 0.3, 1.0, 2.5, 10.0, 123.456, 1000.0};
  bandwidths = {0.1, 0.5, 1.0, 3.0, 7.5, 100.0};
  for (const commlib::Link& l : lib.links()) {
    for (int k = 1; k <= 6; ++k) {
      if (std::isfinite(l.max_span)) add_edges(spans, k * l.max_span);
      add_edges(bandwidths, k * l.bandwidth);
    }
  }
}

void expect_same_plan(const std::optional<PtpPlan>& got,
                      const std::optional<PtpPlan>& want,
                      const std::string& where) {
  ASSERT_EQ(got.has_value(), want.has_value()) << where;
  if (!want) return;
  EXPECT_EQ(bits(got->cost), bits(want->cost)) << where;
  EXPECT_EQ(got->link, want->link) << where;
  EXPECT_EQ(got->segments, want->segments) << where;
  EXPECT_EQ(got->parallel, want->parallel) << where;
  EXPECT_EQ(got->repeater, want->repeater) << where;
  EXPECT_EQ(got->mux, want->mux) << where;
  EXPECT_EQ(got->demux, want->demux) << where;
  EXPECT_EQ(bits(got->span), bits(want->span)) << where;
  EXPECT_EQ(bits(got->bandwidth), bits(want->bandwidth)) << where;
}

std::vector<commlib::Library> equivalence_libraries() {
  std::vector<commlib::Library> libs = {
      commlib::wan_library(), commlib::soc_library(0.6),
      commlib::noc_library(), commlib::mcm_library(), commlib::lan_library()};
  // Two links whose costs differ by less than the 1e-9 tie band: the
  // structural tie-break (fewer branches, then fewer segments) decides.
  commlib::Library tie("tie-band");
  tie.add_link(commlib::Link{.name = "thin",
                             .max_span = 2.0,
                             .bandwidth = 1.0,
                             .fixed_cost = 0.0,
                             .cost_per_length = 1.0});
  tie.add_link(commlib::Link{.name = "wide",
                             .max_span = 1.0,
                             .bandwidth = 2.0,
                             .fixed_cost = 0.0,
                             .cost_per_length = 2.0 + 1e-12});
  tie.add_node(commlib::Node{
      .name = "rep", .kind = commlib::NodeKind::kRepeater, .cost = 0.0});
  tie.add_node(commlib::Node{
      .name = "sw", .kind = commlib::NodeKind::kSwitch, .cost = 0.0});
  libs.push_back(tie);
  // Infeasible corners: no repeater past max_span, no mux/demux past the
  // link bandwidth, and no link at all.
  commlib::Library norep("norep");
  norep.add_link(commlib::Link{
      .name = "short", .max_span = 1.0, .bandwidth = 5.0, .fixed_cost = 1.0});
  norep.add_node(commlib::Node{
      .name = "mux", .kind = commlib::NodeKind::kMux, .cost = 3.0});
  norep.add_node(commlib::Node{
      .name = "demux", .kind = commlib::NodeKind::kDemux, .cost = 3.0});
  libs.push_back(norep);
  commlib::Library nomux("nomux");
  nomux.add_link(commlib::Link{
      .name = "slow", .max_span = 10.0, .bandwidth = 5.0, .fixed_cost = 1.0});
  nomux.add_node(commlib::Node{
      .name = "rep", .kind = commlib::NodeKind::kRepeater, .cost = 2.0});
  libs.push_back(nomux);
  libs.emplace_back("empty");
  return libs;
}

TEST(PtpCostModel, MatchesReferenceBitForBit) {
  std::size_t infeasible = 0;
  for (const commlib::Library& lib : equivalence_libraries()) {
    const PtpCostModel model(lib);
    std::vector<double> spans;
    std::vector<double> bandwidths;
    grid_for(lib, spans, bandwidths);
    for (const double d : spans) {
      for (const double b : bandwidths) {
        const std::string where =
            lib.name() + " d=" + std::to_string(d) + " b=" + std::to_string(b);
        const std::optional<PtpPlan> want = reference_ptp(d, b, lib);
        const double want_cost =
            want ? want->cost : std::numeric_limits<double>::infinity();
        EXPECT_EQ(bits(model.cost(d, b)), bits(want_cost)) << where;
        EXPECT_EQ(bits(best_point_to_point_cost(d, b, lib)), bits(want_cost))
            << where;
        expect_same_plan(model.plan(d, b), want, where);
        expect_same_plan(best_point_to_point(d, b, lib), want, where);
        infeasible += !want;
      }
    }
  }
  // The infeasible corners were actually exercised (+inf costs above).
  EXPECT_GT(infeasible, 0u);
}

TEST(PtpCostModel, MatchesReferenceUnderDelayBudgets) {
  const sim::DelayModel delay_model{.link_delay_per_length = 0.5,
                                    .node_delay = 0.25};
  for (const commlib::Library& lib : equivalence_libraries()) {
    const PtpCostModel model(lib);
    std::vector<double> spans;
    std::vector<double> bandwidths;
    grid_for(lib, spans, bandwidths);
    for (const double budget : {0.0, 0.6, 1.5, 40.0}) {
      const DelayConstraint delay{.model = &delay_model, .budget = budget};
      for (const double d : spans) {
        for (const double b : bandwidths) {
          expect_same_plan(model.plan(d, b, &delay),
                           reference_ptp(d, b, lib, &delay),
                           lib.name() + " budget=" + std::to_string(budget) +
                               " d=" + std::to_string(d) +
                               " b=" + std::to_string(b));
        }
      }
    }
  }
}

}  // namespace
}  // namespace cdcs::synth
