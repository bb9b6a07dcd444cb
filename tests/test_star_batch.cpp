// Batched star pricing (price_mergings) against one star at a time
// (price_merging): hub/split bits, cost bits and every leg plan must agree,
// whatever the norm, library, capacity policy, batch order or deadline.
#include <algorithm>
#include <bit>
#include <cstdint>
#include <optional>
#include <random>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "commlib/standard_libraries.hpp"
#include "support/deadline.hpp"
#include "synth/candidate_generator.hpp"
#include "synth/merging_pricer.hpp"
#include "synth/pricing_cache.hpp"
#include "workloads/lan.hpp"
#include "workloads/mcm.hpp"
#include "workloads/mpeg4_soc.hpp"
#include "workloads/noc_mesh.hpp"
#include "workloads/scale_gen.hpp"
#include "workloads/wan2002.hpp"

namespace cdcs::synth {
namespace {

using model::ArcId;
using model::CapacityPolicy;
using model::ConstraintGraph;

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_same_ptp(const std::optional<PtpPlan>& got,
                     const std::optional<PtpPlan>& want,
                     const std::string& where) {
  ASSERT_EQ(got.has_value(), want.has_value()) << where;
  if (!got) return;
  EXPECT_EQ(got->link, want->link) << where;
  EXPECT_EQ(got->segments, want->segments) << where;
  EXPECT_EQ(got->parallel, want->parallel) << where;
  EXPECT_EQ(got->repeater, want->repeater) << where;
  EXPECT_EQ(got->mux, want->mux) << where;
  EXPECT_EQ(got->demux, want->demux) << where;
  EXPECT_EQ(bits(got->span), bits(want->span)) << where;
  EXPECT_EQ(bits(got->bandwidth), bits(want->bandwidth)) << where;
  EXPECT_EQ(bits(got->cost), bits(want->cost)) << where;
}

void expect_same_star(const std::optional<MergingPlan>& got,
                      const std::optional<MergingPlan>& want,
                      const std::string& where) {
  ASSERT_EQ(got.has_value(), want.has_value()) << where;
  if (!got) return;
  EXPECT_EQ(got->arcs, want->arcs) << where;
  EXPECT_EQ(got->has_hub, want->has_hub) << where;
  EXPECT_EQ(got->has_split, want->has_split) << where;
  EXPECT_EQ(bits(got->hub_pos.x), bits(want->hub_pos.x)) << where;
  EXPECT_EQ(bits(got->hub_pos.y), bits(want->hub_pos.y)) << where;
  EXPECT_EQ(bits(got->split_pos.x), bits(want->split_pos.x)) << where;
  EXPECT_EQ(bits(got->split_pos.y), bits(want->split_pos.y)) << where;
  EXPECT_EQ(got->hub_node, want->hub_node) << where;
  EXPECT_EQ(got->split_node, want->split_node) << where;
  EXPECT_EQ(bits(got->trunk_bandwidth), bits(want->trunk_bandwidth)) << where;
  expect_same_ptp(got->trunk, want->trunk, where + " trunk");
  ASSERT_EQ(got->ingress.size(), want->ingress.size()) << where;
  ASSERT_EQ(got->egress.size(), want->egress.size()) << where;
  for (std::size_t i = 0; i < got->ingress.size(); ++i) {
    expect_same_ptp(got->ingress[i], want->ingress[i],
                    where + " ingress " + std::to_string(i));
    expect_same_ptp(got->egress[i], want->egress[i],
                    where + " egress " + std::to_string(i));
  }
  EXPECT_EQ(bits(got->cost), bits(want->cost)) << where;
}

/// A candidate's star plan, if that is its structure.
std::optional<MergingPlan> star_of(const Candidate& c) {
  if (const auto* star = std::get_if<MergingPlan>(&c.plan)) return *star;
  return std::nullopt;
}

/// `cg` with every position kept but distances under `norm`.
ConstraintGraph with_norm(const ConstraintGraph& cg, geom::Norm norm) {
  ConstraintGraph out(norm);
  for (model::VertexId v : cg.ports()) {
    out.add_port(cg.port(v).name, cg.position(v));
  }
  for (ArcId a : cg.arcs()) {
    out.add_channel(cg.source(a), cg.target(a), cg.bandwidth(a),
                    cg.channel(a).name);
  }
  return out;
}

/// Parallel arcs (no hub, no split), a common source (no hub), a common
/// target (no split) and a two-sided star, on one graph.
ConstraintGraph degenerate_graph() {
  ConstraintGraph cg;
  const auto s = cg.add_port("s", {0, 0});
  const auto t = cg.add_port("t", {120, 40});
  const auto a = cg.add_port("a", {300, 10});
  const auto b = cg.add_port("b", {310, -40});
  const auto c = cg.add_port("c", {-50, 200});
  cg.add_channel(s, t, 5.0);   // a1 \ parallel
  cg.add_channel(s, t, 7.0);   // a2 /
  cg.add_channel(s, a, 4.0);   // a3 common source with a1, a2, a4
  cg.add_channel(s, b, 6.0);   // a4
  cg.add_channel(a, t, 3.0);   // a5 common target with a1, a2, a6
  cg.add_channel(c, t, 8.0);   // a6
  cg.add_channel(c, b, 2.0);   // a7
  return cg;
}

struct Instance {
  std::string name;
  ConstraintGraph cg;
  commlib::Library lib;
};

std::vector<Instance> corpus() {
  std::vector<Instance> out;
  out.push_back({"wan2002", workloads::wan2002(), commlib::wan_library()});
  out.push_back(
      {"campus_lan", workloads::campus_lan(), commlib::lan_library()});
  out.push_back({"mpeg4_soc", workloads::mpeg4_soc(),
                 commlib::soc_library(workloads::kMpeg4CritLengthMm)});
  out.push_back({"noc_mesh", workloads::noc_mesh(workloads::NocMeshParams{}),
                 commlib::noc_library()});
  out.push_back({"mcm_board", workloads::mcm_board(), commlib::mcm_library()});
  out.push_back({"geo_wan",
                 workloads::geo_wan(workloads::GeoWanParams::sized(120, 7)),
                 commlib::wan_library()});
  out.push_back({"wan2002_chebyshev",
                 with_norm(workloads::wan2002(), geom::Norm::kChebyshev),
                 commlib::wan_library()});
  out.push_back({"mcm_chebyshev",
                 with_norm(workloads::mcm_board(), geom::Norm::kChebyshev),
                 commlib::mcm_library()});
  out.push_back({"degenerate", degenerate_graph(), commlib::wan_library()});
  out.push_back({"degenerate_lan", degenerate_graph(), commlib::lan_library()});
  return out;
}

/// Every pair of the first 7 arcs, then seeded random subsets of 2 to 5
/// arcs, plus one singleton (which prices to nullopt).
std::vector<std::vector<ArcId>> subsets_of(const ConstraintGraph& cg,
                                           std::uint64_t seed) {
  const std::uint32_t n = static_cast<std::uint32_t>(cg.num_channels());
  std::vector<std::vector<ArcId>> out;
  const std::uint32_t m = std::min<std::uint32_t>(n, 7);
  for (std::uint32_t a = 0; a < m; ++a) {
    for (std::uint32_t b = a + 1; b < m; ++b) {
      out.push_back({ArcId{a}, ArcId{b}});
    }
  }
  std::mt19937_64 rng(seed);
  for (int s = 0; s < 40 && n >= 2; ++s) {
    const std::uint32_t k =
        std::min<std::uint32_t>(n, 2 + static_cast<std::uint32_t>(rng() % 4));
    std::vector<ArcId> subset;
    while (subset.size() < k) {
      const ArcId a{static_cast<std::uint32_t>(rng() % n)};
      if (std::find(subset.begin(), subset.end(), a) == subset.end()) {
        subset.push_back(a);
      }
    }
    out.push_back(subset);
  }
  out.push_back({ArcId{0}});
  return out;
}

std::vector<std::span<const ArcId>> spans_of(
    const std::vector<std::vector<ArcId>>& subsets) {
  return {subsets.begin(), subsets.end()};
}

TEST(StarBatch, MatchesOneAtATime) {
  std::size_t priced = 0;
  for (const Instance& inst : corpus()) {
    for (const CapacityPolicy policy :
         {CapacityPolicy::kSharedSum, CapacityPolicy::kMaxPerConstraint}) {
      std::vector<std::vector<ArcId>> subsets = subsets_of(inst.cg, 17);
      std::vector<std::optional<MergingPlan>> want;
      for (const std::vector<ArcId>& subset : subsets) {
        want.push_back(price_merging(inst.cg, inst.lib, subset, policy));
        priced += want.back().has_value() ? 1 : 0;
      }
      const std::string where =
          inst.name + (policy == CapacityPolicy::kSharedSum ? " sum" : " max");
      const std::vector<std::optional<MergingPlan>> got =
          price_mergings(inst.cg, inst.lib, spans_of(subsets), policy);
      ASSERT_EQ(got.size(), subsets.size());
      for (std::size_t i = 0; i < subsets.size(); ++i) {
        expect_same_star(got[i], want[i],
                         where + " subset " + std::to_string(i));
      }

      // Permuted batch orders: a star's plan does not depend on its
      // neighbours in the lanes.
      std::vector<std::size_t> order(subsets.size());
      for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
      std::mt19937_64 rng(3);
      for (int round = 0; round < 3; ++round) {
        std::shuffle(order.begin(), order.end(), rng);
        std::vector<std::vector<ArcId>> permuted;
        for (std::size_t i : order) permuted.push_back(subsets[i]);
        const std::vector<std::optional<MergingPlan>> shuffled =
            price_mergings(inst.cg, inst.lib, spans_of(permuted), policy);
        for (std::size_t p = 0; p < order.size(); ++p) {
          expect_same_star(shuffled[p], want[order[p]],
                           where + " permuted subset " +
                               std::to_string(order[p]));
        }
      }
    }
  }
  EXPECT_GT(priced, 500u);
}

TEST(StarBatch, CoversEveryStarShape) {
  const ConstraintGraph cg = degenerate_graph();
  const commlib::Library lib = commlib::wan_library();
  const std::vector<std::vector<ArcId>> subsets = {
      {ArcId{0}, ArcId{1}},            // parallel: no hub, no split
      {ArcId{0}, ArcId{2}, ArcId{3}},  // common source: no hub
      {ArcId{0}, ArcId{4}, ArcId{5}},  // common target: no split
      {ArcId{2}, ArcId{6}},            // two-sided star
  };
  const std::vector<std::optional<MergingPlan>> got =
      price_mergings(cg, lib, spans_of(subsets));
  ASSERT_TRUE(got[0] && got[1] && got[2] && got[3]);
  EXPECT_FALSE(got[0]->has_hub || got[0]->has_split);
  EXPECT_TRUE(!got[1]->has_hub && got[1]->has_split);
  EXPECT_TRUE(got[2]->has_hub && !got[2]->has_split);
  EXPECT_TRUE(got[3]->has_hub && got[3]->has_split);
}

TEST(StarBatch, DeadlineExpiringMidBatch) {
  // Each star polls the deadline once, when it starts, in batch order: a
  // deadline that expires on poll m + 1 prices exactly the first m stars.
  const ConstraintGraph cg =
      workloads::geo_wan(workloads::GeoWanParams::sized(120, 3));
  const commlib::Library lib = commlib::wan_library();
  const std::vector<std::vector<ArcId>> subsets = subsets_of(cg, 5);
  std::vector<std::optional<MergingPlan>> want;
  for (const std::vector<ArcId>& subset : subsets) {
    want.push_back(price_merging(cg, lib, subset));
  }
  for (const long m : {0L, 1L, 3L, 7L, 20L, 1000L}) {
    const support::Deadline deadline =
        support::Deadline::expire_after_checks(m);
    const std::vector<std::optional<MergingPlan>> got =
        price_mergings(cg, lib, spans_of(subsets), CapacityPolicy::kSharedSum,
                       &deadline);
    for (std::size_t i = 0; i < subsets.size(); ++i) {
      const std::string where =
          "m=" + std::to_string(m) + " subset " + std::to_string(i);
      if (static_cast<long>(i) < m) {
        expect_same_star(got[i], want[i], where);
      } else {
        EXPECT_FALSE(got[i].has_value()) << where;
      }
    }
  }
}

TEST(StarBatch, GeneratorDeadlineMidBatchAtOneAndFourThreads) {
  // A deadline that expires while the pairs' pricing batch is in flight:
  // every star the generator kept is the one-at-a-time plan, and nothing
  // priced after the latch was cached, so an unhurried rerun on the same
  // cache yields the fresh candidate set.
  const ConstraintGraph cg =
      workloads::geo_wan(workloads::GeoWanParams::sized(80, 7));
  const commlib::Library lib = commlib::wan_library();
  SynthesisOptions fresh_options;
  fresh_options.threads = 1;
  fresh_options.max_merge_k = 3;
  const auto fresh = generate_candidates(cg, lib, fresh_options);
  ASSERT_TRUE(fresh.ok());
  const std::size_t n = cg.num_channels();
  // Enumeration polls once per pair; the pairs' survivors fit one batch,
  // so the polls after the first n(n-1)/2 fall in their pricing.
  ASSERT_LT(fresh->stats.survivors_per_k[2], 1024u);
  const long pairs = static_cast<long>(n * (n - 1) / 2);
  for (const int threads : {1, 4}) {
    for (const long extra : {1L, 40L, 400L}) {
      PricingCache cache;
      SynthesisOptions options = fresh_options;
      options.threads = threads;
      options.pricing_cache = &cache;
      options.deadline = support::Deadline::expire_after_checks(pairs + extra);
      const auto degraded = generate_candidates(cg, lib, options);
      ASSERT_TRUE(degraded.ok());
      const std::string where = std::to_string(threads) + " threads, " +
                                std::to_string(extra) + " pricing polls";
      if (threads == 1 && extra >= 40) {
        // The first stars of the batch were priced before the latch.
        EXPECT_GT(degraded->candidates.size(), n) << where;
      }
      EXPECT_LT(degraded->candidates.size(), fresh->candidates.size())
          << where;
      for (const Candidate& c : degraded->candidates) {
        if (!std::holds_alternative<MergingPlan>(c.plan)) continue;
        expect_same_star(star_of(c), price_merging(cg, lib, c.arcs), where);
      }

      options.deadline = support::Deadline::never();
      const auto rerun = generate_candidates(cg, lib, options);
      ASSERT_TRUE(rerun.ok());
      ASSERT_EQ(rerun->candidates.size(), fresh->candidates.size()) << where;
      for (std::size_t i = 0; i < fresh->candidates.size(); ++i) {
        EXPECT_EQ(rerun->candidates[i].arcs, fresh->candidates[i].arcs)
            << where;
        EXPECT_EQ(bits(rerun->candidates[i].cost),
                  bits(fresh->candidates[i].cost))
            << where << " candidate " << i;
        expect_same_star(star_of(rerun->candidates[i]),
                         star_of(fresh->candidates[i]),
                         where + " candidate " + std::to_string(i));
      }
    }
  }
}

}  // namespace
}  // namespace cdcs::synth
