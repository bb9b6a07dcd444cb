// Identity pins for the pricing and covering kernels.
//
// Every hot-path optimisation of the pricers (star, chain, tree), the
// point-to-point cost model, the Weiszfeld step and the dense cover DP must
// leave the synthesizer's output bit-identical. These tests hash, per
// instance:
//
//   * the candidate set -- each candidate's arcs, its cost bits, and the
//     bits of every placed point (star hub/split, chain drops, tree
//     vertices);
//   * the priced structures -- each chain's drop order, segment bandwidths
//     and per-segment/per-leg plans, and each tree's edges with their
//     plans, junction flags, spoke vertices and drop plans;
//   * the cover's chosen column indices;
//   * the written implementation (io/impl_format).
//
// The pinned hashes were computed before the kernel pass (docs/performance.md
// §10 describes the procedure), the structure hashes before the heap-free
// chain and tree search (§12). A mismatch means a kernel change moved an
// output bit: the message prints the new hash, but re-pinning is only
// correct for a change that is MEANT to alter the output.
//
// The cover's nodes_explored is pinned on its own, as a plain count: it
// measures the solver's work, not its output, so a change to the search
// (the dense DP's reachable-state evaluation, docs/performance.md §11) may
// move it while every hash above stays put.
#include <bit>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

#include <gtest/gtest.h>

#include "commlib/standard_libraries.hpp"
#include "io/impl_format.hpp"
#include "synth/partition.hpp"
#include "synth/synthesizer.hpp"
#include "workloads/lan.hpp"
#include "workloads/mpeg4_soc.hpp"
#include "workloads/noc_mesh.hpp"
#include "workloads/scale_gen.hpp"
#include "workloads/wan2002.hpp"

namespace cdcs::synth {
namespace {

/// FNV-1a 64 over 64-bit words; doubles enter as their IEEE-754 bits.
class Hash {
 public:
  void mix(std::uint64_t v) {
    for (int shift = 0; shift < 64; shift += 8) {
      h_ ^= (v >> shift) & 0xff;
      h_ *= 0x100000001b3ULL;
    }
  }
  void mix(double v) { mix(std::bit_cast<std::uint64_t>(v)); }
  void mix(geom::Point2D p) {
    mix(p.x);
    mix(p.y);
  }
  void mix(std::string_view s) {
    mix(static_cast<std::uint64_t>(s.size()));
    for (char c : s) {
      h_ ^= static_cast<unsigned char>(c);
      h_ *= 0x100000001b3ULL;
    }
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::uint64_t hash_candidates(const CandidateSet& set) {
  Hash h;
  h.mix(static_cast<std::uint64_t>(set.candidates.size()));
  for (const Candidate& c : set.candidates) {
    h.mix(static_cast<std::uint64_t>(c.arcs.size()));
    for (model::ArcId a : c.arcs) h.mix(static_cast<std::uint64_t>(a.index()));
    h.mix(c.cost);
    if (const auto* star = std::get_if<MergingPlan>(&c.plan)) {
      h.mix(std::uint64_t{1});
      h.mix(star->hub_pos);
      h.mix(star->split_pos);
    }
    if (const auto* chain = std::get_if<ChainPlan>(&c.plan)) {
      h.mix(std::uint64_t{2});
      for (geom::Point2D p : chain->drop_pos) h.mix(p);
    }
    if (const auto* tree = std::get_if<TreePlan>(&c.plan)) {
      h.mix(std::uint64_t{3});
      for (geom::Point2D p : tree->vertices) h.mix(p);
    }
  }
  return h.value();
}

void mix_plan(Hash& h, const PtpPlan& p) {
  h.mix(static_cast<std::uint64_t>(p.link));
  h.mix(static_cast<std::uint64_t>(p.segments));
  h.mix(static_cast<std::uint64_t>(p.parallel));
  h.mix(p.span);
  h.mix(p.bandwidth);
  h.mix(p.cost);
}

/// The plans behind the chain and tree candidates: what hash_candidates'
/// placed points do not show (which order won, what each piece costs).
std::uint64_t hash_structures(const CandidateSet& set) {
  Hash h;
  for (const Candidate& c : set.candidates) {
    if (const auto* chain = std::get_if<ChainPlan>(&c.plan)) {
      h.mix(std::uint64_t{2});
      for (model::ArcId a : chain->arcs) {
        h.mix(static_cast<std::uint64_t>(a.index()));
      }
      for (double bw : chain->segment_bandwidth) h.mix(bw);
      for (const PtpPlan& p : chain->segments) mix_plan(h, p);
      for (const PtpPlan& p : chain->legs) mix_plan(h, p);
    }
    if (const auto* tree = std::get_if<TreePlan>(&c.plan)) {
      h.mix(std::uint64_t{3});
      for (const TreePlan::Edge& e : tree->edges) {
        h.mix(static_cast<std::uint64_t>(e.parent));
        h.mix(static_cast<std::uint64_t>(e.child));
        h.mix(e.bandwidth);
        mix_plan(h, e.plan);
      }
      for (bool j : tree->is_junction) h.mix(std::uint64_t{j});
      for (std::size_t v : tree->spoke_vertex) {
        h.mix(static_cast<std::uint64_t>(v));
      }
      for (const std::optional<PtpPlan>& d : tree->drop) {
        h.mix(std::uint64_t{d.has_value()});
        if (d) mix_plan(h, *d);
      }
    }
  }
  return h.value();
}

std::uint64_t hash_chosen(const ucp::CoverSolution& cover) {
  Hash h;
  for (std::size_t j : cover.chosen) h.mix(static_cast<std::uint64_t>(j));
  return h.value();
}

std::uint64_t hash_implementation(const SynthesisResult& r) {
  Hash h;
  h.mix(io::write_implementation(*r.implementation));
  return h.value();
}

struct Pins {
  std::uint64_t candidates;
  std::uint64_t structures;
  std::uint64_t chosen;
  std::uint64_t implementation;
  std::size_t nodes;  ///< cover.nodes_explored
};

std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%016" PRIx64 "ULL", v);
  return buf;
}

void expect_pins(const SynthesisResult& r, const Pins& pins,
                 const std::string& what) {
  EXPECT_EQ(hex(hash_candidates(r.candidate_set)), hex(pins.candidates))
      << what << ": candidate set";
  EXPECT_EQ(hex(hash_structures(r.candidate_set)), hex(pins.structures))
      << what << ": chain and tree structures";
  EXPECT_EQ(hex(hash_chosen(r.cover)), hex(pins.chosen))
      << what << ": chosen columns";
  EXPECT_EQ(hex(hash_implementation(r)), hex(pins.implementation))
      << what << ": implementation";
  EXPECT_EQ(r.cover.nodes_explored, pins.nodes) << what << ": nodes_explored";
}

void expect_exact_pins(const model::ConstraintGraph& cg,
                       const commlib::Library& lib, const Pins& pins,
                       const std::string& what) {
  const SynthesisResult r = synthesize(cg, lib).value();
  ASSERT_TRUE(r.validation.ok()) << what;
  EXPECT_EQ(r.degradation.stage, SynthesisStage::kExact) << what;
  expect_pins(r, pins, what);
}

/// Partitioned synthesis at 1 and 4 threads: both runs must hit the same
/// pins, and the reported lower bound may not exceed the cost it bounds.
void expect_partitioned_pins(const model::ConstraintGraph& cg,
                             const commlib::Library& lib, const Pins& pins,
                             const std::string& what) {
  for (const int threads : {1, 4}) {
    SynthesisOptions opts;
    opts.partitioning.enabled = true;
    opts.threads = threads;
    const std::string run = what + " @" + std::to_string(threads) + "t";
    const SynthesisResult r = synthesize(cg, lib, opts).value();
    ASSERT_TRUE(r.validation.ok()) << run;
    expect_pins(r, pins, run);
    EXPECT_LE(r.degradation.lower_bound, r.total_cost) << run;
    EXPECT_LE(r.cover.lower_bound, r.total_cost) << run;
  }
}

TEST(KernelIdentity, Wan2002) {
  expect_exact_pins(workloads::wan2002(), commlib::wan_library(),
                    {.candidates = 0x8be2bc9df9ce07daULL,
                     .structures = 0x2e6742cfb20b4004ULL,
                     .chosen = 0xb47e07176585e7e1ULL,
                     .implementation = 0x835d748e7f261ca8ULL,
                     .nodes = 17},
                    "wan2002");
}

TEST(KernelIdentity, Mpeg4Soc) {
  expect_exact_pins(workloads::mpeg4_soc(),
                    commlib::soc_library(workloads::kMpeg4CritLengthMm),
                    {.candidates = 0x924084687cf0a778ULL,
                     .structures = 0xcbf29ce484222325ULL,
                     .chosen = 0xc4d9a8af23c5af44ULL,
                     .implementation = 0x765aa017c5937575ULL,
                     .nodes = 14},
                    "mpeg4_soc");
}

TEST(KernelIdentity, CampusLan) {
  expect_exact_pins(workloads::campus_lan(), commlib::lan_library(),
                    {.candidates = 0x916db1b0d00b0074ULL,
                     .structures = 0x7139cbf84f9e6a3eULL,
                     .chosen = 0xd2ada27068c9470aULL,
                     .implementation = 0x0a0163bef8fa1ed1ULL,
                     .nodes = 24},
                    "campus_lan");
}

TEST(KernelIdentity, NocMesh4x4) {
  expect_exact_pins(workloads::noc_mesh(workloads::NocMeshParams{}),
                    commlib::noc_library(),
                    {.candidates = 0xb9fb469682f4e6d6ULL,
                     .structures = 0xbbf48be901329262ULL,
                     .chosen = 0xc934e862b7bab931ULL,
                     .implementation = 0x7e428fcf760d2618ULL,
                     .nodes = 6618},
                    "noc_mesh 4x4");
}

// The partitioned scaling instance: its cluster shape is pinned, and at
// 1, 2, 4 and 8 threads every run hits the same hashes, stitched cost and
// lower bound (1e-9 relative), with the gap inside the 10% acceptance bound.
TEST(KernelIdentity, PartitionedGeoWan1000Seed7) {
  const model::ConstraintGraph cg =
      workloads::geo_wan(workloads::GeoWanParams::sized(1000, 7));
  const commlib::Library lib = commlib::wan_library();
  PartitioningOptions partitioning;
  partitioning.enabled = true;
  const Partition part = partition_graph(cg, partitioning);
  EXPECT_EQ(part.clusters.size(), 93u);
  EXPECT_EQ(part.num_interior, 77u);
  EXPECT_EQ(part.boundary_arcs.size(), 250u);

  const Pins pins{.candidates = 0xeb301b8e53d678b2ULL,
                  .structures = 0x46317fa7e05bc650ULL,
                  .chosen = 0x8703be6006534adeULL,
                  .implementation = 0xb5abc259b08a0246ULL,
                  .nodes = 68339};
  constexpr double kCost = 113720021.019790;
  constexpr double kLowerBound = 113720021.019790;
  for (const int threads : {1, 2, 4, 8}) {
    SynthesisOptions opts;
    opts.partitioning.enabled = true;
    opts.threads = threads;
    const std::string run = "geo_wan(1000,7) @" + std::to_string(threads) + "t";
    const SynthesisResult r = synthesize(cg, lib, opts).value();
    ASSERT_TRUE(r.validation.ok()) << run;
    expect_pins(r, pins, run);
    EXPECT_LE(r.degradation.lower_bound, r.total_cost) << run;
    EXPECT_LE(r.cover.lower_bound, r.total_cost) << run;
    EXPECT_NEAR(r.total_cost, kCost, 1e-9 * kCost) << run;
    EXPECT_NEAR(r.degradation.lower_bound, kLowerBound, 1e-9 * kLowerBound)
        << run;
    EXPECT_LE(r.degradation.optimality_gap, 0.10) << run;
  }
}

// The instance whose summed cluster bound used to exceed its stitched cost
// by a few ulps (0x1.bd71dc0cdcb6fp+26 vs 0x1.bd71dc0cdcb68p+26).
TEST(KernelIdentity, PartitionedGeoWan1000Seed3) {
  expect_partitioned_pins(
      workloads::geo_wan(workloads::GeoWanParams::sized(1000, 3)),
      commlib::wan_library(),
      {.candidates = 0x8d13d8f7bd7c27d6ULL,
       .structures = 0xa7b948d6e6518297ULL,
       .chosen = 0x6e298f26b96dffdcULL,
       .implementation = 0x5a36240c561db3baULL,
       .nodes = 59397},
      "geo_wan(1000,3)");
}

TEST(KernelIdentity, PartitionedNocHotspot12x12) {
  workloads::NocMeshParams params;
  params.rows = 12;
  params.cols = 12;
  expect_partitioned_pins(workloads::noc_mesh(params), commlib::noc_library(),
                          {.candidates = 0x799b215cacdf036eULL,
                           .structures = 0x83055f4869931b58ULL,
                           .chosen = 0xcedba1b651d99223ULL,
                           .implementation = 0x36572763a2f9bd09ULL,
                           .nodes = 171572},
                          "noc_mesh 12x12");
}

// The benchmark suite's noc_hotspot_12 configuration: the NoC mesh priced
// against the WAN library, where chain and tree pricing carry the load.
TEST(KernelIdentity, PartitionedNocHotspot12x12WanLibrary) {
  workloads::NocMeshParams params;
  params.rows = 12;
  params.cols = 12;
  expect_partitioned_pins(workloads::noc_mesh(params), commlib::wan_library(),
                          {.candidates = 0xffe987e832e45b93ULL,
                           .structures = 0x1ae05ebad69bda23ULL,
                           .chosen = 0x56b422f713b9e873ULL,
                           .implementation = 0x078649a88d03afd7ULL,
                           .nodes = 171740},
                          "noc_mesh 12x12 (wan library)");
}

TEST(KernelIdentity, PartitionedFatTree500Seed7) {
  expect_partitioned_pins(
      workloads::fat_tree_traffic(workloads::FatTreeParams::sized(500, 7)),
      commlib::wan_library(),
      {.candidates = 0x6902ab64febf5072ULL,
       .structures = 0x00892b0955703b82ULL,
       .chosen = 0xf209a16a6b3744c1ULL,
       .implementation = 0x558028b9322a1151ULL,
       .nodes = 55988},
      "fat_tree(500,7)");
}

}  // namespace
}  // namespace cdcs::synth
