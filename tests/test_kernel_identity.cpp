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
//   * the cover -- the chosen column indices and nodes_explored;
//   * the written implementation (io/impl_format).
//
// The pinned values were computed before the kernel pass (docs/performance.md
// §10 describes the procedure). A mismatch means a kernel change moved an
// output bit: the message prints the new hash, but re-pinning is only
// correct for a change that is MEANT to alter the output.
#include <bit>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

#include <gtest/gtest.h>

#include "commlib/standard_libraries.hpp"
#include "io/impl_format.hpp"
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
    if (c.merging) {
      h.mix(std::uint64_t{1});
      h.mix(c.merging->hub_pos);
      h.mix(c.merging->split_pos);
    }
    if (c.chain) {
      h.mix(std::uint64_t{2});
      for (geom::Point2D p : c.chain->drop_pos) h.mix(p);
    }
    if (c.tree) {
      h.mix(std::uint64_t{3});
      for (geom::Point2D p : c.tree->vertices) h.mix(p);
    }
  }
  return h.value();
}

std::uint64_t hash_cover(const ucp::CoverSolution& cover) {
  Hash h;
  for (std::size_t j : cover.chosen) h.mix(static_cast<std::uint64_t>(j));
  h.mix(static_cast<std::uint64_t>(cover.nodes_explored));
  return h.value();
}

std::uint64_t hash_implementation(const SynthesisResult& r) {
  Hash h;
  h.mix(io::write_implementation(*r.implementation));
  return h.value();
}

struct Pins {
  std::uint64_t candidates;
  std::uint64_t cover;
  std::uint64_t implementation;
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
  EXPECT_EQ(hex(hash_cover(r.cover)), hex(pins.cover)) << what << ": cover";
  EXPECT_EQ(hex(hash_implementation(r)), hex(pins.implementation))
      << what << ": implementation";
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
                     .cover = 0xee7742cdbe851b26ULL,
                     .implementation = 0x835d748e7f261ca8ULL},
                    "wan2002");
}

TEST(KernelIdentity, Mpeg4Soc) {
  expect_exact_pins(workloads::mpeg4_soc(),
                    commlib::soc_library(workloads::kMpeg4CritLengthMm),
                    {.candidates = 0x924084687cf0a778ULL,
                     .cover = 0xfff1654a7e95f684ULL,
                     .implementation = 0x765aa017c5937575ULL},
                    "mpeg4_soc");
}

TEST(KernelIdentity, CampusLan) {
  expect_exact_pins(workloads::campus_lan(), commlib::lan_library(),
                    {.candidates = 0x916db1b0d00b0074ULL,
                     .cover = 0x002676a81f81c0deULL,
                     .implementation = 0x0a0163bef8fa1ed1ULL},
                    "campus_lan");
}

TEST(KernelIdentity, NocMesh4x4) {
  expect_exact_pins(workloads::noc_mesh(workloads::NocMeshParams{}),
                    commlib::noc_library(),
                    {.candidates = 0xb9fb469682f4e6d6ULL,
                     .cover = 0xe6f2af46614276d1ULL,
                     .implementation = 0x7e428fcf760d2618ULL},
                    "noc_mesh 4x4");
}

TEST(KernelIdentity, PartitionedGeoWan1000Seed7) {
  expect_partitioned_pins(
      workloads::geo_wan(workloads::GeoWanParams::sized(1000, 7)),
      commlib::wan_library(),
      {.candidates = 0xeb301b8e53d678b2ULL,
       .cover = 0x58eae14627598188ULL,
       .implementation = 0xb5abc259b08a0246ULL},
      "geo_wan(1000,7)");
}

// The instance whose summed cluster bound used to exceed its stitched cost
// by a few ulps (0x1.bd71dc0cdcb6fp+26 vs 0x1.bd71dc0cdcb68p+26).
TEST(KernelIdentity, PartitionedGeoWan1000Seed3) {
  expect_partitioned_pins(
      workloads::geo_wan(workloads::GeoWanParams::sized(1000, 3)),
      commlib::wan_library(),
      {.candidates = 0x8d13d8f7bd7c27d6ULL,
       .cover = 0xdc1981965fc8e6fcULL,
       .implementation = 0x5a36240c561db3baULL},
      "geo_wan(1000,3)");
}

TEST(KernelIdentity, PartitionedNocHotspot12x12) {
  workloads::NocMeshParams params;
  params.rows = 12;
  params.cols = 12;
  expect_partitioned_pins(workloads::noc_mesh(params), commlib::noc_library(),
                          {.candidates = 0x799b215cacdf036eULL,
                           .cover = 0x07e11e1a3a13a93aULL,
                           .implementation = 0x36572763a2f9bd09ULL},
                          "noc_mesh 12x12");
}

TEST(KernelIdentity, PartitionedFatTree500Seed7) {
  expect_partitioned_pins(
      workloads::fat_tree_traffic(workloads::FatTreeParams::sized(500, 7)),
      commlib::wan_library(),
      {.candidates = 0x6902ab64febf5072ULL,
       .cover = 0xb9d5701060f86937ULL,
       .implementation = 0x558028b9322a1151ULL},
      "fat_tree(500,7)");
}

}  // namespace
}  // namespace cdcs::synth
