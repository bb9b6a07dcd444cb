// Heap-allocation budget of the star, chain and tree pricers.
//
// The pricers run once per surviving subset -- tens of thousands of times
// per NoC synthesis, on every pricing worker at once -- so a heap call in
// their search loops is paid in allocator contention as much as in time.
// This executable replaces the global operator new with a counting one and
// prices one fixed 4-arc common-target subset of the 12x12 NoC hotspot mesh
// (the benchmark suite's noc_hotspot_12 instance, WAN library).
//
// Counts before the heap-free search (drop orders compared by cost with
// reused buffers, flat Dreyfus-Wagner tables) and, for the star, before the
// batched star pricer (one point and one value buffer per star in flight,
// an allocation-free canonical sort):
//
//   price_chain_merging  761 allocations
//   price_tree_merging   164 allocations
//   price_merging         22 allocations
//
// The budgets below hold the chain pricer to a tenth of that and the tree
// and star pricers to a third. The test has its own binary so that the
// replaced operator new counts nothing but these calls.
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>

#include <gtest/gtest.h>

#include "commlib/standard_libraries.hpp"
#include "synth/chain_pricer.hpp"
#include "synth/merging_pricer.hpp"
#include "synth/tree_pricer.hpp"
#include "workloads/noc_mesh.hpp"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::size_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  return std::malloc(size == 0 ? 1 : size);
}

}  // namespace

// Every replaceable form that can reach the pricers: plain, array and
// nothrow (std::stable_sort's temporary buffer) news, and the matching
// deletes, so allocation and release always pair malloc with free.
void* operator new(std::size_t size) {
  if (void* p = counted_alloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace cdcs::synth {
namespace {

constexpr std::size_t kParentChainAllocations = 761;
constexpr std::size_t kParentTreeAllocations = 164;
constexpr std::size_t kParentStarAllocations = 22;

struct Fixture {
  model::ConstraintGraph cg;
  commlib::Library library = commlib::wan_library();
  std::vector<model::ArcId> subset;

  Fixture() {
    workloads::NocMeshParams params;
    params.rows = 12;
    params.cols = 12;
    cg = workloads::noc_mesh(params);
    // Four tiles streaming into the hotspot from different rows and
    // columns, so the tree has genuine branch points.
    subset = {model::ArcId{5}, model::ArcId{18}, model::ArcId{40},
              model::ArcId{77}};
  }
};

/// Heap allocations made by one call of `price`.
template <typename F>
std::size_t count_allocations(F&& price) {
  g_allocations.store(0);
  g_counting.store(true);
  price();
  g_counting.store(false);
  return g_allocations.load();
}

TEST(AllocationBudget, ChainPricer) {
  const Fixture f;
  std::optional<ChainPlan> plan;
  const std::size_t n = count_allocations(
      [&] { plan = price_chain_merging(f.cg, f.library, f.subset); });
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->arcs.size(), 4u);
  EXPECT_EQ(plan->legs.size(), 3u);
  std::printf("price_chain_merging: %zu allocations\n", n);
  EXPECT_LE(n, kParentChainAllocations / 10);
}

TEST(AllocationBudget, TreePricer) {
  const Fixture f;
  std::optional<TreePlan> plan;
  const std::size_t n = count_allocations(
      [&] { plan = price_tree_merging(f.cg, f.library, f.subset); });
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->arcs.size(), 4u);
  std::printf("price_tree_merging: %zu allocations\n", n);
  EXPECT_LE(n, kParentTreeAllocations / 3);
}

TEST(AllocationBudget, StarPricer) {
  const Fixture f;
  std::optional<MergingPlan> plan;
  const std::size_t n = count_allocations(
      [&] { plan = price_merging(f.cg, f.library, f.subset); });
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->arcs.size(), 4u);
  EXPECT_TRUE(plan->has_hub);
  EXPECT_FALSE(plan->has_split);
  std::printf("price_merging: %zu allocations\n", n);
  EXPECT_LE(n, kParentStarAllocations / 3);
}

}  // namespace
}  // namespace cdcs::synth
