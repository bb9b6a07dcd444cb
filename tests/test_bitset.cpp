// Word-boundary behavior of ucp::Bitset (ISSUE 8 satellite): the parallel
// branch-and-bound engines lean on these kernels from many threads at once,
// so every word-parallel operation is pinned against the obvious per-bit
// definition at sizes that straddle the 64-bit word edge (63/64/65/128),
// with particular attention to the trailing-word mask. Also pins the
// CoverProblem::row_cover lazy transpose, which the branch-and-bound warms
// once per solve and then only reads.
#include <vector>

#include <gtest/gtest.h>

#include "ucp/bitset.hpp"
#include "ucp/cover.hpp"

namespace cdcs::ucp {
namespace {

const std::size_t kEdgeSizes[] = {63, 64, 65, 128};

/// Reference model: the same set as plain bools.
std::vector<bool> as_bools(const Bitset& b) {
  std::vector<bool> out(b.size(), false);
  b.for_each([&](std::size_t i) { out[i] = true; });
  return out;
}

TEST(BitsetBoundary, SetAllMasksTheTrailingWord) {
  for (const std::size_t n : kEdgeSizes) {
    Bitset b(n);
    b.set_all();
    EXPECT_EQ(b.count(), n) << n;
    EXPECT_TRUE(b.any()) << n;
    // Every in-range bit set, and iteration never escapes the range.
    std::size_t seen = 0;
    std::size_t max_index = 0;
    b.for_each([&](std::size_t i) {
      ++seen;
      max_index = i;
    });
    EXPECT_EQ(seen, n) << n;
    EXPECT_EQ(max_index, n - 1) << n;
    // A full word-parallel complement pass finds nothing outside the range:
    // subtracting the full set from itself must empty it exactly.
    Bitset c = b;
    c.subtract(b);
    EXPECT_TRUE(c.none()) << n;
    EXPECT_EQ(c.count(), 0u) << n;
  }
}

TEST(BitsetBoundary, SetTestResetAtWordEdges) {
  Bitset b(128);
  for (const std::size_t i : {std::size_t{0}, std::size_t{62}, std::size_t{63},
                              std::size_t{64}, std::size_t{127}}) {
    EXPECT_FALSE(b.test(i)) << i;
    b.set(i);
    EXPECT_TRUE(b.test(i)) << i;
  }
  EXPECT_EQ(b.count(), 5u);
  EXPECT_EQ(b.first(), 0u);
  b.reset(0);
  EXPECT_EQ(b.first(), 62u);
  b.reset(63);
  EXPECT_TRUE(b.test(62));
  EXPECT_TRUE(b.test(64));  // neighbours across the edge untouched
  EXPECT_EQ(b.count(), 3u);
}

TEST(BitsetBoundary, SetAlgebraAcrossTheWordEdge) {
  for (const std::size_t n : kEdgeSizes) {
    Bitset a(n);
    Bitset b(n);
    // a = every third bit, b = every fourth: straddles 63/64 whenever the
    // size does.
    for (std::size_t i = 0; i < n; i += 3) a.set(i);
    for (std::size_t i = 0; i < n; i += 4) b.set(i);

    Bitset uni = a;
    uni.unite(b);
    Bitset inter = a;
    inter.intersect(b);
    Bitset diff = a;
    diff.subtract(b);
    Bitset ua(n);
    ua.unite_and(a, b);  // starts empty: equals a & b

    const std::vector<bool> av = as_bools(a);
    const std::vector<bool> bv = as_bools(b);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(uni.test(i), av[i] || bv[i]) << n << ':' << i;
      EXPECT_EQ(inter.test(i), av[i] && bv[i]) << n << ':' << i;
      EXPECT_EQ(diff.test(i), av[i] && !bv[i]) << n << ':' << i;
      EXPECT_EQ(ua.test(i), av[i] && bv[i]) << n << ':' << i;
    }
    EXPECT_EQ(ua, inter) << n;
    EXPECT_EQ(a.intersection_count(b), inter.count()) << n;
    EXPECT_EQ(a.intersects(b), inter.any()) << n;
    EXPECT_TRUE(inter.is_subset_of(a)) << n;
    EXPECT_TRUE(inter.is_subset_of(b)) << n;
    EXPECT_EQ(a.is_subset_of(uni), true) << n;
  }
}

TEST(BitsetBoundary, CappedCountAndMaskedProbesNearTheEdge) {
  Bitset a(65);
  a.set(62);
  a.set(63);
  a.set(64);
  Bitset b(65);
  b.set(63);
  b.set(64);

  EXPECT_EQ(a.intersection_count(b), 2u);
  EXPECT_EQ(a.intersection_count_capped(b, 1), 1u);
  EXPECT_EQ(a.intersection_count_capped(b, 2), 2u);
  EXPECT_EQ(a.intersection_count_capped(b, 8), 2u);
  EXPECT_EQ(a.first_and(b), 63u);

  Bitset mask(65);
  EXPECT_FALSE(a.intersects_masked(b, mask));  // empty mask
  mask.set(64);  // the lone bit of the trailing word
  EXPECT_TRUE(a.intersects_masked(b, mask));
  EXPECT_TRUE(a.and_is_subset_of(mask, b));  // a & {64} = {64} subseteq b
  mask.set(62);
  EXPECT_FALSE(a.and_is_subset_of(mask, b));  // 62 in a & mask, not in b

  // first()/first_and() return size() (one PAST the last valid index) on
  // empty intersections -- pinned, because callers compare against it.
  Bitset empty(65);
  EXPECT_EQ(empty.first(), 65u);
  EXPECT_EQ(a.first_and(empty), 65u);
}

TEST(BitsetBoundary, DotAndReachesTheTrailingWord) {
  Bitset cols(65);
  cols.set(1);
  cols.set(63);
  cols.set(64);
  Bitset mask(65);
  mask.set(63);
  mask.set(64);
  std::vector<double> weights(65, 0.0);
  weights[1] = 100.0;  // masked out; must not contribute
  weights[63] = 1.5;
  weights[64] = 2.25;
  EXPECT_DOUBLE_EQ(cols.dot_and(mask, weights.data()), 3.75);
}

TEST(BitsetBoundary, ForEachVariantsAscendAcrossWords) {
  Bitset b(128);
  const std::vector<std::size_t> want = {0, 63, 64, 100, 127};
  for (std::size_t i : want) b.set(i);

  std::vector<std::size_t> seen;
  b.for_each([&](std::size_t i) { seen.push_back(i); });
  EXPECT_EQ(seen, want);

  // for_each_until stops exactly at the first hit past the word edge.
  std::vector<std::size_t> until;
  const bool stopped = b.for_each_until([&](std::size_t i) {
    until.push_back(i);
    return i >= 64;
  });
  EXPECT_TRUE(stopped);
  EXPECT_EQ(until, (std::vector<std::size_t>{0, 63, 64}));

  Bitset other(128);
  other.set(63);
  other.set(127);
  std::vector<std::size_t> both;
  b.for_each_and(other, [&](std::size_t i) { both.push_back(i); });
  EXPECT_EQ(both, (std::vector<std::size_t>{63, 127}));
}

TEST(BitsetBoundary, EqualityComparesTheMaskedRepresentation) {
  for (const std::size_t n : kEdgeSizes) {
    Bitset a(n);
    Bitset b(n);
    a.set_all();
    for (std::size_t i = 0; i < n; ++i) b.set(i);
    // set_all's word-parallel fill and the per-bit loop must agree exactly,
    // including the trailing-word mask (operator== compares raw words).
    EXPECT_EQ(a, b) << n;
    b.reset(n - 1);
    EXPECT_FALSE(a == b) << n;
  }
}

// The lazy transpose the solvers (and the branch-and-bound's warm-up)
// depend on: row_cover(r) lists exactly the columns covering r, and the
// cache rebuilds after add_column invalidates it.
TEST(BitsetBoundary, RowCoverTransposeTracksMutation) {
  // 70 rows forces two words in every row_cover bitset... transposed the
  // other way: 70 columns per row set straddles the word edge.
  CoverProblem p(3);
  for (std::size_t j = 0; j < 70; ++j) {
    std::vector<std::size_t> rows;
    if (j % 2 == 0) rows.push_back(0);
    if (j % 3 == 0) rows.push_back(1);
    if (rows.empty()) rows.push_back(2);
    p.add_column(rows, 1.0);
  }
  for (std::size_t r = 0; r < 3; ++r) {
    const Bitset& cov = p.row_cover(r);
    EXPECT_EQ(cov.size(), p.num_columns());
    cov.for_each([&](std::size_t j) {
      EXPECT_TRUE(p.column(j).rows.test(r)) << r << ':' << j;
    });
    for (std::size_t j = 0; j < p.num_columns(); ++j) {
      EXPECT_EQ(cov.test(j), p.column(j).rows.test(r)) << r << ':' << j;
    }
  }

  // Mutate after the first read: the transpose must grow and stay exact.
  const std::size_t added = p.add_column({0, 2}, 1.0);
  const Bitset& cov0 = p.row_cover(0);
  EXPECT_EQ(cov0.size(), p.num_columns());
  EXPECT_TRUE(cov0.test(added));
  EXPECT_FALSE(p.row_cover(1).test(added));
  EXPECT_TRUE(p.row_cover(2).test(added));
}

}  // namespace
}  // namespace cdcs::ucp
