#include "synth/canonical_order.hpp"

#include <algorithm>

namespace cdcs::synth {

std::array<double, 5> arc_geometry_record(const model::ConstraintGraph& cg,
                                          model::ArcId a) {
  const geom::Point2D u = cg.position(cg.source(a));
  const geom::Point2D v = cg.position(cg.target(a));
  return {u.x, u.y, v.x, v.y, cg.bandwidth(a)};
}

std::vector<std::uint32_t> canonical_subset_order(
    const model::ConstraintGraph& cg,
    const std::vector<model::ArcId>& subset) {
  std::vector<std::array<double, 5>> records;
  records.reserve(subset.size());
  for (model::ArcId a : subset) records.push_back(arc_geometry_record(cg, a));
  std::vector<std::uint32_t> order(subset.size());
  for (std::uint32_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return records[a] < records[b];
                   });
  return order;
}

void canonicalize_subset(const model::ConstraintGraph& cg,
                         std::span<model::ArcId> subset) {
  constexpr std::size_t kInline = 16;
  const std::size_t n = subset.size();
  if (n > kInline) {
    const std::vector<model::ArcId> in(subset.begin(), subset.end());
    const std::vector<std::uint32_t> order = canonical_subset_order(cg, in);
    for (std::size_t i = 0; i < n; ++i) subset[i] = in[order[i]];
    return;
  }
  // Insertion sort on the records: stable, so it yields exactly the
  // permutation of canonical_subset_order's std::stable_sort.
  std::array<std::array<double, 5>, kInline> records;
  for (std::size_t i = 0; i < n; ++i) {
    records[i] = arc_geometry_record(cg, subset[i]);
  }
  for (std::size_t i = 1; i < n; ++i) {
    const std::array<double, 5> record = records[i];
    const model::ArcId arc = subset[i];
    std::size_t j = i;
    for (; j > 0 && record < records[j - 1]; --j) {
      records[j] = records[j - 1];
      subset[j] = subset[j - 1];
    }
    records[j] = record;
    subset[j] = arc;
  }
}

}  // namespace cdcs::synth
