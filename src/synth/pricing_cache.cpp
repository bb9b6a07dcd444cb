#include "synth/pricing_cache.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <stdexcept>

namespace cdcs::synth {
namespace {

inline void fnv_mix(std::size_t& h, std::uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8) {
    h ^= (v >> shift) & 0xff;
    h *= 0x100000001b3ULL;
  }
}

}  // namespace

PricingCache::Entry PricingCache::Entry::make(
    const std::vector<model::ArcId>& subset,
    const std::vector<std::uint32_t>& canonical_order,
    std::vector<Plan> plans) {
  for (Plan& plan : plans) {
    for (model::ArcId& a : *plan_arcs(plan)) {
      std::uint32_t c = 0;
      while (c < subset.size() && subset[canonical_order[c]] != a) ++c;
      // The pricers only permute their subset, never substitute an arc.
      if (c == subset.size()) {
        throw std::logic_error(
            "pricing cache: plan references an arc outside its subset");
      }
      a = model::ArcId{c};
    }
  }
  return Entry{std::move(plans)};
}

Plan PricingCache::Entry::retargeted(
    std::size_t i, const std::vector<model::ArcId>& subset,
    const std::vector<std::uint32_t>& canonical_order) const {
  Plan plan = plans[i];
  for (model::ArcId& a : *plan_arcs(plan)) {
    a = subset[canonical_order[a.index()]];
  }
  return plan;
}

std::size_t PricingCache::KeyHash::operator()(const Key& k) const {
  std::size_t h = 0xcbf29ce484222325ULL;
  fnv_mix(h, k.library_fingerprint);
  fnv_mix(h, static_cast<std::uint64_t>(k.norm));
  fnv_mix(h, static_cast<std::uint64_t>(k.policy));
  fnv_mix(h, (std::uint64_t{k.chain_enabled} << 1) |
                 std::uint64_t{k.tree_enabled});
  fnv_mix(h, static_cast<std::uint64_t>(k.arc_geometry.size()));
  for (double v : k.arc_geometry) {
    fnv_mix(h, std::bit_cast<std::uint64_t>(v == 0.0 ? 0.0 : v));
  }
  return h;
}

std::shared_ptr<const PricingCache::Entry> PricingCache::lookup(
    const Key& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = map_.find(key);
  if (it == map_.end()) {
    misses_.add(1);
    return nullptr;
  }
  hits_.add(1);
  return it->second;
}

void PricingCache::insert(const Key& key,
                          std::shared_ptr<const Entry> entry) {
  std::lock_guard<std::mutex> lock(mu_);
  map_[key] = std::move(entry);
}

PricingCache::Stats PricingCache::stats() const {
  Stats s;
  s.hits = hits_.value();
  s.misses = misses_.value();
  s.evictions = evictions_.value();
  std::lock_guard<std::mutex> lock(mu_);
  s.entries = map_.size();
  return s;
}

void PricingCache::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  evictions_.add(map_.size());
  map_.clear();
  hits_.reset();
  misses_.reset();
}

PricingCache::Key make_pricing_key(
    const model::ConstraintGraph& cg, std::uint64_t library_fingerprint,
    const std::vector<model::ArcId>& subset,
    const std::vector<std::uint32_t>& canonical_order,
    model::CapacityPolicy policy, bool chain_enabled, bool tree_enabled) {
  PricingCache::Key key;
  key.library_fingerprint = library_fingerprint;
  key.norm = cg.norm();
  key.policy = policy;
  key.chain_enabled = chain_enabled;
  key.tree_enabled = tree_enabled;
  key.arc_geometry.reserve(subset.size() * 5);
  for (std::uint32_t pos : canonical_order) {
    for (double v : arc_geometry_record(cg, subset[pos])) {
      key.arc_geometry.push_back(v);
    }
  }
  return key;
}

}  // namespace cdcs::synth
