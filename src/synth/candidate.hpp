// Candidate arc implementations -- the data model shared by candidate
// generation (synth/candidate_generator.hpp), covering, assembly, and every
// result consumer. Split from the generator so result-only includers do not
// pull the enumeration/pruning machinery or the cover solver.
#pragma once

#include <cstddef>
#include <variant>
#include <vector>

#include "synth/chain_pricer.hpp"
#include "synth/merging_pricer.hpp"
#include "synth/ptp.hpp"
#include "synth/tree_pricer.hpp"

namespace cdcs::synth {

/// The one structure a column is built with: a single arc's point-to-point
/// implementation, a star merging, a daisy-chain merging, or a Steiner-tree
/// merging (the last three for k >= 2).
using Plan = std::variant<PtpPlan, MergingPlan, ChainPlan, TreePlan>;

/// A std::visit visitor made of one callable per alternative.
template <class... Fs>
struct Overloaded : Fs... {
  using Fs::operator()...;
};

inline double plan_cost(const Plan& plan) {
  return std::visit([](const auto& p) { return p.cost; }, plan);
}

/// The arcs a merging plan lists in its own structure order (a chain's
/// drop order); null for a point-to-point plan, whose one arc is its
/// candidate's.
inline std::vector<model::ArcId>* plan_arcs(Plan& plan) {
  using Arcs = std::vector<model::ArcId>*;
  return std::visit(Overloaded{[](PtpPlan&) -> Arcs { return nullptr; },
                               [](auto& p) -> Arcs { return &p.arcs; }},
                    plan);
}

/// One column of the covering problem.
struct Candidate {
  std::vector<model::ArcId> arcs;  ///< rows covered, sorted by index
  double cost{0.0};                ///< the column weight: plan_cost(plan)
  Plan plan;
};

struct GenerationStats {
  /// survivors_per_k[k] = subsets of size k passing all pruning tests
  /// (the paper's "thirteen 2-way, twenty-one 3-way, ..." counts).
  std::vector<std::size_t> survivors_per_k;
  std::vector<std::size_t> pruned_geometry_per_k;   ///< Lemma 3.1 / 3.2
  /// Subsets skipped by the midpoint-grid pre-filter WITHOUT evaluating the
  /// lemma tests. A subset counted here is also counted in
  /// pruned_geometry_per_k (the filter only skips subsets the lemmas are
  /// guaranteed to prune), so survivors + pruned_geometry stays invariant.
  std::vector<std::size_t> grid_prefilter_skips_per_k;
  std::vector<std::size_t> pruned_bandwidth_per_k;  ///< Theorem 3.2
  std::vector<std::size_t> unpriceable_per_k;  ///< survived tests, no library plan
  std::vector<std::size_t> dropped_unprofitable_per_k;
  /// Per arc index: the k whose round eliminated the arc (Theorem 3.1);
  /// 0 when the arc stayed active to the end.
  std::vector<int> arc_eliminated_after_k;
  std::size_t subsets_examined{0};
  bool enumeration_truncated{false};  ///< hit max_subsets_per_k
  bool deadline_expired{false};  ///< merging enumeration cut short by deadline
  /// Resolved pricing parallelism (SynthesisOptions::threads after the
  /// 0 = hardware-threads expansion).
  std::size_t threads_used{1};
  /// Pricing-cache traffic attributable to THIS run (the cache object
  /// accumulates across runs; these two do not).
  std::size_t pricing_cache_hits{0};
  std::size_t pricing_cache_misses{0};
};

struct CandidateSet {
  std::vector<Candidate> candidates;  ///< singletons first, then mergings by k
  GenerationStats stats;
};

}  // namespace cdcs::synth
