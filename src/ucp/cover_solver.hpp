// The cover-solver backends, behind one string-keyed registry.
//
// BnbOptions::backend is the only solver selector, and the registry is the
// dispatch: solve_exact (ucp/bnb.hpp) looks the name up and calls that
// backend's engine directly. Three backends are registered:
//
//     dense_dp      exact subset DP (ucp/dp.hpp), at most kDenseDpMaxRows rows
//     bnb_v2        serial depth-first branch-and-bound (ucp/bnb.hpp)
//     parallel_bnb  deterministic rounds engine (ucp/parallel_bnb.hpp)
//
// An empty name runs dense_dp up to kDefaultDenseDpRows rows and bnb_v2
// above, so naming the backend the default would have picked is
// byte-identical to naming none.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "ucp/bnb_options.hpp"
#include "ucp/cover.hpp"

namespace cdcs::ucp {

/// Row count up to which the default dispatch runs dense_dp instead of
/// bnb_v2.
inline constexpr std::size_t kDefaultDenseDpRows = 20;

/// One registered backend. Stateless and immutable after registration: the
/// registry hands out const pointers that many threads may use at once.
class CoverSolver {
 public:
  virtual ~CoverSolver() = default;

  /// Registry key ("dense_dp", "bnb_v2", "parallel_bnb").
  virtual std::string_view name() const = 0;

  /// False when this backend structurally cannot solve the instance (the
  /// dense DP above kDenseDpMaxRows rows); solve_exact throws on an
  /// explicit selection of an inapplicable backend.
  virtual bool applicable(const CoverProblem& problem) const {
    (void)problem;
    return true;
  }

  /// Runs the backend's engine. `options.backend` is ignored (the caller
  /// already routed); every other BnbOptions field is honoured where it
  /// applies (deadline, max_nodes, fault_injector, warm starts, frontier
  /// cap). The returned CoverSolution carries cost/chosen, `optimal`,
  /// `stop`, `nodes_explored`, `explored_fingerprint` where the engine
  /// hashes one, and in `lower_bound` the engine's root bound (0 if none),
  /// which solve_exact turns into the reported bound.
  virtual CoverSolution solve(const CoverProblem& problem,
                              const BnbOptions& options) const = 0;
};

/// All registered backends, in a fixed order. The roster is compiled in;
/// there is no dynamic registration.
const std::vector<const CoverSolver*>& registered_cover_solvers();

/// Registry lookup; null for unknown names.
const CoverSolver* find_cover_solver(std::string_view name);

/// Registered names in registry order, for CLI validation and --help.
std::vector<std::string> registered_cover_solver_names();

/// "dense_dp, bnb_v2, parallel_bnb" -- the names joined for diagnostics.
std::string registered_cover_solver_list();

/// Matrix density: fraction of nonzero entries (0 for degenerate shapes).
double cover_density(const CoverProblem& problem);

}  // namespace cdcs::ucp
