// Long-run (steady-state) distribution of a CTMC from an initial
// distribution. General chains are handled via BSCC decomposition: the
// long-run distribution is the mixture of per-BSCC stationary distributions,
// weighted by the probability of being absorbed into each BSCC.
#pragma once

#include <memory>
#include <vector>

#include "ctmc/ctmc.hpp"
#include "linalg/gauss_seidel.hpp"
#include "util/budget.hpp"

namespace autosec::ctmc {

/// Options of the unbounded solves: steady state, and the restricted
/// systems (ctmc/restricted.hpp) of unbounded until and reward to target.
struct SteadyStateOptions {
  linalg::IterativeOptions solver;
  /// Optional budget; each restricted system's block is charged to it.
  std::shared_ptr<util::ResourceBudget> budget;
};

struct SteadyStateResult {
  std::vector<double> distribution;  ///< long-run probability per state
  size_t bscc_count = 0;
  /// Probability of ending up in each BSCC (aligned with `bscc_states`).
  std::vector<double> bscc_probability;
  std::vector<std::vector<uint32_t>> bscc_states;
  /// Solver rungs taken beyond the first across every absorption and
  /// stationary solve — 0 on a clean run; surfaced through SessionStats and
  /// the serve response so degraded solves are visible, never silent.
  size_t solver_fallbacks = 0;
};

/// Long-run distribution starting from `initial`.
SteadyStateResult steady_state(const Ctmc& chain, const std::vector<double>& initial,
                               const SteadyStateOptions& options = {});

/// Stationary distribution of an irreducible chain (single BSCC covering all
/// states); throws if the chain is reducible. This is the πQ = 0 solution the
/// paper computes in its worked example (Eq. 13-15).
std::vector<double> stationary_distribution(const Ctmc& chain,
                                            const SteadyStateOptions& options = {});

}  // namespace autosec::ctmc
