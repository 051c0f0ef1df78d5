#include "ctmc/steady_state.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>

#include "ctmc/restricted.hpp"
#include "ctmc/scc.hpp"
#include "ctmc/transient.hpp"
#include "linalg/power_iteration.hpp"
#include "linalg/vector_ops.hpp"
#include "util/cancel.hpp"
#include "util/failure.hpp"
#include "util/metrics.hpp"
#include "util/parallel.hpp"

#include <atomic>

namespace autosec::ctmc {

namespace {

/// Stationary distribution within one BSCC, returned over the BSCC's local
/// state indices. The BSCC has no outgoing edges, so restricting the rate
/// matrix to its members yields a conservative generator. When the
/// Gauss-Seidel solve fails (divergence or iteration cap), the uniformized
/// power iteration gets one shot before the solve unwinds as a typed
/// solver_diverged failure; `fallbacks` counts the rungs taken beyond the
/// first.
std::vector<double> bscc_stationary(const Ctmc& chain,
                                    const std::vector<uint32_t>& members,
                                    const linalg::IterativeOptions& solver,
                                    std::atomic<size_t>& fallbacks) {
  const size_t m = members.size();
  if (m == 1) return {1.0};

  std::vector<uint32_t> local_of(chain.state_count(), UINT32_MAX);
  for (uint32_t i = 0; i < m; ++i) local_of[members[i]] = i;

  // Build the transposed restricted generator directly: row i of Qt collects
  // incoming rates Q_ji plus the diagonal -E_i. Counting-sort assembly: the
  // scatter scans local source states in ascending order and emits each row's
  // diagonal while the scan sits on that row (no local self-loops exist), so
  // every Qt row comes out with strictly ascending columns — no builder sort.
  std::vector<double> exit(m, 0.0);
  std::vector<uint32_t> offsets(m + 1, 0);
  for (uint32_t local = 0; local < m; ++local) {
    ++offsets[local + 1];  // diagonal
    const auto cols = chain.rates().row_columns(members[local]);
    const auto vals = chain.rates().row_values(members[local]);
    for (size_t k = 0; k < cols.size(); ++k) {
      const uint32_t target_local = local_of[cols[k]];
      if (target_local == UINT32_MAX) {
        throw std::logic_error("bscc_stationary: edge leaves the BSCC");
      }
      ++offsets[target_local + 1];
      exit[local] += vals[k];
    }
  }
  for (uint32_t i = 0; i < m; ++i) offsets[i + 1] += offsets[i];
  std::vector<uint32_t> columns(offsets[m]);
  std::vector<double> values(offsets[m]);
  std::vector<uint32_t> cursor(offsets.begin(), offsets.end() - 1);
  for (uint32_t local = 0; local < m; ++local) {
    const uint32_t diagonal_pos = cursor[local]++;
    columns[diagonal_pos] = local;
    values[diagonal_pos] = -exit[local];
    const auto cols = chain.rates().row_columns(members[local]);
    const auto vals = chain.rates().row_values(members[local]);
    for (size_t k = 0; k < cols.size(); ++k) {
      const uint32_t pos = cursor[local_of[cols[k]]]++;
      columns[pos] = local;
      values[pos] = vals[k];
    }
  }
  const linalg::CsrMatrix Qt(m, m, std::move(offsets), std::move(columns),
                             std::move(values));
  auto result = linalg::stationary_from_transposed(Qt, solver);
  if (result.cancelled) throw util::Cancelled("steady_state");
  if (result.converged) return std::move(result.x);

  // Gauss-Seidel failed; the uniformized power iteration is slower but has
  // weaker convergence requirements (only aperiodicity + irreducibility).
  fallbacks.fetch_add(1, std::memory_order_relaxed);
  util::metrics::registry().add("solver.stationary_fallbacks");
  auto power = linalg::stationary_power_from_transposed(Qt, solver);
  if (power.cancelled) throw util::Cancelled("steady_state");
  if (!power.converged) {
    util::FailureProgress progress;
    progress.iterations = result.iterations + power.iterations;
    progress.residual = power.final_delta;
    throw util::EngineFailure(
        util::FailureCode::kSolverDiverged, "steady_state",
        "bscc_stationary: no solver rung converged (gauss_seidel " +
            std::string(result.diverged ? "diverged" : "stalled") +
            ", power " + std::string(power.diverged ? "diverged" : "stalled") +
            ")",
        progress);
  }
  return std::move(power.x);
}

}  // namespace

SteadyStateResult steady_state(const Ctmc& chain, const std::vector<double>& initial,
                               const SteadyStateOptions& options) {
  const size_t n = chain.state_count();
  // Same contract as transient analysis: reject negative entries and mass
  // above 1 instead of silently folding them into the BSCC weighting.
  check_distribution(n, initial, "steady_state");

  const SccDecomposition sccs = strongly_connected_components(chain.rates());
  const std::vector<uint32_t> bottoms = sccs.bottom_components();

  SteadyStateResult result;
  result.bscc_count = bottoms.size();
  result.distribution.assign(n, 0.0);
  std::atomic<size_t> fallbacks{0};

  // Map component id -> index into `bottoms` (or UINT32_MAX for transient).
  std::vector<uint32_t> bottom_index(sccs.component_count, UINT32_MAX);
  for (uint32_t b = 0; b < bottoms.size(); ++b) bottom_index[bottoms[b]] = b;

  // Qualitative pre-pass: which BSCCs are reachable from each component?
  // Tarjan ids are in reverse topological order (edges go from higher id to
  // lower id), so a single sweep in increasing id order propagates the
  // reach-sets. Components that can reach exactly one BSCC are absorbed into
  // it with probability 1 — no numerics needed. This matters beyond speed:
  // nearly-absorbing transient layers (e.g. an unpatchable broken-protection
  // flag whose only escape rate is tiny) make the fixpoint iteration
  // arbitrarily slow, while the graph argument settles them exactly.
  std::vector<std::vector<uint32_t>> reachable_bsccs(sccs.component_count);
  for (uint32_t c = 0; c < sccs.component_count; ++c) {
    if (bottom_index[c] != UINT32_MAX) {
      reachable_bsccs[c] = {bottom_index[c]};
      continue;
    }
    std::vector<uint32_t> merged;
    for (uint32_t s : sccs.members[c]) {
      const auto cols = chain.rates().row_columns(s);
      const auto vals = chain.rates().row_values(s);
      for (size_t k = 0; k < cols.size(); ++k) {
        if (vals[k] == 0.0) continue;
        const uint32_t target_component = sccs.component_of[cols[k]];
        if (target_component == c) continue;
        // target_component < c in Tarjan numbering: already computed.
        for (uint32_t b : reachable_bsccs[target_component]) merged.push_back(b);
      }
    }
    std::sort(merged.begin(), merged.end());
    merged.erase(std::unique(merged.begin(), merged.end()), merged.end());
    reachable_bsccs[c] = std::move(merged);
  }

  // Absorption probability per state into each BSCC. States inside a BSCC
  // and states that can reach only one BSCC are settled by the pre-pass; only
  // genuinely branching transient states enter the restricted system
  // x = A·x + b on the embedded chain (A = the branching block, b = the
  // one-step probability of entering the BSCC or a state already determined
  // to be absorbed into it). One block serves every BSCC's right-hand side,
  // and none is built when no state branches.
  std::vector<bool> branching(n, false);
  size_t branching_count = 0;
  // determined_bscc[s] = the unique BSCC state s is absorbed into, or
  // UINT32_MAX when branching.
  std::vector<uint32_t> determined_bscc(n, UINT32_MAX);
  for (uint32_t s = 0; s < n; ++s) {
    const uint32_t component = sccs.component_of[s];
    if (bottom_index[component] != UINT32_MAX) {
      determined_bscc[s] = bottom_index[component];
    } else if (reachable_bsccs[component].size() == 1) {
      determined_bscc[s] = reachable_bsccs[component][0];
    } else {
      branching[s] = true;
      ++branching_count;
    }
  }

  {
    util::metrics::Registry& metrics = util::metrics::registry();
    if (metrics.enabled()) {
      metrics.add("steady_state.solves");
      metrics.add("steady_state.bsccs", bottoms.size());
      metrics.add("steady_state.absorption_states", branching_count);
      metrics.gauge("steady_state.last_bsccs", static_cast<double>(bottoms.size()));
      metrics.gauge("steady_state.last_absorption_size",
                    static_cast<double>(branching_count));
    }
  }

  std::optional<RestrictedSystem> system;
  if (branching_count > 0) system.emplace(chain, branching, options, "steady_state");
  std::vector<std::vector<double>> absorb(bottoms.size());

  // Independent per-BSCC absorption solves: each b writes only absorb[b], so
  // fanning them across the pool keeps results identical to the serial sweep.
  util::parallel_for(0, bottoms.size(), 1, [&](size_t b_begin, size_t b_end) {
    for (size_t b = b_begin; b < b_end; ++b) {
      absorb[b].assign(n, 0.0);
      for (uint32_t s = 0; s < n; ++s) {
        if (determined_bscc[s] == b) absorb[b][s] = 1.0;
      }
      if (!system) continue;
      const RestrictedSystem::Solution solved = system->solve(
          system->one_step([&](uint32_t j) { return determined_bscc[j] == b; }));
      fallbacks.fetch_add(solved.fallbacks, std::memory_order_relaxed);
      for (size_t k = 0; k < solved.x.size(); ++k) {
        absorb[b][system->states()[k]] = solved.x[k];
      }
    }
  });

  result.bscc_probability.assign(bottoms.size(), 0.0);
  for (uint32_t b = 0; b < bottoms.size(); ++b) {
    result.bscc_probability[b] = linalg::dot(initial, absorb[b]);
    result.bscc_states.push_back(sccs.members[bottoms[b]]);
  }

  // Per-BSCC stationary solves are likewise independent; BSCC member sets are
  // disjoint, so the distribution writes never overlap.
  util::parallel_for(0, bottoms.size(), 1, [&](size_t b_begin, size_t b_end) {
    for (size_t b = b_begin; b < b_end; ++b) {
      const double weight = result.bscc_probability[b];
      if (weight <= 0.0) continue;
      const std::vector<double> local_pi = bscc_stationary(
          chain, sccs.members[bottoms[b]], options.solver, fallbacks);
      const auto& members = sccs.members[bottoms[b]];
      for (size_t i = 0; i < members.size(); ++i) {
        result.distribution[members[i]] += weight * local_pi[i];
      }
    }
  });
  result.solver_fallbacks = fallbacks.load(std::memory_order_relaxed);
  return result;
}

std::vector<double> stationary_distribution(const Ctmc& chain,
                                            const SteadyStateOptions& options) {
  const SccDecomposition sccs = strongly_connected_components(chain.rates());
  if (sccs.component_count != 1) {
    throw std::invalid_argument(
        "stationary_distribution: chain is reducible; use steady_state()");
  }
  std::vector<uint32_t> all(chain.state_count());
  for (uint32_t i = 0; i < all.size(); ++i) all[i] = i;
  std::atomic<size_t> fallbacks{0};
  return bscc_stationary(chain, all, options.solver, fallbacks);
}

}  // namespace autosec::ctmc
