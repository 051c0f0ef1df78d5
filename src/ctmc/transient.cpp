#include "ctmc/transient.hpp"

#include <algorithm>
#include <cmath>
#include <new>
#include <stdexcept>
#include <string>

#include "ctmc/poisson.hpp"
#include "linalg/vector_ops.hpp"
#include "util/cancel.hpp"
#include "util/failure.hpp"
#include "util/fault.hpp"
#include "util/metrics.hpp"

namespace autosec::ctmc {

void check_distribution(size_t state_count, const std::vector<double>& initial,
                        const char* what) {
  const std::string prefix(what);
  if (initial.size() != state_count) {
    throw std::invalid_argument(prefix + ": initial distribution size mismatch");
  }
  double total = 0.0;
  for (double p : initial) {
    // `p < 0.0` is false for NaN, and NaN/Inf would sail through the sum
    // guard (NaN compares false, the sum saturates) only to poison a solve
    // later — reject non-finite mass up front as a typed numerical failure.
    if (!std::isfinite(p)) {
      throw util::EngineFailure(
          util::FailureCode::kNumericalError, what,
          prefix + ": non-finite probability in initial distribution");
    }
    if (p < 0.0) throw std::invalid_argument(prefix + ": negative probability");
    total += p;
  }
  // Subdistributions (sum < 1) are allowed: multi-phase CSL algorithms
  // (interval-bounded until) restrict distributions between phases.
  if (total > 1.0 + 1e-9) {
    throw std::invalid_argument(prefix + ": initial distribution sums above 1");
  }
}

namespace {

/// CSR heap footprint: one double + one uint32 per entry plus row pointers.
size_t csr_bytes(size_t nonzeros, size_t rows) {
  return nonzeros * (sizeof(double) + sizeof(uint32_t)) +
         (rows + 1) * sizeof(uint32_t);
}

/// Returns a call-local stage's charge to the budget when the stage goes,
/// whether the call returns or throws.
struct ChargeRelease {
  util::ResourceBudget* budget;
  size_t bytes;
  ~ChargeRelease() {
    if (budget != nullptr) budget->release_bytes(bytes);
  }
};

}  // namespace

size_t Uniformized::held_bytes() const {
  return csr_bytes(transposed.nonzeros(), state_count) + (blocked ? blocked->bytes() : 0);
}

Uniformized uniformize(const Ctmc& chain, const TransientOptions& options) {
  util::metrics::registry().add("ctmc.uniformizations");
  Uniformized out;
  out.state_count = chain.state_count();
  out.q = options.uniformization_rate > 0.0 ? options.uniformization_rate
                                            : chain.default_uniformization_rate();

  // Charge the fused build *before* allocating it: Pᵀ straight from the rate
  // matrix (nnz(Pᵀ) ≤ nnz(R) + n for the compensating self-loops) plus the
  // n-entry cursor its counting sort scatters through. A tripped ceiling
  // therefore unwinds as a typed memory_budget_exceeded before the
  // allocation happens, not after the matrix already sits in memory.
  const size_t n = out.state_count;
  const size_t build_bytes =
      csr_bytes(chain.rates().nonzeros() + n, n) + n * sizeof(uint32_t);
  if (options.budget) options.budget->charge_bytes(build_bytes, "uniformize");
  if (util::fault::triggered("uniformize.alloc")) throw std::bad_alloc();
  out.transposed = chain.uniformized_transposed(out.q);
  // Settle to what the stage keeps: the cursor is gone and the self-loop
  // bound may have overcounted.
  if (options.budget) {
    options.budget->release_bytes(build_bytes -
                                  csr_bytes(out.transposed.nonzeros(), n));
  }

  if (linalg::resolve_layout(options.layout, out.transposed) ==
      linalg::MatrixLayout::kBlocked) {
    // The packed copy's exact size (chunk padding included) is known from
    // the row lengths alone, so it too is charged before it is allocated.
    if (options.budget) {
      options.budget->charge_bytes(linalg::SellMatrix::bytes_for(out.transposed),
                                   "uniformize");
    }
    out.blocked.emplace(out.transposed);
    util::metrics::registry().add("uniformize.blocked_layouts");
  }
  return out;
}

std::vector<double> transient_distribution(const Uniformized& uniformized,
                                           const std::vector<double>& initial,
                                           double t, const TransientOptions& options) {
  check_distribution(uniformized.state_count, initial);
  if (t < 0.0) throw std::invalid_argument("transient: negative time");
  if (t == 0.0) return initial;

  const PoissonWeights weights = poisson_weights(uniformized.q * t, options.epsilon);
  {
    util::metrics::Registry& metrics = util::metrics::registry();
    if (metrics.enabled()) {
      metrics.add("ctmc.transient_solves");
      metrics.gauge("poisson.last_qt", uniformized.q * t);
      metrics.gauge("poisson.last_left", static_cast<double>(weights.left));
      metrics.gauge("poisson.last_right", static_cast<double>(weights.right));
    }
  }

  const size_t n = uniformized.state_count;
  std::vector<double> current = initial;
  std::vector<double> next(n, 0.0);
  std::vector<double> result(n, 0.0);

  size_t steps = 0;
  for (size_t k = 0; k <= weights.right; ++k) {
    if (options.cancelled && options.cancelled()) {
      throw util::Cancelled("transient");
    }
    if (k >= weights.left) {
      linalg::axpy(weights.weight(k), current, result);
    }
    if (k < weights.right) {
      uniformized.step(current, next);
      ++steps;
      // Steady-state detection (every 4th phase: the delta pass costs an
      // O(n) scan against the O(nnz) product). P is stochastic, so step
      // deltas contract in L1: ||π_j − π_{k+1}||₁ ≤ (j−k−1)·δ for every
      // later phase j. When δ · (remaining phases) ≤ ε the remaining
      // contributions collapse — within ε per entry — into the total
      // remaining Poisson mass applied to the current iterate.
      if (options.steady_state_detection && (k & 3) == 3 &&
          k + 1 < weights.right) {
        double delta = 0.0;
        for (size_t i = 0; i < n; ++i) delta += std::abs(next[i] - current[i]);
        const double remaining = static_cast<double>(weights.right - (k + 1));
        if (delta * remaining <= options.steady_state_epsilon) {
          double tail_mass = 0.0;
          for (size_t j = std::max(k + 1, weights.left); j <= weights.right; ++j) {
            tail_mass += weights.weight(j);
          }
          linalg::axpy(tail_mass, next, result);
          util::metrics::Registry& metrics = util::metrics::registry();
          if (metrics.enabled()) {
            metrics.add("solve.steady_state_truncations");
            metrics.add("solve.steady_state_steps_saved", weights.right - (k + 1));
          }
          break;
        }
      }
      current.swap(next);
    }
  }
  util::metrics::registry().add("ctmc.matrix_vector_products", steps);
  // Health guard: a NaN/Inf anywhere in the result means an upstream rate or
  // weight was poisoned — surface a typed failure, never a silent wrong answer.
  double checksum = 0.0;
  for (const double p : result) checksum += p;
  if (!std::isfinite(checksum)) {
    throw util::EngineFailure(
        util::FailureCode::kNumericalError, "transient",
        "transient: non-finite probability in the result distribution");
  }
  return result;
}

std::vector<double> transient_distribution(const Ctmc& chain,
                                           const std::vector<double>& initial,
                                           double t, const TransientOptions& options) {
  check_distribution(chain.state_count(), initial);
  if (t < 0.0) throw std::invalid_argument("transient: negative time");
  if (t == 0.0 || chain.max_exit_rate() == 0.0) return initial;
  // This stage (a bounded until's absorbing copy, say) lives for this call
  // only, so the budget keeps its charge only as long as it holds the stage.
  const Uniformized stage = uniformize(chain, options);
  const ChargeRelease release{options.budget.get(), stage.held_bytes()};
  return transient_distribution(stage, initial, t, options);
}

double transient_probability(const Ctmc& chain, const std::vector<double>& initial,
                             const std::vector<bool>& target, double t,
                             const TransientOptions& options) {
  if (target.size() != chain.state_count()) {
    throw std::invalid_argument("transient_probability: target mask size mismatch");
  }
  const std::vector<double> dist = transient_distribution(chain, initial, t, options);
  double acc = 0.0;
  for (size_t i = 0; i < dist.size(); ++i) {
    if (target[i]) acc += dist[i];
  }
  return acc;
}

double bounded_reachability(const Ctmc& chain, const std::vector<double>& initial,
                            const std::vector<bool>& allowed,
                            const std::vector<bool>& target, double t,
                            const TransientOptions& options) {
  const size_t n = chain.state_count();
  if (allowed.size() != n || target.size() != n) {
    throw std::invalid_argument("bounded_reachability: mask size mismatch");
  }
  // Both target states (success: once reached, the path formula holds) and
  // forbidden states (failure: the until is violated) become absorbing.
  std::vector<bool> absorbing(n, false);
  for (size_t i = 0; i < n; ++i) absorbing[i] = target[i] || !allowed[i];
  const Ctmc modified = chain.with_absorbing(absorbing);
  return transient_probability(modified, initial, target, t, options);
}

}  // namespace autosec::ctmc
