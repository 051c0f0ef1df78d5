// Transient analysis of CTMCs via uniformization:
//   π(t) = Σ_k Pois(qt, k) · π(0) Pᵏ   with P = I + Q/q.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "ctmc/ctmc.hpp"
#include "linalg/sell_matrix.hpp"
#include "util/budget.hpp"

namespace autosec::ctmc {

struct TransientOptions {
  double epsilon = 1e-12;  ///< truncation error bound for the Poisson weights
  /// Uniformization rate override; <= 0 means the chain's default rate.
  double uniformization_rate = 0.0;
  /// Storage layout of the uniformized matrix. kAuto (what the engine always
  /// runs) resolves from the matrix shape; blocked SELL-C-σ is bit-identical
  /// to CSR, and the explicit values exist so the kernel tests and the
  /// solver.blocked_vs_csr differential family can pin either path.
  linalg::MatrixLayout layout = linalg::MatrixLayout::kAuto;
  /// Steady-state detection: between Poisson phases the iterate's L1 step
  /// delta bounds every remaining phase's distance from the current iterate
  /// (P is stochastic, so ||πP − π'P||₁ ≤ ||π − π'||₁). Once that rigorous
  /// bound on the truncation error drops below steady_state_epsilon, the
  /// remaining phases collapse into one closed-form tail — long horizons on
  /// fast-mixing chains truncate to their mixing time. Surfaced in metrics
  /// as solve.steady_state_truncations.
  bool steady_state_detection = true;
  /// Per-entry error ceiling of a detected truncation; keep well below the
  /// 1e-8 cross-engine agreement tolerance.
  double steady_state_epsilon = 1e-9;
  /// Cooperative cancellation hook, polled between uniformization steps.
  /// When it returns true the solve unwinds with util::Cancelled.
  std::function<bool()> cancelled;
  /// Optional per-request resource budget. uniformize() charges each build
  /// before allocating it — Pᵀ with its counting-sort cursor, then the
  /// SELL-C-σ copy when the layout resolves to blocked — so the typed
  /// memory_budget_exceeded failure fires before the allocation; it then
  /// settles to the bytes the stage actually keeps.
  std::shared_ptr<util::ResourceBudget> budget;
};

/// A prebuilt uniformization stage: the rate q and the *transposed*
/// uniformized DTMC Pᵀ, in natural state order. The transposed layout turns
/// the hot vector-matrix product π·P into the gather-form Pᵀ·π, which sums
/// each output entry in the same order as the serial scatter kernel but runs
/// row-parallel on the engine thread pool — results are bit-identical at any
/// thread count. Building this once per chain (EngineSession caches it)
/// amortizes the transposition (and the optional SELL-C-σ packing) across
/// every transient query at any horizon.
struct Uniformized {
  double q = 0.0;
  size_t state_count = 0;
  linalg::CsrMatrix transposed;  ///< Pᵀ with P = I + Q/q
  /// SELL-C-σ packing of `transposed` when the layout resolved to blocked;
  /// bit-identical products, so step() may use either form.
  std::optional<linalg::SellMatrix> blocked;

  /// Budget bytes uniformize() charged for what this stage holds: Pᵀ and,
  /// when packed, its SELL-C-σ copy.
  size_t held_bytes() const;

  /// next = current · P, computed as Pᵀ · current.
  void step(const std::vector<double>& current, std::vector<double>& next) const {
    if (blocked) {
      blocked->right_multiply(current, next);
    } else {
      transposed.right_multiply(current, next);
    }
  }
};

/// Build the uniformization stage for a chain with its `absorbing` states
/// masked (Ctmc's convention), q from the moving states unless overridden.
/// Empty (max exit rate 0) chains yield a valid identity stage.
Uniformized uniformize(const Ctmc& chain, const TransientOptions& options = {},
                       const std::vector<bool>& absorbing = {});

/// Validate an initial (sub)distribution: size match, finite entries (NaN/Inf
/// unwind as a typed kNumericalError EngineFailure — `p < 0` is false for NaN,
/// so non-finiteness is checked explicitly), no negative entries, total mass
/// <= 1 (+1e-9 slack; subdistributions are legal — interval-bounded until
/// restricts mass between phases). Throws std::invalid_argument with `what`
/// as the message prefix for the shape/sign/mass defects. Shared by the
/// transient and steady-state entry points so both reject malformed input
/// identically.
void check_distribution(size_t state_count, const std::vector<double>& initial,
                        const char* what = "transient");

/// Distribution over states at time t, starting from `initial` (a probability
/// distribution over states), with the `absorbing` states (a mask as for
/// uniformize) stopped. t must be >= 0; t == 0 returns `initial`.
std::vector<double> transient_distribution(const Ctmc& chain,
                                           const std::vector<double>& initial,
                                           double t,
                                           const TransientOptions& options = {},
                                           const std::vector<bool>& absorbing = {});

/// Same, on a prebuilt uniformization stage (repeated horizons reuse it).
std::vector<double> transient_distribution(const Uniformized& uniformized,
                                           const std::vector<double>& initial,
                                           double t,
                                           const TransientOptions& options = {});

/// Probability of being in a `target` state at time exactly t, with the
/// `absorbing` states masked.
double transient_probability(const Ctmc& chain, const std::vector<double>& initial,
                             const std::vector<bool>& target, double t,
                             const TransientOptions& options = {},
                             const std::vector<bool>& absorbing = {});

/// Time-bounded reachability Pr[ reach `target` within t, staying in `allowed`
/// until then ] — the CSL measure of Φ U^{<=t} Ψ with Φ = allowed, Ψ = target.
/// Implemented by masking target states as absorbing-success and states
/// outside `allowed` ∪ `target` as absorbing-failure, then running transient
/// analysis; the chain is not copied.
double bounded_reachability(const Ctmc& chain, const std::vector<double>& initial,
                            const std::vector<bool>& allowed,
                            const std::vector<bool>& target, double t,
                            const TransientOptions& options = {});

}  // namespace autosec::ctmc
