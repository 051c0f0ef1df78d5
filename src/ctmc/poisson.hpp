// Truncated Poisson weights for uniformization, in the spirit of Fox & Glynn
// (1988). The weights w_k = e^{-λ} λ^k / k! are computed by a numerically
// stable recurrence centred at the mode ⌊λ⌋ (where the pmf is largest), with
// left/right truncation once the captured mass reaches 1 − ε, and finally
// normalized so the retained weights sum to exactly 1.
#pragma once

#include <cstddef>
#include <vector>

namespace autosec::ctmc {

struct PoissonWeights {
  size_t left = 0;   ///< first retained index k (inclusive)
  size_t right = 0;  ///< last retained index k (inclusive)
  /// weights[k - left] ≈ Poisson(λ) pmf at k, normalized over [left, right].
  std::vector<double> weights;
  /// Mass captured before normalization (≥ 1 − ε).
  double captured_mass = 0.0;

  double weight(size_t k) const {
    return (k < left || k > right) ? 0.0 : weights[k - left];
  }

  /// Σ_{j ≤ k} weight(j) over the retained range.
  double cdf(size_t k) const;
};

/// Compute the truncated weights; λ ≥ 0, 0 < ε < 1. λ = 0 yields the single
/// weight w_0 = 1.
PoissonWeights poisson_weights(double lambda, double epsilon = 1e-12);

}  // namespace autosec::ctmc
