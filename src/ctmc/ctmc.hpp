// Continuous-Time Markov Chain representation.
//
// A CTMC is stored as its off-diagonal transition-rate matrix R (R_ij = rate
// of jumping from state i to state j, i != j). The generator is
// Q = R − diag(E) with exit rates E_i = Σ_j R_ij. All analyses (transient,
// steady-state, rewards) work on this explicit-state representation; the
// symbolic layer produces it via state-space exploration.
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/csr_matrix.hpp"

namespace autosec::ctmc {

class Ctmc {
 public:
  /// Empty chain (0 states); useful as a placeholder in result aggregates.
  Ctmc() = default;

  /// `rates` must be square with zero diagonal (self-loops are meaningless in
  /// a CTMC and are rejected) and non-negative entries.
  explicit Ctmc(linalg::CsrMatrix rates);

  size_t state_count() const { return rates_.rows(); }
  const linalg::CsrMatrix& rates() const { return rates_; }

  double exit_rate(size_t state) const { return exit_rates_[state]; }
  const std::vector<double>& exit_rates() const { return exit_rates_; }
  double max_exit_rate() const { return max_exit_rate_; }

  // Absorbing masks replace copies of the chain: a masked state keeps no
  // outgoing transition. An empty mask masks nothing; any other must have
  // state_count() entries (std::invalid_argument otherwise).

  /// Largest exit rate among the states `absorbing` leaves moving.
  double max_exit_rate(const std::vector<bool>& absorbing) const;

  /// Full generator Q = R − diag(E) (diagonal entries included).
  linalg::CsrMatrix generator() const;

  /// Transpose of the uniformized DTMC P = I + Q/q, built directly from the
  /// rate matrix in one counting-sort pass — P itself is never materialized.
  /// Requires q >= the max exit rate of the moving states; states whose exit
  /// rate is below q receive the compensating self-loop, so absorbing and
  /// masked states get a self-loop of probability 1 and no other entry.
  linalg::CsrMatrix uniformized_transposed(double q,
                                           const std::vector<bool>& absorbing = {}) const;

  /// Uniformization rate used by default: 1.02 * max exit rate of the
  /// unmasked states (strictly above every exit rate so the uniformized chain
  /// is aperiodic), with a positive floor for the degenerate all-absorbing
  /// chain.
  double default_uniformization_rate(const std::vector<bool>& absorbing = {}) const;

 private:
  linalg::CsrMatrix rates_;
  std::vector<double> exit_rates_;
  double max_exit_rate_ = 0.0;
};

}  // namespace autosec::ctmc
