// The restricted system behind every unbounded CTMC measure (unbounded
// until, reward to target, steady-state absorption): x = A·x + b on the
// embedded jump chain over only the states graph precomputation left open.
// The block A_ij = R_ij / E_i is assembled straight from R, local ids in
// ascending global order. Leaving out the settled rows and columns drops only
// exact zeros, so a solve returns the bits a full-size system would.
#pragma once

#include <cstdint>
#include <vector>

#include "ctmc/ctmc.hpp"
#include "ctmc/steady_state.hpp"

namespace autosec::ctmc {

class RestrictedSystem {
 public:
  /// The block over the states `members` marks, each with a positive exit
  /// rate; `chain` must outlive the system. Its bytes are charged to
  /// `options.budget` under `stage` before it is allocated and returned with
  /// the system; `stage` also names the stage of solve()'s failures.
  RestrictedSystem(const Ctmc& chain, const std::vector<bool>& members,
                   SteadyStateOptions options, const char* stage);
  ~RestrictedSystem();
  RestrictedSystem(const RestrictedSystem&) = delete;

  /// The members, ascending: local id k is global state states()[k].
  const std::vector<uint32_t>& states() const { return states_; }
  size_t block_bytes() const { return block_bytes_; }

  /// b_k = Σ_{j : into(j)} R_ij / E_i for member i = states()[k], summed in
  /// column order: the one-step probability into the states `into` holds for.
  template <typename Into>
  std::vector<double> one_step(Into into) const {
    std::vector<double> b(states_.size(), 0.0);
    for (size_t k = 0; k < states_.size(); ++k) {
      const auto cols = chain_.rates().row_columns(states_[k]);
      const auto vals = chain_.rates().row_values(states_[k]);
      for (size_t e = 0; e < cols.size(); ++e) {
        if (into(cols[e])) b[k] += vals[e] / chain_.exit_rate(states_[k]);
      }
    }
    return b;
  }

  struct Solution {
    std::vector<double> x;  ///< per member, in local order
    size_t fallbacks = 0;   ///< solver rungs taken beyond the first
  };

  /// x = A·x + b by linalg::solve_fixpoint, b per member. Throws
  /// util::Cancelled when cancelled, and a solver_diverged EngineFailure with
  /// the iterations and last residual when every rung fails. Thread-safe.
  Solution solve(const std::vector<double>& b) const;

 private:
  const Ctmc& chain_;
  SteadyStateOptions options_;
  const char* stage_;
  std::vector<uint32_t> states_;
  linalg::CsrMatrix block_;
  size_t block_bytes_ = 0;
};

}  // namespace autosec::ctmc
