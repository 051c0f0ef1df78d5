// Reward measures on CTMCs, the workhorse of the paper's analysis: the
// reported security metric is the expected cumulated time a violation label
// holds within one year — a cumulative state-reward measure R=?[C<=t] with
// reward 1 on violating states.
#pragma once

#include <span>
#include <vector>

#include "ctmc/ctmc.hpp"
#include "ctmc/steady_state.hpp"
#include "ctmc/transient.hpp"

namespace autosec::ctmc {

/// Expected accumulated state reward up to time t:
///   E[ ∫₀ᵗ r(X_s) ds ]
/// computed via uniformization:
///   (1/q) Σ_k (1 − PoisCDF(k; qt)) · (π₀ Pᵏ) · r
/// The truncation point of the Poisson weights bounds the error by ε·t·‖r‖∞.
double expected_cumulative_reward(const Ctmc& chain, const std::vector<double>& initial,
                                  const std::vector<double>& state_rewards, double t,
                                  const TransientOptions& options = {});

/// Same, on a prebuilt uniformization stage (EngineSession caches the stage
/// so repeated cumulative-reward horizons skip the uniformize+transpose): a
/// one-member expected_cumulative_rewards call.
double expected_cumulative_reward(const Uniformized& uniformized,
                                  const std::vector<double>& initial,
                                  const std::vector<double>& state_rewards, double t,
                                  const TransientOptions& options = {});

/// One member of a shared cumulative-reward pass: a state-reward vector and
/// the horizon to accumulate it to.
struct CumulativeRewardMember {
  std::span<const double> state_rewards;
  double t = 0.0;
};

/// Expected accumulated rewards of several members from one walk over the
/// iterates π₀Pᵏ of a prebuilt uniformization stage, in member order. Each
/// step is one product plus one dot per member still accumulating; every
/// member keeps its own Poisson weights, steady-state-detection test and
/// accumulator, so each value is bit-identical to the member's one-member
/// call. Polls options.cancelled once per step (util::Cancelled) and throws
/// a kNumericalError EngineFailure when a member's value is not finite.
/// Counted once per call as ctmc.cumulative_reward_passes.
std::vector<double> expected_cumulative_rewards(
    const Uniformized& uniformized, const std::vector<double>& initial,
    std::span<const CumulativeRewardMember> members,
    const TransientOptions& options = {});

/// Expected instantaneous state reward at time t: E[r(X_t)] = π(t)·r.
double expected_instantaneous_reward(const Ctmc& chain,
                                     const std::vector<double>& initial,
                                     const std::vector<double>& state_rewards, double t,
                                     const TransientOptions& options = {});

/// Long-run average state reward: π_∞ · r with π_∞ the steady-state
/// distribution from `initial`.
double steady_state_reward(const Ctmc& chain, const std::vector<double>& initial,
                           const std::vector<double>& state_rewards,
                           const SteadyStateOptions& options = {});

/// Fraction of the interval [0, t] spent in states of `mask` (expected), i.e.
/// expected_cumulative_reward with indicator rewards, divided by t. This is
/// the paper's "percentage of time message m is exploitable within 1 year".
double expected_time_fraction(const Ctmc& chain, const std::vector<double>& initial,
                              const std::vector<bool>& mask, double t,
                              const TransientOptions& options = {});

}  // namespace autosec::ctmc
