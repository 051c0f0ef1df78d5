#include "ctmc/rewards.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>

#include "ctmc/poisson.hpp"
#include "linalg/vector_ops.hpp"
#include "util/cancel.hpp"
#include "util/failure.hpp"
#include "util/metrics.hpp"

namespace autosec::ctmc {

std::vector<double> expected_cumulative_rewards(
    const Uniformized& uniformized, const std::vector<double>& initial,
    std::span<const CumulativeRewardMember> members, const TransientOptions& options) {
  const size_t n = uniformized.state_count;
  for (const CumulativeRewardMember& member : members) {
    if (initial.size() != n || member.state_rewards.size() != n) {
      throw std::invalid_argument("cumulative_reward: size mismatch");
    }
    if (member.t < 0.0) throw std::invalid_argument("cumulative_reward: negative time");
  }
  util::metrics::Registry& metrics = util::metrics::registry();
  metrics.add("ctmc.cumulative_reward_passes");

  // E = (1/q) Σ_{k=0..R} (1 − CDF(k)) (π₀ Pᵏ)·r per member.  Since the
  // normalized weights sum to 1 over [L,R], the factor (1 − CDF(k)) is 1 for
  // k < L and 0 for k ≥ R; running the cumulative sum incrementally avoids
  // the quadratic cdf() scan. A member with t = 0 accumulates nothing.
  struct Accumulator {
    PoissonWeights weights;
    double reward_ceiling = 0.0;
    double cdf = 0.0;
    double acc = 0.0;
    bool done = false;
  };
  std::vector<Accumulator> accumulators(members.size());
  size_t active = 0;
  for (size_t m = 0; m < members.size(); ++m) {
    Accumulator& member = accumulators[m];
    if (members[m].t == 0.0) {
      member.done = true;
      continue;
    }
    member.weights = poisson_weights(uniformized.q * members[m].t, options.epsilon);
    for (const double r : members[m].state_rewards) {
      member.reward_ceiling = std::max(member.reward_ceiling, std::abs(r));
    }
    ++active;
  }

  std::vector<double> current;
  std::vector<double> next;
  if (active > 0) {
    current = initial;
    next.assign(n, 0.0);
  }
  size_t steps = 0;
  for (size_t k = 0; active > 0; ++k) {
    if (options.cancelled && options.cancelled()) {
      throw util::Cancelled("cumulative_reward");
    }
    bool step_needed = false;
    for (size_t m = 0; m < members.size(); ++m) {
      Accumulator& member = accumulators[m];
      if (member.done) continue;
      member.cdf += member.weights.weight(k);
      const double factor = 1.0 - member.cdf;
      if (factor > 0.0) {
        member.acc += factor * linalg::dot(current, members[m].state_rewards);
      }
      if (k == member.weights.right) {
        member.done = true;
        --active;
      } else {
        step_needed = true;
      }
    }
    if (!step_needed) break;
    uniformized.step(current, next);
    ++steps;
    // Steady-state detection, with the quadratic tail bound this sum needs:
    // the collapsed-tail error is Σ_j (1−CDF(j))·(j−k−1)·δ·‖r‖∞/q
    // ≤ δ·(remaining)²·‖r‖∞/q (L1-contracting step deltas, as in
    // transient_distribution). The tail itself has the closed form
    // Σ_j (1−CDF(j)) · π_{k+1}·r. The step delta is shared; each member
    // tests it against its own remaining phases and reward ceiling.
    if (options.steady_state_detection && (k & 3) == 3) {
      std::optional<double> delta;
      for (size_t m = 0; m < members.size(); ++m) {
        Accumulator& member = accumulators[m];
        if (member.done || k + 1 >= member.weights.right) continue;
        if (!delta) {
          delta = 0.0;
          for (size_t i = 0; i < n; ++i) *delta += std::abs(next[i] - current[i]);
        }
        const size_t right = member.weights.right;
        const double remaining = static_cast<double>(right - (k + 1));
        if (*delta * remaining * remaining * std::max(1.0, member.reward_ceiling) /
                uniformized.q <=
            options.steady_state_epsilon) {
          double tail_factor = 0.0;
          double tail_cdf = member.cdf;
          for (size_t j = k + 1; j <= right; ++j) {
            tail_cdf += member.weights.weight(j);
            const double f = 1.0 - tail_cdf;
            if (f > 0.0) tail_factor += f;
          }
          member.acc += tail_factor * linalg::dot(next, members[m].state_rewards);
          member.done = true;
          --active;
          if (metrics.enabled()) {
            metrics.add("solve.steady_state_truncations");
            metrics.add("solve.steady_state_steps_saved", right - (k + 1));
          }
        }
      }
    }
    current.swap(next);
  }
  metrics.add("ctmc.matrix_vector_products", steps);

  std::vector<double> values(members.size(), 0.0);
  for (size_t m = 0; m < members.size(); ++m) {
    if (members[m].t == 0.0) continue;
    values[m] = accumulators[m].acc / uniformized.q;
    // Health guard: a NaN/Inf value means a poisoned rate, weight or reward —
    // surface a typed failure, never a silent wrong answer.
    if (!std::isfinite(values[m])) {
      throw util::EngineFailure(util::FailureCode::kNumericalError, "cumulative_reward",
                                "cumulative_reward: non-finite expected reward");
    }
  }
  return values;
}

double expected_cumulative_reward(const Uniformized& uniformized,
                                  const std::vector<double>& initial,
                                  const std::vector<double>& state_rewards, double t,
                                  const TransientOptions& options) {
  const CumulativeRewardMember member{state_rewards, t};
  return expected_cumulative_rewards(uniformized, initial, std::span(&member, 1),
                                     options)
      .front();
}

double expected_cumulative_reward(const Ctmc& chain, const std::vector<double>& initial,
                                  const std::vector<double>& state_rewards, double t,
                                  const TransientOptions& options) {
  const size_t n = chain.state_count();
  if (initial.size() != n || state_rewards.size() != n) {
    throw std::invalid_argument("cumulative_reward: size mismatch");
  }
  if (t < 0.0) throw std::invalid_argument("cumulative_reward: negative time");
  if (t == 0.0) return 0.0;
  if (chain.max_exit_rate() == 0.0) {
    // No movement: the chain sits in the initial distribution for all of [0,t].
    return t * linalg::dot(initial, state_rewards);
  }
  return expected_cumulative_reward(uniformize(chain, options), initial,
                                    state_rewards, t, options);
}

double expected_instantaneous_reward(const Ctmc& chain,
                                     const std::vector<double>& initial,
                                     const std::vector<double>& state_rewards, double t,
                                     const TransientOptions& options) {
  if (state_rewards.size() != chain.state_count()) {
    throw std::invalid_argument("instantaneous_reward: size mismatch");
  }
  const std::vector<double> dist = transient_distribution(chain, initial, t, options);
  return linalg::dot(dist, state_rewards);
}

double steady_state_reward(const Ctmc& chain, const std::vector<double>& initial,
                           const std::vector<double>& state_rewards,
                           const SteadyStateOptions& options) {
  if (state_rewards.size() != chain.state_count()) {
    throw std::invalid_argument("steady_state_reward: size mismatch");
  }
  const SteadyStateResult result = steady_state(chain, initial, options);
  return linalg::dot(result.distribution, state_rewards);
}

double expected_time_fraction(const Ctmc& chain, const std::vector<double>& initial,
                              const std::vector<bool>& mask, double t,
                              const TransientOptions& options) {
  if (mask.size() != chain.state_count()) {
    throw std::invalid_argument("expected_time_fraction: mask size mismatch");
  }
  if (!(t > 0.0)) throw std::invalid_argument("expected_time_fraction: t must be > 0");
  std::vector<double> rewards(mask.size(), 0.0);
  for (size_t i = 0; i < mask.size(); ++i) rewards[i] = mask[i] ? 1.0 : 0.0;
  return expected_cumulative_reward(chain, initial, rewards, t, options) / t;
}

}  // namespace autosec::ctmc
