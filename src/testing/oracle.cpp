#include "testing/oracle.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "ctmc/transient.hpp"
#include "linalg/dense.hpp"

namespace autosec::testing {

namespace {

using linalg::DenseMatrix;

void check_size(const ctmc::Ctmc& chain, const OracleOptions& options) {
  if (chain.state_count() > options.max_states) {
    throw std::invalid_argument("oracle: chain exceeds the dense-state limit");
  }
}

/// Dense generator Q = R − diag(E).
DenseMatrix dense_generator(const ctmc::Ctmc& chain) {
  DenseMatrix q = DenseMatrix::from_csr(chain.rates());
  for (size_t i = 0; i < chain.state_count(); ++i) {
    q.at(i, i) -= chain.exit_rate(i);
  }
  return q;
}

double dot(const std::vector<double>& a, const std::vector<double>& b) {
  double sum = 0.0;
  for (size_t i = 0; i < a.size(); ++i) sum += a[i] * b[i];
  return sum;
}

double mask_dot(const std::vector<double>& distribution, const std::vector<bool>& mask) {
  double sum = 0.0;
  for (size_t i = 0; i < distribution.size(); ++i) {
    if (mask[i]) sum += distribution[i];
  }
  return sum;
}

/// π(t) = π(0)·e^{Qt} on a dense generator.
std::vector<double> dense_transient(const DenseMatrix& generator,
                                    const std::vector<double>& initial, double t) {
  ctmc::check_distribution(generator.rows(), initial, "oracle_transient");
  if (t < 0.0) throw std::invalid_argument("oracle_transient: negative time");
  if (t == 0.0 || generator.rows() == 0) return initial;
  return linalg::dense_expm(generator.scaled(t)).left_multiply(initial);
}

}  // namespace

std::vector<double> oracle_transient(const ctmc::Ctmc& chain,
                                     const std::vector<double>& initial, double t,
                                     const OracleOptions& options) {
  check_size(chain, options);
  return dense_transient(dense_generator(chain), initial, t);
}

double oracle_transient_probability(const ctmc::Ctmc& chain,
                                    const std::vector<double>& initial,
                                    const std::vector<bool>& target, double t,
                                    const OracleOptions& options) {
  return mask_dot(oracle_transient(chain, initial, t, options), target);
}

double oracle_bounded_reachability(const ctmc::Ctmc& chain,
                                   const std::vector<double>& initial,
                                   const std::vector<bool>& allowed,
                                   const std::vector<bool>& target, double t,
                                   const OracleOptions& options) {
  check_size(chain, options);
  const size_t n = chain.state_count();
  // Same CSL semantics as ctmc::bounded_reachability: target states absorb as
  // success, states outside allowed ∪ target absorb as failure; already-target
  // initial mass counts fully. The oracle zeroes those generator rows itself,
  // sharing no masking code with the engine.
  DenseMatrix generator = dense_generator(chain);
  for (size_t i = 0; i < n; ++i) {
    if (!target[i] && allowed[i]) continue;
    for (size_t j = 0; j < n; ++j) generator.at(i, j) = 0.0;
  }
  return mask_dot(dense_transient(generator, initial, t), target);
}

std::vector<double> oracle_steady_state(const ctmc::Ctmc& chain,
                                        const std::vector<double>& initial,
                                        const OracleOptions& options) {
  check_size(chain, options);
  ctmc::check_distribution(chain.state_count(), initial, "oracle_steady_state");
  const size_t n = chain.state_count();
  if (n == 0) return initial;
  if (chain.max_exit_rate() == 0.0) return initial;  // every state absorbing

  const double q = chain.default_uniformization_rate();
  // P = I + Q/q, built densely here (the self-loop entry only where positive).
  DenseMatrix power = DenseMatrix::from_csr(chain.rates()).scaled(1.0 / q);
  for (size_t i = 0; i < n; ++i) power.at(i, i) = std::max(0.0, 1.0 - chain.exit_rate(i) / q);
  std::vector<double> current = power.left_multiply(initial);
  // π · P^{2^k} for growing k; each squaring doubles the horizon, so slow
  // mixing costs iterations logarithmically. Repeated squaring also doubles
  // the accumulated roundoff every step, so once the distribution has settled
  // (small delta) any *growth* in delta marks the roundoff regime — stop and
  // keep the best iterate rather than squaring the matrix into garbage.
  double previous_delta = std::numeric_limits<double>::infinity();
  for (int iteration = 0; iteration < 64; ++iteration) {
    power = power.multiply(power);
    std::vector<double> next = power.left_multiply(initial);
    double delta = 0.0;
    for (size_t i = 0; i < n; ++i) delta = std::max(delta, std::fabs(next[i] - current[i]));
    if (delta < options.steady_tolerance) {
      current = std::move(next);
      break;
    }
    if (delta < 1e-8 && delta >= previous_delta) break;  // roundoff floor reached
    current = std::move(next);
    previous_delta = delta;
  }
  // Clean up the tiny negatives dense squaring can leave and renormalize to
  // the initial mass.
  double mass = 0.0;
  double target_mass = 0.0;
  for (const double v : initial) target_mass += v;
  for (double& v : current) {
    if (v < 0.0) v = 0.0;
    mass += v;
  }
  if (mass > 0.0) {
    for (double& v : current) v *= target_mass / mass;
  }
  return current;
}

double oracle_cumulative_reward(const ctmc::Ctmc& chain,
                                const std::vector<double>& initial,
                                const std::vector<double>& state_rewards, double t,
                                const OracleOptions& options) {
  check_size(chain, options);
  ctmc::check_distribution(chain.state_count(), initial, "oracle_cumulative_reward");
  if (t < 0.0) throw std::invalid_argument("oracle_cumulative_reward: negative time");
  const size_t n = chain.state_count();
  if (t == 0.0 || n == 0) return 0.0;
  if (state_rewards.size() != n) {
    throw std::invalid_argument("oracle_cumulative_reward: reward size mismatch");
  }
  // Van Loan block trick: exp([[Q, r],[0, 0]] t) has ∫₀ᵗ e^{Qs} r ds as its
  // top-right column, so the expectation is one augmented expm away.
  DenseMatrix augmented(n + 1, n + 1);
  const DenseMatrix generator = dense_generator(chain);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) augmented.at(i, j) = generator.at(i, j) * t;
    augmented.at(i, n) = state_rewards[i] * t;
  }
  const DenseMatrix block = linalg::dense_expm(augmented);
  double expectation = 0.0;
  for (size_t i = 0; i < n; ++i) expectation += initial[i] * block.at(i, n);
  return expectation;
}

double oracle_instantaneous_reward(const ctmc::Ctmc& chain,
                                   const std::vector<double>& initial,
                                   const std::vector<double>& state_rewards, double t,
                                   const OracleOptions& options) {
  return dot(oracle_transient(chain, initial, t, options), state_rewards);
}

double oracle_steady_reward(const ctmc::Ctmc& chain, const std::vector<double>& initial,
                            const std::vector<double>& state_rewards,
                            const OracleOptions& options) {
  return dot(oracle_steady_state(chain, initial, options), state_rewards);
}

std::vector<double> oracle_mdp_reachability(const mdp::Mdp& mdp,
                                            const std::vector<bool>& target,
                                            bool maximize,
                                            const OracleOptions& options) {
  mdp.validate();
  const size_t n = mdp.state_count();
  if (n > options.max_states) {
    throw std::invalid_argument("oracle_mdp_reachability: MDP exceeds the state limit");
  }
  if (target.size() != n) {
    throw std::invalid_argument("oracle_mdp_reachability: target size mismatch");
  }

  // Count the memoryless schedulers (product of per-state action counts) and
  // refuse un-enumerable spaces up front.
  constexpr size_t kMaxSchedulers = size_t{1} << 17;
  size_t scheduler_count = 1;
  for (size_t s = 0; s < n; ++s) {
    const auto [first, last] = mdp.actions_of(static_cast<uint32_t>(s));
    const size_t actions = last - first;
    if (actions == 0 || scheduler_count > kMaxSchedulers / actions) {
      throw std::invalid_argument(
          "oracle_mdp_reachability: scheduler space too large to enumerate");
    }
    scheduler_count *= actions;
  }

  std::vector<double> best(n, maximize ? 0.0 : 1.0);
  std::vector<size_t> choice(n, 0);  // per-state action index (odometer)
  for (size_t scheduler = 0; scheduler < scheduler_count; ++scheduler) {
    // BFS backward from the target over the induced DTMC's edges: `reach[s]`
    // iff s can reach a target state at all under this scheduler.
    std::vector<std::vector<size_t>> predecessors(n);
    for (size_t s = 0; s < n; ++s) {
      if (target[s]) continue;  // target states are absorbing for F target
      const size_t row = mdp.state_offsets[s] + choice[s];
      for (const size_t to : mdp.transitions.row_columns(row)) {
        predecessors[to].push_back(s);
      }
    }
    std::vector<bool> reach = target;
    std::vector<size_t> frontier;
    for (size_t s = 0; s < n; ++s) {
      if (target[s]) frontier.push_back(s);
    }
    while (!frontier.empty()) {
      const size_t s = frontier.back();
      frontier.pop_back();
      for (const size_t from : predecessors[s]) {
        if (!reach[from]) {
          reach[from] = true;
          frontier.push_back(from);
        }
      }
    }

    // Unknown states U = reach \ target. With the target absorbing, every
    // state of U is transient, so (I − P_UU) is nonsingular and
    // x = (I − P_UU)⁻¹ · P_U→target · 1 is the reachability probability.
    std::vector<size_t> unknown;
    std::vector<size_t> index_of(n, n);
    for (size_t s = 0; s < n; ++s) {
      if (reach[s] && !target[s]) {
        index_of[s] = unknown.size();
        unknown.push_back(s);
      }
    }
    std::vector<double> values(n, 0.0);
    for (size_t s = 0; s < n; ++s) {
      if (target[s]) values[s] = 1.0;
    }
    if (!unknown.empty()) {
      const size_t u = unknown.size();
      DenseMatrix system(u, u);
      std::vector<double> rhs(u, 0.0);
      for (size_t i = 0; i < u; ++i) {
        system.at(i, i) = 1.0;
        const size_t row = mdp.state_offsets[unknown[i]] + choice[unknown[i]];
        const auto cols = mdp.transitions.row_columns(row);
        const auto vals = mdp.transitions.row_values(row);
        for (size_t k = 0; k < cols.size(); ++k) {
          const size_t to = cols[k];
          if (target[to]) {
            rhs[i] += vals[k];
          } else if (index_of[to] < n) {
            system.at(i, index_of[to]) -= vals[k];
          }  // else: `to` cannot reach the target, contributes 0
        }
      }
      const std::vector<double> solved = linalg::dense_solve(std::move(system), rhs);
      for (size_t i = 0; i < u; ++i) values[unknown[i]] = solved[i];
    }

    for (size_t s = 0; s < n; ++s) {
      best[s] = maximize ? std::max(best[s], values[s]) : std::min(best[s], values[s]);
    }

    // Advance the odometer to the next scheduler.
    for (size_t s = 0; s < n; ++s) {
      const auto [first, last] = mdp.actions_of(static_cast<uint32_t>(s));
      if (++choice[s] < static_cast<size_t>(last - first)) break;
      choice[s] = 0;
    }
  }
  return best;
}

}  // namespace autosec::testing
