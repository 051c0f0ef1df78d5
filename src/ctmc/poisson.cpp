#include "ctmc/poisson.hpp"

#include <math.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <stdexcept>

namespace autosec::ctmc {

double PoissonWeights::cdf(size_t k) const {
  if (k < left) return 0.0;
  const size_t top = std::min(k, right);
  double acc = 0.0;
  for (size_t j = left; j <= top; ++j) acc += weights[j - left];
  return acc;
}

PoissonWeights poisson_weights(double lambda, double epsilon) {
  if (!(lambda >= 0.0)) throw std::invalid_argument("poisson_weights: lambda < 0");
  if (!(epsilon > 0.0 && epsilon < 1.0)) {
    throw std::invalid_argument("poisson_weights: epsilon out of (0,1)");
  }

  PoissonWeights out;
  if (lambda == 0.0) {
    out.left = out.right = 0;
    out.weights = {1.0};
    out.captured_mass = 1.0;
    return out;
  }

  // pmf at the mode, via lgamma to stay finite for large lambda. lgamma_r,
  // not std::lgamma: std::lgamma writes the global `signgam`, a data race
  // when pool threads expand several Fox-Glynn windows at once.
  const auto mode = static_cast<size_t>(std::floor(lambda));
  int sign = 0;
  const double log_pmf_mode = -lambda + static_cast<double>(mode) * std::log(lambda) -
                              ::lgamma_r(static_cast<double>(mode) + 1.0, &sign);
  const double pmf_mode = std::exp(log_pmf_mode);

  // Expand greedily from the mode, always adding the larger of the two
  // frontier weights, until mass >= 1 - epsilon. Kahan summation keeps the
  // captured mass accurate over the ~O(sqrt(lambda)) terms; the relative
  // frontier cutoff stops the expansion once further terms can no longer
  // change the sum (they would otherwise drag the window out to the far
  // tails for very large lambda).
  std::deque<double> weights = {pmf_mode};
  size_t left = mode;
  size_t right = mode;
  double mass = pmf_mode;
  double compensation = 0.0;
  auto accumulate = [&](double term) {
    const double y = term - compensation;
    const double t = mass + y;
    compensation = (t - mass) - y;
    mass = t;
  };
  double next_left = left > 0 ? pmf_mode * static_cast<double>(left) / lambda : 0.0;
  double next_right = pmf_mode * lambda / static_cast<double>(right + 1);

  while (mass < 1.0 - epsilon) {
    const double cutoff = mass * 1e-18;
    const bool left_dead = next_left <= cutoff;
    const bool right_dead = next_right <= cutoff;
    if (left_dead && right_dead) break;  // numeric exhaustion
    if (!left_dead && (right_dead || next_left >= next_right)) {
      weights.push_front(next_left);
      accumulate(next_left);
      --left;
      next_left = left > 0 ? weights.front() * static_cast<double>(left) / lambda : 0.0;
    } else {
      weights.push_back(next_right);
      accumulate(next_right);
      ++right;
      next_right = weights.back() * lambda / static_cast<double>(right + 1);
    }
  }

  out.left = left;
  out.right = right;
  out.captured_mass = mass;
  out.weights.assign(weights.begin(), weights.end());
  // Normalize: compensates the truncated tails so downstream sums are exact
  // convex combinations.
  for (double& w : out.weights) w /= mass;
  return out;
}

}  // namespace autosec::ctmc
