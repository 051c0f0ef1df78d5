#include "ctmc/poisson.hpp"

#include <math.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <unordered_map>

#include "util/metrics.hpp"

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

namespace {

struct PoissonKey {
  double lambda;
  double epsilon;
  bool operator==(const PoissonKey&) const = default;
};

struct PoissonKeyHash {
  size_t operator()(const PoissonKey& key) const {
    // Exact bit-pattern keying: equal doubles hash equal, and the engine only
    // ever reuses horizons it constructed from identical inputs.
    const size_t a = std::hash<double>{}(key.lambda);
    const size_t b = std::hash<double>{}(key.epsilon);
    return a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2));
  }
};

// A weight vector for qt ~ 1e6 holds ~O(sqrt(qt)) doubles; 1024 entries keep
// the cache bounded well under typical working-set sizes.
constexpr size_t kDefaultCacheCapacity = 1024;

std::mutex g_poisson_mutex;
std::unordered_map<PoissonKey, std::shared_ptr<const PoissonWeights>, PoissonKeyHash>
    g_poisson_cache;
// Keys in insertion order, oldest first; eviction drops the front half. Kept
// exactly in sync with the map (every map erase/clear updates it too).
std::deque<PoissonKey> g_poisson_order;
size_t g_poisson_capacity = kDefaultCacheCapacity;
PoissonCacheStats g_poisson_stats;

/// Drop the oldest-inserted half of the cache (requires the lock). A
/// wholesale clear would thrash parameter sweeps that straddle the capacity:
/// every key computed before the wipe misses again on the next sweep pass,
/// while evicting only the stale half keeps the recent working set warm.
void evict_oldest_half_locked() {
  const size_t evict = std::max<size_t>(g_poisson_order.size() / 2, 1);
  for (size_t i = 0; i < evict && !g_poisson_order.empty(); ++i) {
    g_poisson_cache.erase(g_poisson_order.front());
    g_poisson_order.pop_front();
  }
  g_poisson_stats.evictions += evict;
  util::metrics::registry().add("poisson.cache_evictions", evict);
}

}  // namespace

std::shared_ptr<const PoissonWeights> poisson_weights_cached(double lambda,
                                                             double epsilon) {
  const PoissonKey key{lambda, epsilon};
  {
    std::lock_guard<std::mutex> lock(g_poisson_mutex);
    const auto it = g_poisson_cache.find(key);
    if (it != g_poisson_cache.end()) {
      ++g_poisson_stats.hits;
      g_poisson_stats.entries = g_poisson_cache.size();
      util::metrics::registry().add("poisson.cache_hits");
      return it->second;
    }
  }
  // Compute outside the lock (concurrent misses for the same key may race to
  // insert; both compute identical weights, so either result is correct).
  auto weights = std::make_shared<const PoissonWeights>(poisson_weights(lambda, epsilon));
  std::lock_guard<std::mutex> lock(g_poisson_mutex);
  ++g_poisson_stats.misses;
  util::metrics::registry().add("poisson.cache_misses");
  if (g_poisson_cache.size() >= g_poisson_capacity) evict_oldest_half_locked();
  const auto [it, inserted] = g_poisson_cache.emplace(key, std::move(weights));
  if (inserted) g_poisson_order.push_back(key);
  g_poisson_stats.entries = g_poisson_cache.size();
  return it->second;
}

size_t set_poisson_cache_capacity(size_t capacity) {
  std::lock_guard<std::mutex> lock(g_poisson_mutex);
  const size_t previous = g_poisson_capacity;
  g_poisson_capacity = std::max<size_t>(capacity, 2);
  while (g_poisson_cache.size() > g_poisson_capacity) evict_oldest_half_locked();
  g_poisson_stats.entries = g_poisson_cache.size();
  return previous;
}

PoissonCacheStats poisson_cache_stats() {
  std::lock_guard<std::mutex> lock(g_poisson_mutex);
  PoissonCacheStats stats = g_poisson_stats;
  stats.entries = g_poisson_cache.size();
  return stats;
}

void reset_poisson_cache() {
  std::lock_guard<std::mutex> lock(g_poisson_mutex);
  g_poisson_cache.clear();
  g_poisson_order.clear();
  g_poisson_stats = {};
}

}  // namespace autosec::ctmc
