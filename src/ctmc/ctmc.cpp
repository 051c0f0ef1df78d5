#include "ctmc/ctmc.hpp"

#include <algorithm>
#include <stdexcept>

namespace autosec::ctmc {

Ctmc::Ctmc(linalg::CsrMatrix rates) : rates_(std::move(rates)) {
  if (rates_.rows() != rates_.cols()) {
    throw std::invalid_argument("Ctmc: rate matrix must be square");
  }
  const size_t n = rates_.rows();
  exit_rates_.assign(n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    const auto cols = rates_.row_columns(i);
    const auto vals = rates_.row_values(i);
    double exit = 0.0;
    for (size_t k = 0; k < cols.size(); ++k) {
      if (cols[k] == i) {
        throw std::invalid_argument("Ctmc: self-loop rate in rate matrix");
      }
      if (vals[k] < 0.0) {
        throw std::invalid_argument("Ctmc: negative transition rate");
      }
      exit += vals[k];
    }
    exit_rates_[i] = exit;
    max_exit_rate_ = std::max(max_exit_rate_, exit);
  }
}

linalg::CsrMatrix Ctmc::generator() const {
  // Each row is the rates row with −E_i spliced into its sorted position
  // (moving states only). The rates rows are strictly ascending and
  // diagonal-free, so the result rows stay strictly ascending — no builder
  // sort needed.
  const size_t n = state_count();
  std::vector<uint32_t> offsets(n + 1, 0);
  for (size_t i = 0; i < n; ++i) {
    offsets[i + 1] = offsets[i] + static_cast<uint32_t>(rates_.row_columns(i).size()) +
                     (exit_rates_[i] > 0.0 ? 1 : 0);
  }
  std::vector<uint32_t> columns(offsets[n]);
  std::vector<double> values(offsets[n]);
  size_t out = 0;
  for (size_t i = 0; i < n; ++i) {
    const auto cols = rates_.row_columns(i);
    const auto vals = rates_.row_values(i);
    size_t k = 0;
    for (; k < cols.size() && cols[k] < i; ++k) {
      columns[out] = cols[k];
      values[out++] = vals[k];
    }
    if (exit_rates_[i] > 0.0) {
      columns[out] = static_cast<uint32_t>(i);
      values[out++] = -exit_rates_[i];
    }
    for (; k < cols.size(); ++k) {
      columns[out] = cols[k];
      values[out++] = vals[k];
    }
  }
  return linalg::CsrMatrix(n, n, std::move(offsets), std::move(columns),
                           std::move(values));
}

double Ctmc::max_exit_rate(const std::vector<bool>& absorbing) const {
  if (absorbing.empty()) return max_exit_rate_;
  if (absorbing.size() != state_count()) {
    throw std::invalid_argument("Ctmc: absorbing mask size mismatch");
  }
  double max_exit = 0.0;
  for (size_t i = 0; i < absorbing.size(); ++i) {
    if (!absorbing[i]) max_exit = std::max(max_exit, exit_rates_[i]);
  }
  return max_exit;
}

linalg::CsrMatrix Ctmc::uniformized_transposed(double q,
                                               const std::vector<bool>& absorbing) const {
  if (q < max_exit_rate(absorbing)) {
    throw std::invalid_argument("uniformized: q must be >= max exit rate");
  }
  if (!(q > 0.0)) {
    throw std::invalid_argument("uniformized: q must be positive");
  }
  // Pᵀ in one counting-sort pass over the rate matrix — the uniformization
  // hot path never materializes P itself. Row c of Pᵀ collects P(r, c) for
  // ascending r, and the compensating self-loop of state r is emitted while
  // the scan sits on r, so every result row stays strictly ascending.
  const size_t n = state_count();
  const auto moving = [&](size_t r) { return absorbing.empty() || !absorbing[r]; };
  std::vector<uint32_t> offsets(n + 1, 0);
  for (size_t r = 0; r < n; ++r) {
    const double exit = moving(r) ? exit_rates_[r] : 0.0;
    if (1.0 - exit / q > 0.0) ++offsets[r + 1];
    if (!moving(r)) continue;
    for (const uint32_t c : rates_.row_columns(r)) ++offsets[c + 1];
  }
  for (size_t i = 0; i < n; ++i) offsets[i + 1] += offsets[i];
  std::vector<uint32_t> columns(offsets[n]);
  std::vector<double> values(offsets[n]);
  std::vector<uint32_t> cursor(offsets.begin(), offsets.end() - 1);
  for (size_t r = 0; r < n; ++r) {
    const double exit = moving(r) ? exit_rates_[r] : 0.0;
    const double self = 1.0 - exit / q;
    if (self > 0.0) {
      const uint32_t pos = cursor[r]++;
      columns[pos] = static_cast<uint32_t>(r);
      values[pos] = self;
    }
    if (!moving(r)) continue;
    const auto cols = rates_.row_columns(r);
    const auto vals = rates_.row_values(r);
    for (size_t k = 0; k < cols.size(); ++k) {
      const uint32_t pos = cursor[cols[k]]++;
      columns[pos] = static_cast<uint32_t>(r);
      values[pos] = vals[k] / q;
    }
  }
  return linalg::CsrMatrix(n, n, std::move(offsets), std::move(columns),
                           std::move(values));
}

double Ctmc::default_uniformization_rate(const std::vector<bool>& absorbing) const {
  constexpr double kFloor = 1e-9;  // degenerate all-absorbing chain
  return std::max(max_exit_rate(absorbing) * 1.02, kFloor);
}

}  // namespace autosec::ctmc
