#include "ctmc/restricted.hpp"

#include <string>

#include "util/cancel.hpp"
#include "util/failure.hpp"

namespace autosec::ctmc {

RestrictedSystem::RestrictedSystem(const Ctmc& chain, const std::vector<bool>& members,
                                   SteadyStateOptions options, const char* stage)
    : chain_(chain), options_(std::move(options)), stage_(stage) {
  const linalg::CsrMatrix& rates = chain.rates();
  std::vector<uint32_t> local_of(chain.state_count(), UINT32_MAX);
  for (uint32_t s = 0; s < local_of.size(); ++s) {
    if (!members.at(s)) continue;
    local_of[s] = static_cast<uint32_t>(states_.size());
    states_.push_back(s);
  }
  // Count, charge, then fill. Rows of R are strictly ascending and local ids
  // keep the global order, so each block row is strictly ascending as written.
  const size_t m = states_.size();
  std::vector<uint32_t> offsets(m + 1, 0);
  for (size_t k = 0; k < m; ++k) {
    offsets[k + 1] = offsets[k];
    for (const uint32_t c : rates.row_columns(states_[k])) {
      offsets[k + 1] += local_of[c] != UINT32_MAX;
    }
  }
  block_bytes_ = linalg::CsrMatrix::bytes_for(offsets[m], m);
  if (options_.budget) options_.budget->charge_bytes(block_bytes_, stage_);
  std::vector<uint32_t> columns;
  std::vector<double> values;
  columns.reserve(offsets[m]);
  values.reserve(offsets[m]);
  for (const uint32_t i : states_) {
    const auto cols = rates.row_columns(i);
    const auto vals = rates.row_values(i);
    for (size_t e = 0; e < cols.size(); ++e) {
      if (local_of[cols[e]] == UINT32_MAX) continue;
      columns.push_back(local_of[cols[e]]);
      values.push_back(vals[e] / chain.exit_rate(i));
    }
  }
  block_ = linalg::CsrMatrix(m, m, std::move(offsets), std::move(columns),
                             std::move(values));
}

RestrictedSystem::~RestrictedSystem() {
  if (options_.budget) options_.budget->release_bytes(block_bytes_);
}

RestrictedSystem::Solution RestrictedSystem::solve(const std::vector<double>& b) const {
  linalg::IterativeResult solved = linalg::solve_fixpoint(block_, b, options_.solver);
  if (solved.cancelled) throw util::Cancelled(stage_);
  if (!solved.converged) {
    util::FailureProgress progress;
    progress.iterations = solved.iterations;
    progress.residual = solved.final_delta;
    throw util::EngineFailure(
        util::FailureCode::kSolverDiverged, stage_,
        std::string(stage_) + ": fixpoint failed on every solver rung (" +
            std::to_string(solved.attempts.size()) + " attempted)",
        progress);
  }
  return {std::move(solved.x), solved.attempts.size() - 1};
}

}  // namespace autosec::ctmc
