// Lumped (quotient-space) property checking — the "targeted model checker"
// of the paper's Section 5: before running the numerical engine, the state
// space is reduced by ordinary lumping w.r.t. exactly the observations the
// property needs (its state formulas, its reward structure, and the initial
// state). The quotient is then checked like any explored model: as a state
// space with one representative state per block, by an EngineSession. The
// quotient result is exact, so this is a pure performance optimization;
// bench_ablation_lumping quantifies the reduction on the case-study models.
#pragma once

#include <string_view>

#include "csl/session.hpp"
#include "ctmc/lumping.hpp"

namespace autosec::csl {

struct LumpedCheckResult {
  double value = 0.0;
  size_t original_states = 0;
  size_t lumped_states = 0;
  double reduction_factor() const {
    return lumped_states == 0 ? 1.0
                              : static_cast<double>(original_states) /
                                    static_cast<double>(lumped_states);
  }
};

/// Check `property` on the ordinary-lumping quotient of the state space.
/// Equal to EngineSession(space).check(property) up to solver tolerances.
LumpedCheckResult check_lumped(const symbolic::StateSpace& space,
                               const Property& property,
                               const SessionOptions& options = {});

LumpedCheckResult check_lumped(const symbolic::StateSpace& space,
                               std::string_view property_text,
                               const SessionOptions& options = {});

}  // namespace autosec::csl
