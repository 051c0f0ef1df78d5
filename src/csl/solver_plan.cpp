#include "csl/solver_plan.hpp"

#include "csl/engine_options.hpp"

namespace autosec::csl {

void apply_plan(const SolverPlan& plan, EngineOptions& options) {
  // The engine choice's one remaining effect: a request that names the
  // compact engine gets the symmetry reduction on ctmc models (the big-fleet
  // path; serve has no other reduction switch). Otherwise reduction auto
  // stays off, so the default state enumeration never changes silently.
  const bool compact_reduces = plan.engine == symbolic::ExplorationEngine::kCompact &&
                               plan.reduction == symbolic::SymmetryReduction::kAuto &&
                               options.model_type == symbolic::ModelType::kCtmc;
  options.explore.reduction =
      compact_reduces ? symbolic::SymmetryReduction::kOn : plan.reduction;
  options.transient.steady_state_detection = plan.steady_state_detection;
}

}  // namespace autosec::csl
