#include "csl/solver_plan.hpp"

#include "csl/engine_options.hpp"

namespace autosec::csl {

void apply_plan(const SolverPlan& plan, EngineOptions& options) {
  options.explore.engine = plan.engine;
  options.explore.reduction = plan.reduction;
  options.transient.steady_state_detection = plan.steady_state_detection;
  options.steady_state.solver.method = plan.method;
}

}  // namespace autosec::csl
