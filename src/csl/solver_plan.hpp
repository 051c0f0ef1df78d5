// One struct for every cross-cutting solver/exploration knob a request may
// set. Historically each feature PR grew its own field on a different stage
// struct (engine/reduction on ExploreOptions, the fixpoint method on the
// steady-state solver, ...), and every caller — CLI, serve, differential
// harness, benches — had to know which stage owned which knob. SolverPlan
// collapses them into one value embedded in EngineOptions; apply_plan() is
// the single place the plan fans back out onto the stage structs.
//
// The solve kernels (CSR vs SELL-C-σ layout, direct vs colored Gauss-Seidel)
// are deliberately not here: they resolve from the matrix alone
// (linalg::resolve_layout / linalg::resolve_gs_ordering), so no request can
// change which kernel runs.
#pragma once

#include "linalg/gauss_seidel.hpp"
#include "symbolic/explorer.hpp"
#include "symbolic/state_store.hpp"

namespace autosec::csl {

struct EngineOptions;

struct SolverPlan {
  /// Engine token of the request. Exploration has one state store, so auto
  /// and classic are the same request; compact turns reduction auto on for
  /// ctmc models (apply_plan). Accepted for one more release.
  symbolic::ExplorationEngine engine = symbolic::ExplorationEngine::kAuto;
  /// On-the-fly symmetry reduction policy (ctmc models only).
  symbolic::SymmetryReduction reduction = symbolic::SymmetryReduction::kAuto;
  /// Fixpoint method (BiCGSTAB ladder vs pinned Gauss-Seidel/Krylov).
  linalg::FixpointMethod method = linalg::FixpointMethod::kAuto;
  /// Transient steady-state detection (truncate converged horizons).
  bool steady_state_detection = true;

  friend bool operator==(const SolverPlan&, const SolverPlan&) = default;
};

/// Fan the plan out onto the stage option structs it subsumes. The plan is
/// authoritative: EngineSession applies it on construction, so callers set
/// options.plan.* instead of poking transient/steady_state/explore fields.
/// Reads options.model_type, which must already name the model's type.
void apply_plan(const SolverPlan& plan, EngineOptions& options);

}  // namespace autosec::csl
