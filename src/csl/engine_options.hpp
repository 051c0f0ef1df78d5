// The one place engine knobs are defined. EngineOptions collects every
// setting shared by csl::SessionOptions and automotive::AnalysisOptions —
// solver choice and tolerances, transient truncation, exploration limits,
// constant overrides, the attacker bound nmax, the analysis horizon, and the
// per-request cancellation token, budget and checkpoint ledger. Both option
// structs embed it as their base, so the CLI, the serving layer, and library
// callers all configure the engine through the same fields, and converting
// between layers is a slice assignment:
//
//   csl::EngineOptions engine = ...;
//   automotive::AnalysisOptions analysis;
//   static_cast<csl::EngineOptions&>(analysis) = engine;
//
// Each layer consumes its slice: the csl session reads the solver/transient/
// explore/override/cancel fields, the automotive transform reads nmax, the
// analyzer reads horizon_years. Unread fields are inert, never an error. The
// worker-thread count is process-wide, not a per-request knob: the CLI sets
// it from --threads and serve from its own --threads
// (util::set_thread_count).
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "csl/solver_plan.hpp"
#include "ctmc/steady_state.hpp"
#include "ctmc/transient.hpp"
#include "symbolic/explorer.hpp"
#include "symbolic/model.hpp"
#include "util/cancel.hpp"

namespace autosec::csl {

class CheckpointLedger;

struct EngineOptions {
  /// Model type the request is about: ctmc (the default, the paper's
  /// exploit-vs-patch race) or mdp (nondeterministic attacker). The session
  /// validates it against the model's declared type, the automotive
  /// transform selects which model family to emit from it, and the serving
  /// layer folds it into cache keys — a cached ctmc answer can never serve
  /// an mdp query.
  symbolic::ModelType model_type = symbolic::ModelType::kCtmc;
  /// Cross-cutting solver/exploration knobs, applied onto the stage structs
  /// below by apply_plan() (EngineSession does this on construction). Set
  /// plan.* rather than the per-stage copies.
  SolverPlan plan;
  /// Uniformization truncation for time-bounded operators.
  ctmc::TransientOptions transient;
  /// Long-run solves, including the fixpoint solver choice
  /// (steady_state.solver.method: kAuto | kGaussSeidel | kKrylov).
  ctmc::SteadyStateOptions steady_state;
  /// State-space exploration limits.
  symbolic::ExploreOptions explore;
  /// Constant overrides applied at compile time (PRISM's -const); the cache
  /// key of the session's stage pipeline.
  std::vector<std::pair<std::string, symbolic::Value>> constant_overrides;
  /// Max simultaneous exploits per interface (the paper's n_max; model-build
  /// knob, consumed by the automotive transform).
  int nmax = 1;
  /// Analysis horizon in years (the paper uses 1).
  double horizon_years = 1.0;
  /// Cooperative cancellation: when set, engine stages and solver sweeps
  /// poll it and unwind with util::Cancelled once it expires. Shared, so a
  /// serving layer can arm per-request deadlines on a long-lived session.
  std::shared_ptr<util::CancelToken> cancel;
  /// Per-request resource governance: state-count and tracked-byte ceilings,
  /// enforced at exploration/uniformization safepoints. A tripped ceiling
  /// unwinds as a typed util::EngineFailure carrying partial progress. Shared
  /// for the same reason as `cancel`; nullptr means unlimited.
  std::shared_ptr<util::ResourceBudget> budget;
  /// Crash durability (csl/checkpoint.hpp): when set, every finished solve is
  /// recorded in the ledger and already-recorded solves replay bit-exactly —
  /// how an interrupted run resumes with bounded recomputation. Shared like
  /// `cancel`/`budget`; nullptr means no checkpointing.
  std::shared_ptr<CheckpointLedger> checkpoint;
};

}  // namespace autosec::csl
