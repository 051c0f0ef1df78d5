#include "csl/solver_plan.hpp"

#include <gtest/gtest.h>

#include "csl/engine_options.hpp"
#include "csl/session.hpp"
#include "symbolic/builder.hpp"

namespace autosec::csl {
namespace {

using symbolic::Expr;

symbolic::Model tiny_model() {
  symbolic::ModelBuilder builder;
  auto& m = builder.module("unit");
  m.variable("x", 0, 1, 0);
  m.command(Expr::ident("x") == Expr::literal(0), Expr::literal(1.0),
            {{"x", Expr::literal(1)}});
  m.command(Expr::ident("x") == Expr::literal(1), Expr::literal(2.0),
            {{"x", Expr::literal(0)}});
  return builder.build();
}

TEST(SolverPlan, ApplyFansOutOntoEveryStageStruct) {
  EngineOptions options;
  options.plan.engine = symbolic::ExplorationEngine::kCompact;
  options.plan.reduction = symbolic::SymmetryReduction::kOff;
  options.plan.method = linalg::FixpointMethod::kGaussSeidel;
  options.plan.steady_state_detection = false;

  apply_plan(options.plan, options);
  EXPECT_EQ(options.explore.engine, symbolic::ExplorationEngine::kCompact);
  EXPECT_EQ(options.explore.reduction, symbolic::SymmetryReduction::kOff);
  EXPECT_FALSE(options.transient.steady_state_detection);
  EXPECT_EQ(options.steady_state.solver.method, linalg::FixpointMethod::kGaussSeidel);
}

TEST(SolverPlan, ApplyLeavesTheKernelChoicesToTheMatrix) {
  // The plan has no kernel knobs: applying it keeps the stage-level layout
  // and ordering at kAuto, so resolve_layout / resolve_gs_ordering decide
  // from the matrix alone. A library caller's explicit pin survives too.
  EngineOptions options;
  apply_plan(options.plan, options);
  EXPECT_EQ(options.transient.layout, linalg::MatrixLayout::kAuto);
  EXPECT_EQ(options.steady_state.solver.ordering, linalg::GsOrdering::kAuto);

  options.transient.layout = linalg::MatrixLayout::kCsr;
  options.steady_state.solver.ordering = linalg::GsOrdering::kDirect;
  options.plan.method = linalg::FixpointMethod::kKrylov;
  apply_plan(options.plan, options);
  EXPECT_EQ(options.transient.layout, linalg::MatrixLayout::kCsr);
  EXPECT_EQ(options.steady_state.solver.ordering, linalg::GsOrdering::kDirect);
}

TEST(SolverPlan, SessionAppliesThePlanOnConstruction) {
  SessionOptions options;
  options.plan.engine = symbolic::ExplorationEngine::kClassic;
  EngineSession session(tiny_model(), options);
  session.space();
  EXPECT_EQ(session.options().explore.engine, symbolic::ExplorationEngine::kClassic);
  EXPECT_EQ(session.stats().engine, "classic");
}

TEST(SolverPlan, DefaultPlansCompareEqual) {
  EXPECT_EQ(SolverPlan{}, SolverPlan{});
  SolverPlan changed;
  changed.steady_state_detection = false;
  EXPECT_FALSE(changed == SolverPlan{});
}

}  // namespace
}  // namespace autosec::csl
