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
  options.plan.steady_state_detection = false;
  // The fixpoint method is a library hook, not a plan knob: a pin set on
  // the stage struct survives the plan.
  options.steady_state.solver.method = linalg::FixpointMethod::kGaussSeidel;

  apply_plan(options.plan, options);
  EXPECT_EQ(options.explore.reduction, symbolic::SymmetryReduction::kOff);
  EXPECT_FALSE(options.transient.steady_state_detection);
  EXPECT_EQ(options.steady_state.solver.method, linalg::FixpointMethod::kGaussSeidel);
}

TEST(SolverPlan, ApplyLeavesTheKernelChoicesToTheMatrix) {
  // The plan has no kernel knobs: applying it keeps the stage-level layout
  // at kAuto, so resolve_layout decides from the matrix alone. A library
  // caller's explicit pin survives too.
  EngineOptions options;
  apply_plan(options.plan, options);
  EXPECT_EQ(options.transient.layout, linalg::MatrixLayout::kAuto);

  options.transient.layout = linalg::MatrixLayout::kCsr;
  apply_plan(options.plan, options);
  EXPECT_EQ(options.transient.layout, linalg::MatrixLayout::kCsr);
}

TEST(SolverPlan, CompactEngineTurnsReductionAutoOnForCtmcOnly) {
  EngineOptions options;
  options.plan.engine = symbolic::ExplorationEngine::kCompact;
  apply_plan(options.plan, options);
  EXPECT_EQ(options.explore.reduction, symbolic::SymmetryReduction::kOn);

  // An mdp model is never reduced: reduction auto stays off.
  options.model_type = symbolic::ModelType::kMdp;
  apply_plan(options.plan, options);
  EXPECT_EQ(options.explore.reduction, symbolic::SymmetryReduction::kAuto);

  // auto and classic are the same request, and leave reduction auto off.
  options.model_type = symbolic::ModelType::kCtmc;
  for (const auto engine :
       {symbolic::ExplorationEngine::kAuto, symbolic::ExplorationEngine::kClassic}) {
    options.plan.engine = engine;
    apply_plan(options.plan, options);
    EXPECT_EQ(options.explore.reduction, symbolic::SymmetryReduction::kAuto);
  }
}

TEST(SolverPlan, SessionAppliesThePlanOnConstruction) {
  SessionOptions options;
  options.plan.engine = symbolic::ExplorationEngine::kClassic;
  options.plan.steady_state_detection = false;
  EngineSession session(tiny_model(), options);
  session.space();
  EXPECT_FALSE(session.options().transient.steady_state_detection);
  EXPECT_EQ(session.options().explore.reduction, symbolic::SymmetryReduction::kAuto);
  // One store holds every space, whatever engine the request named.
  EXPECT_EQ(session.stats().engine, "compact");
}

TEST(SolverPlan, DefaultPlansCompareEqual) {
  EXPECT_EQ(SolverPlan{}, SolverPlan{});
  SolverPlan changed;
  changed.steady_state_detection = false;
  EXPECT_FALSE(changed == SolverPlan{});
}

}  // namespace
}  // namespace autosec::csl
