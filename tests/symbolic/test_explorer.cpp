#include "symbolic/explorer.hpp"

#include <gtest/gtest.h>

#include "symbolic/builder.hpp"
#include "util/budget.hpp"
#include "util/failure.hpp"

namespace autosec::symbolic {
namespace {

Model birth_death(int n, double up = 2.0, double down = 3.0) {
  ModelBuilder b;
  b.constant_int("n", n);
  auto& m = b.module("proc");
  m.variable("x", Expr::literal(0), Expr::ident("n"), Expr::literal(0));
  m.command(Expr::ident("x") < Expr::ident("n"), Expr::literal(up),
            {{"x", Expr::ident("x") + Expr::literal(1)}});
  m.command(Expr::ident("x") > Expr::literal(0), Expr::literal(down),
            {{"x", Expr::ident("x") - Expr::literal(1)}});
  b.label("top", Expr::ident("x") == Expr::ident("n"));
  b.state_reward("level", Expr::ident("x") > Expr::literal(0), Expr::ident("x"));
  return b.build();
}

TEST(Explorer, BirthDeathChainStateCount) {
  const CompiledModel compiled = compile(birth_death(4));
  const StateSpace space = explore(compiled);
  EXPECT_EQ(space.state_count(), 5u);
  EXPECT_EQ(space.transition_count(), 8u);
  EXPECT_EQ(space.initial_state(), 0u);
  EXPECT_EQ(space.state_values(space.initial_state()), std::vector<int32_t>{0});
}

TEST(Explorer, RatesMatchCommands) {
  const CompiledModel compiled = compile(birth_death(2, 5.0, 7.0));
  const StateSpace space = explore(compiled);
  // BFS order: states discovered as 0, 1, 2 along the chain.
  EXPECT_DOUBLE_EQ(space.rates().at(0, 1), 5.0);
  EXPECT_DOUBLE_EQ(space.rates().at(1, 0), 7.0);
  EXPECT_DOUBLE_EQ(space.rates().at(1, 2), 5.0);
  EXPECT_DOUBLE_EQ(space.rates().at(2, 1), 7.0);
}

TEST(Explorer, ParallelCommandsToSameTargetSumRates) {
  ModelBuilder b;
  auto& m = b.module("p");
  m.variable("x", 0, 1, 0);
  m.command(Expr::ident("x") == Expr::literal(0), Expr::literal(1.5),
            {{"x", Expr::literal(1)}});
  m.command(Expr::ident("x") == Expr::literal(0), Expr::literal(2.5),
            {{"x", Expr::literal(1)}});
  const StateSpace space = explore(compile(b.build()));
  EXPECT_DOUBLE_EQ(space.rates().at(0, 1), 4.0);
}

TEST(Explorer, SelfLoopUpdatesAreDropped) {
  ModelBuilder b;
  auto& m = b.module("p");
  m.variable("x", 0, 1, 0);
  m.command(Expr::literal(true), Expr::literal(9.0), {{"x", Expr::ident("x")}});
  const StateSpace space = explore(compile(b.build()));
  EXPECT_EQ(space.state_count(), 1u);
  EXPECT_EQ(space.transition_count(), 0u);
}

TEST(Explorer, UnreachableValuationsNotExplored) {
  ModelBuilder b;
  auto& m = b.module("p");
  m.variable("x", 0, 10, 3);  // starts at 3, only moves down
  m.command(Expr::ident("x") > Expr::literal(0), Expr::literal(1.0),
            {{"x", Expr::ident("x") - Expr::literal(1)}});
  const StateSpace space = explore(compile(b.build()));
  EXPECT_EQ(space.state_count(), 4u);  // 3, 2, 1, 0
}

TEST(Explorer, OutOfRangeUpdateThrows) {
  ModelBuilder b;
  auto& m = b.module("p");
  m.variable("x", 0, 1, 0);
  m.command(Expr::literal(true), Expr::literal(1.0),
            {{"x", Expr::ident("x") + Expr::literal(5)}});
  const CompiledModel compiled = compile(b.build());
  EXPECT_THROW(explore(compiled), ModelError);
}

TEST(Explorer, NegativeRateThrows) {
  ModelBuilder b;
  auto& m = b.module("p");
  m.variable("x", 0, 1, 0);
  m.command(Expr::ident("x") == Expr::literal(0), Expr::literal(-1.0),
            {{"x", Expr::literal(1)}});
  const CompiledModel compiled = compile(b.build());
  EXPECT_THROW(explore(compiled), ModelError);
}

TEST(Explorer, ZeroRateSkippedByDefaultButRejectedOnDemand) {
  ModelBuilder b;
  auto& m = b.module("p");
  m.variable("x", 0, 1, 0);
  m.command(Expr::ident("x") == Expr::literal(0), Expr::literal(0.0),
            {{"x", Expr::literal(1)}});
  const CompiledModel compiled = compile(b.build());
  const StateSpace space = explore(compiled);
  EXPECT_EQ(space.state_count(), 1u);
  ExploreOptions strict;
  strict.allow_zero_rates = false;
  EXPECT_THROW(explore(compiled, strict), ModelError);
}

TEST(Explorer, MaxStatesEnforced) {
  const CompiledModel compiled = compile(birth_death(100));
  ExploreOptions options;
  options.max_states = 10;
  try {
    explore(compiled, options);
    FAIL() << "expected util::EngineFailure";
  } catch (const util::EngineFailure& failure) {
    EXPECT_EQ(failure.code(), util::FailureCode::kStateBudgetExceeded);
    EXPECT_EQ(failure.stage(), "explore");
    ASSERT_TRUE(failure.progress().states_explored.has_value());
    EXPECT_GE(*failure.progress().states_explored, 10u);
    ASSERT_TRUE(failure.progress().limit.has_value());
    EXPECT_EQ(*failure.progress().limit, 10u);
    ASSERT_TRUE(failure.progress().last_command.has_value());
    EXPECT_FALSE(failure.progress().last_command->empty());
  }
}

/// Random-walk mdp on [0..n]: "up" moves right with probability 0.7 and
/// stays put otherwise, "down" moves left; the right end is a deadlock.
Model mdp_walk(int n) {
  ModelBuilder b;
  b.type(ModelType::kMdp);
  auto& m = b.module("walk");
  m.variable("x", 0, n, 0);
  m.choice("up", Expr::ident("x") < Expr::literal(n),
           {{Expr::literal(0.7), {{"x", Expr::ident("x") + Expr::literal(1)}}},
            {Expr::literal(0.3), {}}});
  m.choice("down",
           Expr::ident("x") > Expr::literal(0) && Expr::ident("x") < Expr::literal(n),
           {{Expr::literal(1.0), {{"x", Expr::ident("x") - Expr::literal(1)}}}});
  return b.build();
}

/// What exploration charges: the store's bytes per state plus the CSR
/// arrays, and for mdp the owner, label and first-row offset bookkeeping.
size_t explored_bytes(const StateSpace& space) {
  const size_t states = space.state_count();
  const linalg::CsrMatrix& matrix =
      space.is_mdp() ? space.mdp().transitions : space.rates();
  size_t bytes = states * space.bytes_per_state() +
                 (matrix.rows() + 1) * sizeof(uint32_t) +
                 matrix.nonzeros() * (sizeof(uint32_t) + sizeof(double));
  if (space.is_mdp()) {
    bytes += matrix.rows() * (sizeof(uint32_t) + sizeof(std::string)) +
             states * sizeof(uint32_t);
  }
  return bytes;
}

TEST(Explorer, ChargesStoreAndCsrArraysToTheByteBudget) {
  for (const Model& model : {birth_death(2000), mdp_walk(500)}) {
    const auto compiled = std::make_shared<const CompiledModel>(compile(model));

    ExploreOptions unlimited;
    unlimited.budget = std::make_shared<util::ResourceBudget>();
    const StateSpace space = explore(compiled, unlimited);
    const size_t footprint = explored_bytes(space);
    EXPECT_EQ(unlimited.budget->charged_bytes(), footprint);

    ExploreOptions tight;
    tight.budget = std::make_shared<util::ResourceBudget>(0, footprint / 2);
    try {
      explore(compiled, tight);
      FAIL() << "expected memory_budget_exceeded below the footprint";
    } catch (const util::EngineFailure& failure) {
      EXPECT_EQ(failure.code(), util::FailureCode::kMemoryBudgetExceeded);
      EXPECT_EQ(failure.stage(), "explore");
      ASSERT_TRUE(failure.progress().charged_bytes.has_value());
      EXPECT_GT(*failure.progress().charged_bytes, footprint / 2);
    }
  }
}

TEST(Explorer, LabelMaskEvaluatesPerState) {
  const CompiledModel compiled = compile(birth_death(3));
  const StateSpace space = explore(compiled);
  const std::vector<bool> top = space.label_mask("top");
  size_t hits = 0;
  for (size_t i = 0; i < space.state_count(); ++i) {
    if (top[i]) {
      ++hits;
      EXPECT_EQ(space.state_values(i)[0], 3);
    }
  }
  EXPECT_EQ(hits, 1u);
  EXPECT_THROW(space.label_mask("ghost"), ModelError);
}

TEST(Explorer, RewardVectorSumsMatchingItems) {
  const CompiledModel compiled = compile(birth_death(3));
  const StateSpace space = explore(compiled);
  const std::vector<double> rewards = space.reward_vector("level");
  for (size_t i = 0; i < space.state_count(); ++i) {
    EXPECT_DOUBLE_EQ(rewards[i], static_cast<double>(space.state_values(i)[0]));
  }
  EXPECT_THROW(space.reward_vector("ghost"), ModelError);
}

TEST(Explorer, StateToStringShowsVariableNames) {
  const CompiledModel compiled = compile(birth_death(2));
  const StateSpace space = explore(compiled);
  EXPECT_EQ(space.state_to_string(space.initial_state()), "(x=0)");
}

TEST(Explorer, MultiModuleInterleaving) {
  ModelBuilder b;
  auto& p = b.module("p");
  p.variable("x", 0, 1, 0);
  p.command(Expr::ident("x") == Expr::literal(0), Expr::literal(1.0),
            {{"x", Expr::literal(1)}});
  auto& q = b.module("q");
  q.variable("y", 0, 1, 0);
  q.command(Expr::ident("y") == Expr::literal(0), Expr::literal(2.0),
            {{"y", Expr::literal(1)}});
  const StateSpace space = explore(compile(b.build()));
  EXPECT_EQ(space.state_count(), 4u);  // full product is reachable
  EXPECT_EQ(space.transition_count(), 4u);
}

TEST(Explorer, GuardCouplingRestrictsProduct) {
  // q may only rise after p did: (0,1) unreachable.
  ModelBuilder b;
  auto& p = b.module("p");
  p.variable("x", 0, 1, 0);
  p.command(Expr::ident("x") == Expr::literal(0), Expr::literal(1.0),
            {{"x", Expr::literal(1)}});
  auto& q = b.module("q");
  q.variable("y", 0, 1, 0);
  q.command((Expr::ident("y") == Expr::literal(0)) &&
                (Expr::ident("x") == Expr::literal(1)),
            Expr::literal(2.0), {{"y", Expr::literal(1)}});
  const StateSpace space = explore(compile(b.build()));
  EXPECT_EQ(space.state_count(), 3u);
}

TEST(Explorer, WidePackedAndUnpackedPathsAgree) {
  // 40 variables of range [0..3] pack into two 64-bit words, 10 variables
  // into one. The store's single- and multi-word states must produce the
  // same state counts for the same per-variable structure.
  auto build = [](int vars) {
    ModelBuilder b;
    auto& m = b.module("wide");
    for (int v = 0; v < vars; ++v) {
      const std::string name = "w" + std::to_string(v);
      m.variable(name, 0, 3, 0);
      // Only the first two variables ever move: small reachable set.
      if (v < 2) {
        m.command(Expr::ident(name) < Expr::literal(3), Expr::literal(1.0),
                  {{name, Expr::ident(name) + Expr::literal(1)}});
        m.command(Expr::ident(name) > Expr::literal(0), Expr::literal(2.0),
                  {{name, Expr::ident(name) - Expr::literal(1)}});
      }
    }
    return explore(compile(b.build()));
  };
  const StateSpace packed = build(10);    // 20 bits: packed path
  const StateSpace unpacked = build(40);  // 80 bits: vector-hash path
  EXPECT_EQ(packed.state_count(), 16u);
  EXPECT_EQ(unpacked.state_count(), 16u);
  EXPECT_EQ(packed.transition_count(), unpacked.transition_count());
}

TEST(Explorer, PackedPathHandlesNegativeLowerBounds) {
  ModelBuilder b;
  auto& m = b.module("p");
  m.variable("x", -2, 1, -2);
  m.command(Expr::ident("x") < Expr::literal(1), Expr::literal(1.0),
            {{"x", Expr::ident("x") + Expr::literal(1)}});
  const StateSpace space = explore(compile(b.build()));
  EXPECT_EQ(space.state_count(), 4u);
  EXPECT_EQ(space.state_values(0)[0], -2);
}

TEST(Explorer, ToCtmcRoundTrip) {
  const CompiledModel compiled = compile(birth_death(2));
  const StateSpace space = explore(compiled);
  const ctmc::Ctmc chain = space.to_ctmc();
  EXPECT_EQ(chain.state_count(), 3u);
  EXPECT_DOUBLE_EQ(chain.exit_rate(0), 2.0);
}

}  // namespace
}  // namespace autosec::symbolic
