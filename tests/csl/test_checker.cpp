#include "csl/session.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "symbolic/builder.hpp"
#include "symbolic/parser.hpp"

namespace autosec::csl {
namespace {

using symbolic::Expr;

/// Two-state repair model: x=0 healthy, x=1 broken; break rate a, fix rate b.
symbolic::Model repair_model(double a, double b) {
  symbolic::ModelBuilder builder;
  builder.constant_double("a", a);
  builder.constant_double("b", b);
  builder.constant_double("HORIZON", 1.0);
  auto& m = builder.module("unit");
  m.variable("x", 0, 1, 0);
  m.command(Expr::ident("x") == Expr::literal(0), Expr::ident("a"),
            {{"x", Expr::literal(1)}});
  m.command(Expr::ident("x") == Expr::literal(1), Expr::ident("b"),
            {{"x", Expr::literal(0)}});
  builder.label("broken", Expr::ident("x") == Expr::literal(1));
  builder.state_reward("downtime", Expr::ident("x") == Expr::literal(1),
                       Expr::literal(1.0));
  builder.state_reward("", Expr::literal(true), Expr::literal(2.0));
  return builder.build();
}

class CheckerFixture : public ::testing::Test {
 protected:
  CheckerFixture()
      : compiled_(symbolic::compile(repair_model(2.0, 6.0))),
        space_(symbolic::explore(compiled_)),
        session_(std::make_shared<const symbolic::StateSpace>(space_)) {}

  symbolic::CompiledModel compiled_;
  symbolic::StateSpace space_;
  EngineSession session_;
};

TEST_F(CheckerFixture, BoundedReachabilityMatchesExponential) {
  // First transition 0->1 at rate 2: P(F<=t broken) = 1 - e^{-2t}.
  const double p = session_.check("P=? [ F<=0.5 \"broken\" ]");
  EXPECT_NEAR(p, 1.0 - std::exp(-1.0), 1e-10);
}

TEST_F(CheckerFixture, RawExpressionInsteadOfLabel) {
  const double p1 = session_.check("P=? [ F<=0.5 x=1 ]");
  const double p2 = session_.check("P=? [ F<=0.5 \"broken\" ]");
  EXPECT_NEAR(p1, p2, 1e-14);
}

TEST_F(CheckerFixture, UnboundedReachabilityIsOneInRecurrentChain) {
  EXPECT_NEAR(session_.check("P=? [ F \"broken\" ]"), 1.0, 1e-9);
}

TEST_F(CheckerFixture, GloballyIsComplementOfEventuallyNot) {
  const double g = session_.check("P=? [ G<=0.5 x=0 ]");
  const double f = session_.check("P=? [ F<=0.5 x=1 ]");
  EXPECT_NEAR(g, 1.0 - f, 1e-12);
}

TEST_F(CheckerFixture, SteadyStateProbability) {
  // pi(broken) = a/(a+b) = 0.25.
  EXPECT_NEAR(session_.check("S=? [ \"broken\" ]"), 0.25, 1e-9);
}

TEST_F(CheckerFixture, CumulativeRewardMatchesOccupancy) {
  const double a = 2.0, b = 6.0, T = 1.0, s = a + b;
  const double expected = a / s * (T - (1.0 - std::exp(-s * T)) / s);
  EXPECT_NEAR(session_.check("R{\"downtime\"}=? [ C<=1 ]"), expected, 1e-10);
}

TEST_F(CheckerFixture, DefaultRewardStructureAccessible) {
  // Constant reward 2 everywhere accumulates to 2*T.
  EXPECT_NEAR(session_.check("R=? [ C<=1.5 ]"), 3.0, 1e-9);
}

TEST_F(CheckerFixture, InstantaneousReward) {
  const double t = 0.3;
  const double p1 = 2.0 / 8.0 * (1.0 - std::exp(-8.0 * t));
  EXPECT_NEAR(session_.check("R{\"downtime\"}=? [ I=0.3 ]"), p1, 1e-10);
}

TEST_F(CheckerFixture, SteadyStateReward) {
  EXPECT_NEAR(session_.check("R{\"downtime\"}=? [ S ]"), 0.25, 1e-9);
}

TEST_F(CheckerFixture, TimeBoundFromModelConstant) {
  const double p1 = session_.check("P=? [ F<=HORIZON \"broken\" ]");
  const double p2 = session_.check("P=? [ F<=1.0 \"broken\" ]");
  EXPECT_NEAR(p1, p2, 1e-14);
}

TEST_F(CheckerFixture, UnknownLabelThrows) {
  EXPECT_THROW(session_.check("P=? [ F<=1 \"ghost\" ]"), PropertyError);
}

TEST_F(CheckerFixture, UnknownRewardStructureThrows) {
  EXPECT_THROW(session_.check("R{\"ghost\"}=? [ C<=1 ]"), symbolic::ModelError);
}

TEST_F(CheckerFixture, NegativeTimeBoundThrows) {
  EXPECT_THROW(session_.check("P=? [ F<=-1 \"broken\" ]"), PropertyError);
}

TEST(CheckerUntil, UntilRespectsLeftOperand) {
  // 3-state chain 0 -> 1 -> 2; left formula forbids state 1, so (x=0) U (x=2)
  // has probability 0 while F x=2 is positive.
  symbolic::ModelBuilder builder;
  auto& m = builder.module("chain");
  m.variable("x", 0, 2, 0);
  m.command(Expr::ident("x") < Expr::literal(2), Expr::literal(4.0),
            {{"x", Expr::ident("x") + Expr::literal(1)}});
  const symbolic::CompiledModel compiled = symbolic::compile(builder.build());
  const symbolic::StateSpace space = symbolic::explore(compiled);
  EngineSession session(std::make_shared<const symbolic::StateSpace>(space));
  EXPECT_NEAR(session.check("P=? [ x=0 U<=5 x=2 ]"), 0.0, 1e-12);
  EXPECT_GT(session.check("P=? [ F<=5 x=2 ]"), 0.9);
  EXPECT_GT(session.check("P=? [ x<2 U<=5 x=2 ]"), 0.9);
}

TEST(CheckerUntil, UnboundedUntilWithForbiddenRegion) {
  // 0 can go to 1 (target) or 2 (forbidden trap that could still reach 1).
  symbolic::ModelBuilder builder;
  auto& m = builder.module("chain");
  m.variable("x", 0, 2, 0);
  m.command(Expr::ident("x") == Expr::literal(0), Expr::literal(3.0),
            {{"x", Expr::literal(1)}});
  m.command(Expr::ident("x") == Expr::literal(0), Expr::literal(1.0),
            {{"x", Expr::literal(2)}});
  m.command(Expr::ident("x") == Expr::literal(2), Expr::literal(1.0),
            {{"x", Expr::literal(1)}});
  const symbolic::CompiledModel compiled = symbolic::compile(builder.build());
  const symbolic::StateSpace space = symbolic::explore(compiled);
  EngineSession session(std::make_shared<const symbolic::StateSpace>(space));
  // Unrestricted: reach 1 with probability 1.
  EXPECT_NEAR(session.check("P=? [ F x=1 ]"), 1.0, 1e-9);
  // Forbidding x=2: only the direct branch counts (rate 3 of total 4).
  EXPECT_NEAR(session.check("P=? [ x=0 U x=1 ]"), 0.75, 1e-9);
}

TEST(CheckerReward, ReachabilityRewardExpectedTimeToAbsorption) {
  // 0 --r--> 1 absorbing; expected time to absorb = 1/r; reward rate 1.
  symbolic::ModelBuilder builder;
  auto& m = builder.module("decay");
  m.variable("x", 0, 1, 0);
  m.command(Expr::ident("x") == Expr::literal(0), Expr::literal(4.0),
            {{"x", Expr::literal(1)}});
  builder.state_reward("time", Expr::literal(true), Expr::literal(1.0));
  const symbolic::CompiledModel compiled = symbolic::compile(builder.build());
  const symbolic::StateSpace space = symbolic::explore(compiled);
  EngineSession session(std::make_shared<const symbolic::StateSpace>(space));
  EXPECT_NEAR(session.check("R{\"time\"}=? [ F x=1 ]"), 0.25, 1e-10);
}

TEST(CheckerReward, ReachabilityRewardInfiniteWhenTargetMissable) {
  // 0 branches to absorbing 1 (target) or absorbing 2 (miss).
  symbolic::ModelBuilder builder;
  auto& m = builder.module("branch");
  m.variable("x", 0, 2, 0);
  m.command(Expr::ident("x") == Expr::literal(0), Expr::literal(1.0),
            {{"x", Expr::literal(1)}});
  m.command(Expr::ident("x") == Expr::literal(0), Expr::literal(1.0),
            {{"x", Expr::literal(2)}});
  builder.state_reward("time", Expr::literal(true), Expr::literal(1.0));
  const symbolic::CompiledModel compiled = symbolic::compile(builder.build());
  const symbolic::StateSpace space = symbolic::explore(compiled);
  EngineSession session(std::make_shared<const symbolic::StateSpace>(space));
  EXPECT_TRUE(std::isinf(session.check("R{\"time\"}=? [ F x=1 ]")));
}

TEST(CheckerReward, ErlangExpectedTimeThroughChain) {
  // 0 -> 1 -> 2 with rate 5 each: expected time to reach 2 is 2/5.
  symbolic::ModelBuilder builder;
  auto& m = builder.module("chain");
  m.variable("x", 0, 2, 0);
  m.command(Expr::ident("x") < Expr::literal(2), Expr::literal(5.0),
            {{"x", Expr::ident("x") + Expr::literal(1)}});
  builder.state_reward("time", Expr::literal(true), Expr::literal(1.0));
  const symbolic::CompiledModel compiled = symbolic::compile(builder.build());
  const symbolic::StateSpace space = symbolic::explore(compiled);
  EngineSession session(std::make_shared<const symbolic::StateSpace>(space));
  EXPECT_NEAR(session.check("R{\"time\"}=? [ F x=2 ]"), 0.4, 1e-10);
}

TEST(CheckerParsedModel, WorksOnTextualModels) {
  const symbolic::Model model = symbolic::parse_model(R"(ctmc
const double lambda = 3.0;
module m
  x : [0..1] init 0;
  [] x=0 -> lambda : (x'=1);
endmodule
label "done" = x=1;
)");
  const symbolic::CompiledModel compiled = symbolic::compile(model);
  const symbolic::StateSpace space = symbolic::explore(compiled);
  EngineSession session(std::make_shared<const symbolic::StateSpace>(space));
  EXPECT_NEAR(session.check("P=? [ F<=1 \"done\" ]"), 1.0 - std::exp(-3.0), 1e-10);
}

}  // namespace
}  // namespace autosec::csl
