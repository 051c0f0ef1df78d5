// Interval-bounded path formulas: P=? [ F[t1,t2] phi ], U[t1,t2], G[t1,t2].
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "csl/lumped.hpp"
#include "csl/session.hpp"
#include "csl/property_parser.hpp"
#include "symbolic/builder.hpp"
#include "symbolic/explorer.hpp"

namespace autosec::csl {
namespace {

using symbolic::Expr;

/// Pure-death chain 0 --a--> 1 (absorbing): first-passage time ~ Exp(a), so
/// P[F[t1,t2] x=1] = e^{-a t1} ... wait — absorbed mass stays, hence
/// P = P(T <= t2) = 1 - e^{-a t2} minus paths absorbed... no: once in x=1 it
/// stays, so "exists t in [t1,t2] with x=1" = absorbed by t2 = 1 - e^{-a t2}.
symbolic::Model decay_model(double a) {
  symbolic::ModelBuilder builder;
  builder.constant_double("a", a);
  auto& m = builder.module("decay");
  m.variable("x", 0, 1, 0);
  m.command(Expr::ident("x") == Expr::literal(0), Expr::ident("a"),
            {{"x", Expr::literal(1)}});
  builder.label("done", Expr::ident("x") == Expr::literal(1));
  return builder.build();
}

/// Repairable two-state chain for non-absorbing targets.
symbolic::Model repair_model(double up, double down) {
  symbolic::ModelBuilder builder;
  auto& m = builder.module("unit");
  m.variable("x", 0, 1, 0);
  m.command(Expr::ident("x") == Expr::literal(0), Expr::literal(up),
            {{"x", Expr::literal(1)}});
  m.command(Expr::ident("x") == Expr::literal(1), Expr::literal(down),
            {{"x", Expr::literal(0)}});
  builder.label("broken", Expr::ident("x") == Expr::literal(1));
  return builder.build();
}

TEST(IntervalParser, RecordsBothBounds) {
  const Property p = parse_property("P=? [ F[0.25,1.5] \"done\" ]");
  EXPECT_TRUE(p.has_time_bound());
  EXPECT_TRUE(p.has_time_lower_bound());
  const Property until = parse_property("P=? [ x=0 U[0.1,0.9] x=1 ]");
  EXPECT_TRUE(until.has_time_lower_bound());
  const Property plain = parse_property("P=? [ F<=1 \"done\" ]");
  EXPECT_FALSE(plain.has_time_lower_bound());
}

TEST(IntervalParser, MalformedIntervalsRejected) {
  EXPECT_THROW(parse_property("P=? [ F[0.5] \"x\" ]"), PropertyError);
  EXPECT_THROW(parse_property("P=? [ F[0.5,1 \"x\" ]"), PropertyError);
}

TEST(IntervalUntil, AbsorbingTargetEqualsUpperBoundOnly) {
  // Once absorbed, the target holds forever: F[t1,t2] == F<=t2.
  const auto space = symbolic::explore(symbolic::compile(decay_model(2.0)));
  EngineSession session(std::make_shared<const symbolic::StateSpace>(space));
  const double interval = session.check("P=? [ F[0.5,1.5] \"done\" ]");
  EXPECT_NEAR(interval, 1.0 - std::exp(-2.0 * 1.5), 1e-10);
}

TEST(IntervalUntil, ZeroLowerBoundEqualsPlainBound) {
  const auto space = symbolic::explore(symbolic::compile(repair_model(2.0, 6.0)));
  EngineSession session(std::make_shared<const symbolic::StateSpace>(space));
  EXPECT_NEAR(session.check("P=? [ F[0,0.8] \"broken\" ]"),
              session.check("P=? [ F<=0.8 \"broken\" ]"), 1e-12);
}

TEST(IntervalUntil, DegenerateIntervalIsTransientProbability) {
  // F[t,t] phi == phi holds at exactly time t (for left = true).
  const double up = 2.0, down = 6.0, t = 0.7;
  const auto space = symbolic::explore(symbolic::compile(repair_model(up, down)));
  EngineSession session(std::make_shared<const symbolic::StateSpace>(space));
  const double expected = up / (up + down) * (1.0 - std::exp(-(up + down) * t));
  EXPECT_NEAR(session.check("P=? [ F[0.7,0.7] \"broken\" ]"), expected, 1e-10);
}

TEST(IntervalUntil, MonotoneInUpperBound) {
  const auto space = symbolic::explore(symbolic::compile(repair_model(1.0, 3.0)));
  EngineSession session(std::make_shared<const symbolic::StateSpace>(space));
  double previous = 0.0;
  for (const char* property : {"P=? [ F[0.5,0.6] \"broken\" ]",
                               "P=? [ F[0.5,1.0] \"broken\" ]",
                               "P=? [ F[0.5,2.0] \"broken\" ]"}) {
    const double value = session.check(property);
    EXPECT_GE(value, previous - 1e-12);
    previous = value;
  }
}

TEST(IntervalUntil, LeftOperandMustHoldThroughPhaseOne) {
  // 0 -> 1 -> 2 chain; (x<1) U[t1,t2] (x=2) is impossible: reaching x=2
  // requires passing x=1, violating the left operand.
  symbolic::ModelBuilder builder;
  auto& m = builder.module("chain");
  m.variable("x", 0, 2, 0);
  m.command(Expr::ident("x") < Expr::literal(2), Expr::literal(5.0),
            {{"x", Expr::ident("x") + Expr::literal(1)}});
  const auto space = symbolic::explore(symbolic::compile(builder.build()));
  EngineSession session(std::make_shared<const symbolic::StateSpace>(space));
  EXPECT_NEAR(session.check("P=? [ x<1 U[0.2,1] x=2 ]"), 0.0, 1e-12);
  EXPECT_GT(session.check("P=? [ x<2 U[0.2,1] x=2 ]"), 0.5);
}

TEST(IntervalGlobally, ComplementOfEventuallyNot) {
  const auto space = symbolic::explore(symbolic::compile(repair_model(2.0, 6.0)));
  EngineSession session(std::make_shared<const symbolic::StateSpace>(space));
  const double g = session.check("P=? [ G[0.2,0.8] x=0 ]");
  const double f = session.check("P=? [ F[0.2,0.8] x=1 ]");
  EXPECT_NEAR(g, 1.0 - f, 1e-12);
  EXPECT_GT(g, 0.0);
  EXPECT_LT(g, 1.0);
}

TEST(IntervalUntil, InvalidIntervalRejectedAtCheckTime) {
  const auto space = symbolic::explore(symbolic::compile(repair_model(1.0, 1.0)));
  EngineSession session(std::make_shared<const symbolic::StateSpace>(space));
  EXPECT_THROW(session.check("P=? [ F[2,1] \"broken\" ]"), PropertyError);
}

TEST(IntervalUntil, LumpedPathAgrees) {
  const auto space = symbolic::explore(symbolic::compile(repair_model(2.0, 6.0)));
  EngineSession session(std::make_shared<const symbolic::StateSpace>(space));
  for (const char* property :
       {"P=? [ F[0.3,1.2] \"broken\" ]", "P=? [ G[0.3,1.2] x=0 ]"}) {
    EXPECT_NEAR(check_lumped(space, property).value, session.check(property), 1e-10)
        << property;
  }
}

}  // namespace
}  // namespace autosec::csl
