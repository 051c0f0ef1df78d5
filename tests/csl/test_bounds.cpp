// Bounded (boolean) properties: P<=p [...], S>p [...], R{"r"}<=x [...].
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "csl/session.hpp"
#include "csl/property_parser.hpp"
#include "symbolic/builder.hpp"
#include "symbolic/explorer.hpp"

namespace autosec::csl {
namespace {

using symbolic::Expr;

symbolic::Model repair_model() {
  symbolic::ModelBuilder builder;
  builder.constant_double("BUDGET", 0.3);
  auto& m = builder.module("unit");
  m.variable("x", 0, 1, 0);
  m.command(Expr::ident("x") == Expr::literal(0), Expr::literal(2.0),
            {{"x", Expr::literal(1)}});
  m.command(Expr::ident("x") == Expr::literal(1), Expr::literal(6.0),
            {{"x", Expr::literal(0)}});
  builder.label("broken", Expr::ident("x") == Expr::literal(1));
  builder.state_reward("downtime", Expr::ident("x") == Expr::literal(1),
                       Expr::literal(1.0));
  return builder.build();
}

class BoundsFixture : public ::testing::Test {
 protected:
  BoundsFixture()
      : space_(symbolic::explore(symbolic::compile(repair_model()))),
        session_(std::make_shared<const symbolic::StateSpace>(space_)) {}
  symbolic::StateSpace space_;
  EngineSession session_;
};

TEST_F(BoundsFixture, ParserRecordsBoundKind) {
  EXPECT_EQ(parse_property("P<=0.5 [ F<=1 \"broken\" ]").bound, BoundKind::kLe);
  EXPECT_EQ(parse_property("P<0.5 [ F<=1 \"broken\" ]").bound, BoundKind::kLt);
  EXPECT_EQ(parse_property("P>=0.5 [ F<=1 \"broken\" ]").bound, BoundKind::kGe);
  EXPECT_EQ(parse_property("P>0.5 [ F<=1 \"broken\" ]").bound, BoundKind::kGt);
  EXPECT_EQ(parse_property("P=? [ F<=1 \"broken\" ]").bound, BoundKind::kQuery);
  EXPECT_TRUE(parse_property("P=? [ F<=1 \"broken\" ]").is_query());
}

TEST_F(BoundsFixture, ProbabilityBounds) {
  // P(F<=1 broken) = 1 - e^{-2} ~ 0.8647.
  EXPECT_TRUE(session_.satisfies("P>=0.8 [ F<=1 \"broken\" ]"));
  EXPECT_TRUE(session_.satisfies("P<0.9 [ F<=1 \"broken\" ]"));
  EXPECT_FALSE(session_.satisfies("P<=0.5 [ F<=1 \"broken\" ]"));
  EXPECT_FALSE(session_.satisfies("P>0.99 [ F<=1 \"broken\" ]"));
}

TEST_F(BoundsFixture, SteadyStateBounds) {
  // pi(broken) = 0.25.
  EXPECT_TRUE(session_.satisfies("S<=0.25 [ \"broken\" ]"));
  EXPECT_TRUE(session_.satisfies("S>0.2 [ \"broken\" ]"));
  EXPECT_FALSE(session_.satisfies("S<0.2 [ \"broken\" ]"));
}

TEST_F(BoundsFixture, RewardBounds) {
  EXPECT_TRUE(session_.satisfies("R{\"downtime\"}<=1 [ C<=1 ]"));
  EXPECT_FALSE(session_.satisfies("R{\"downtime\"}>1 [ C<=1 ]"));
}

TEST_F(BoundsFixture, BoundsMayUseModelConstants) {
  // BUDGET = 0.3 > cumulated downtime in year 1 (~0.22).
  EXPECT_TRUE(session_.satisfies("R{\"downtime\"}<=BUDGET [ C<=1 ]"));
}

TEST_F(BoundsFixture, SatisfiesOnQueryThrows) {
  EXPECT_THROW(session_.satisfies("P=? [ F<=1 \"broken\" ]"), PropertyError);
}

TEST_F(BoundsFixture, CheckOnBoundedReturnsQuantitativeValue) {
  const Property p = parse_property("P<=0.5 [ F<=1 \"broken\" ]");
  EXPECT_NEAR(session_.check(p), 1.0 - std::exp(-2.0), 1e-10);
}

TEST_F(BoundsFixture, NonNumericBoundRejected) {
  EXPECT_THROW(session_.satisfies("P<=\"broken\" [ F<=1 \"broken\" ]"),
               PropertyError);
}

}  // namespace
}  // namespace autosec::csl
