// The lumped checking path must agree with a session on the full space on
// every property kind, while shrinking symmetric state spaces.
#include "csl/lumped.hpp"

#include <cmath>
#include <memory>

#include <gtest/gtest.h>

#include "automotive/analyzer.hpp"
#include "automotive/casestudy.hpp"
#include "symbolic/builder.hpp"
#include "symbolic/explorer.hpp"

namespace autosec::csl {
namespace {

using symbolic::Expr;

/// K interchangeable sensor modules feeding one alarm condition; heavily
/// lumpable (only the count matters).
symbolic::Model sensor_farm(int k) {
  symbolic::ModelBuilder builder;
  std::vector<Expr> hot_terms;
  for (int i = 0; i < k; ++i) {
    const std::string var = "s" + std::to_string(i);
    auto& module = builder.module("sensor" + std::to_string(i));
    module.variable(var, 0, 1, 0);
    module.command(Expr::ident(var) == Expr::literal(0), Expr::literal(2.0),
                   {{var, Expr::literal(1)}});
    module.command(Expr::ident(var) == Expr::literal(1), Expr::literal(5.0),
                   {{var, Expr::literal(0)}});
    hot_terms.push_back(Expr::ident(var) == Expr::literal(1));
  }
  builder.label("any_hot", symbolic::any_of(hot_terms));
  Expr count = Expr::literal(0);
  for (int i = 0; i < k; ++i) {
    count = std::move(count) + Expr::ident("s" + std::to_string(i));
  }
  builder.label("all_hot", count == Expr::literal(static_cast<int64_t>(k)));
  builder.state_reward("hot_count", Expr::literal(true), count);
  return builder.build();
}

class LumpedFixture : public ::testing::Test {
 protected:
  LumpedFixture() : space_(symbolic::explore(symbolic::compile(sensor_farm(5)))) {}
  symbolic::StateSpace space_;
};

TEST_F(LumpedFixture, ReducesSymmetricFarmToCountChain) {
  const auto result = check_lumped(space_, "P=? [ F<=1 \"all_hot\" ]");
  EXPECT_EQ(result.original_states, 32u);
  EXPECT_EQ(result.lumped_states, 6u);  // count 0..5
  EXPECT_GT(result.reduction_factor(), 5.0);
}

TEST_F(LumpedFixture, AgreesOnAllPropertyKinds) {
  EngineSession direct(std::make_shared<const symbolic::StateSpace>(space_));
  for (const char* property : {
           "P=? [ F<=0.5 \"all_hot\" ]",
           "P=? [ F \"all_hot\" ]",
           "P=? [ G<=0.5 \"any_hot\" ]",
           "P=? [ G[0.1,0.5] \"any_hot\" ]",
           "P=? [ !\"all_hot\" U<=1 \"all_hot\" ]",
           "P=? [ !\"all_hot\" U[0.2,0.8] \"all_hot\" ]",
           "S=? [ \"any_hot\" ]",
           "R{\"hot_count\"}=? [ C<=1 ]",
           "R{\"hot_count\"}=? [ I=0.3 ]",
           "R{\"hot_count\"}=? [ S ]",
           "R{\"hot_count\"}=? [ F \"all_hot\" ]",
           // A target no state satisfies is missed with probability 1: the
           // expected reward is infinite on both paths.
           "R{\"hot_count\"}=? [ F \"all_hot\" & !\"any_hot\" ]",
       }) {
    const double expected = direct.check(property);
    const auto lumped = check_lumped(space_, property);
    if (std::isinf(expected)) {
      EXPECT_EQ(lumped.value, expected) << property;
    } else {
      EXPECT_NEAR(lumped.value, expected, 1e-8) << property;
    }
    EXPECT_LT(lumped.lumped_states, lumped.original_states) << property;
  }
}

TEST_F(LumpedFixture, TimeBoundsFromConstantsWork) {
  // sensor_farm has no constants; use an automotive model which has many.
  const automotive::Architecture arch =
      automotive::casestudy::architecture(1, automotive::Protection::kUnencrypted);
  automotive::AnalysisOptions options;
  options.nmax = 1;
  const automotive::SecurityAnalysis analysis(
      arch, automotive::casestudy::kMessage,
      automotive::SecurityCategory::kConfidentiality, options);
  const double direct = analysis.check("R{\"exposure\"}=? [ C<=1 ]");
  const auto lumped = check_lumped(analysis.space(), "R{\"exposure\"}=? [ C<=1 ]");
  EXPECT_NEAR(lumped.value, direct, 1e-9);
}

TEST_F(LumpedFixture, CaseStudyModelsLumpAndAgree) {
  // The case-study interfaces have distinct rates, so reduction is modest,
  // but correctness must hold regardless.
  for (int which = 1; which <= 3; ++which) {
    const automotive::Architecture arch = automotive::casestudy::architecture(
        which, automotive::Protection::kAes128);
    automotive::AnalysisOptions options;
    options.nmax = 1;
    const automotive::SecurityAnalysis analysis(
        arch, automotive::casestudy::kMessage,
        automotive::SecurityCategory::kConfidentiality, options);
    const double direct = analysis.check("P=? [ F<=1 \"violated\" ]");
    const auto lumped = check_lumped(analysis.space(), "P=? [ F<=1 \"violated\" ]");
    EXPECT_NEAR(lumped.value, direct, 1e-9) << "architecture " << which;
    EXPECT_LE(lumped.lumped_states, lumped.original_states);
  }
}

TEST_F(LumpedFixture, MeanTimeToBreachAgrees) {
  const automotive::Architecture arch =
      automotive::casestudy::architecture(1, automotive::Protection::kUnencrypted);
  automotive::AnalysisOptions options;
  options.nmax = 1;
  const automotive::SecurityAnalysis analysis(
      arch, automotive::casestudy::kMessage,
      automotive::SecurityCategory::kConfidentiality, options);
  const double direct = analysis.check("R{\"time\"}=? [ F \"violated\" ]");
  const auto lumped = check_lumped(analysis.space(), "R{\"time\"}=? [ F \"violated\" ]");
  EXPECT_NEAR(lumped.value, direct, 1e-8);
  EXPECT_GT(direct, 0.0);
}

}  // namespace
}  // namespace autosec::csl
