// Rate-only families: a space refilled from a family's explored graph must be
// the space explore() builds, bit for bit, and every model that is not a rate
// variant of the family must be left to explore().
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "automotive/analyzer.hpp"
#include "automotive/casestudy.hpp"
#include "linalg/csr_matrix.hpp"
#include "symbolic/builder.hpp"
#include "symbolic/explorer.hpp"
#include "util/budget.hpp"
#include "util/failure.hpp"

namespace autosec::symbolic {
namespace {

namespace cs = automotive::casestudy;
using Overrides = std::vector<std::pair<std::string, Value>>;

std::shared_ptr<const CompiledModel> compiled(const Model& model,
                                              const Overrides& overrides = {}) {
  return std::make_shared<const CompiledModel>(compile(model, overrides));
}

/// The case study's pair model of architecture `which` at nmax 2.
Model case_study(int which) {
  automotive::AnalysisOptions options;
  options.nmax = 2;
  return automotive::pair_model(cs::architecture(which, automotive::Protection::kUnencrypted),
                                cs::kMessage,
                                automotive::SecurityCategory::kConfidentiality, options);
}

bool same_bits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

/// Offsets, columns, values and exit rates equal, bit for bit.
void expect_identical(const StateSpace& refilled, const StateSpace& explored,
                      const std::string& what) {
  ASSERT_EQ(refilled.state_count(), explored.state_count()) << what;
  EXPECT_EQ(refilled.transition_count(), explored.transition_count()) << what;
  EXPECT_EQ(refilled.initial_state(), explored.initial_state()) << what;
  const linalg::CsrMatrix& a = refilled.rates();
  const linalg::CsrMatrix& b = explored.rates();
  ASSERT_TRUE(std::ranges::equal(a.row_offsets(), b.row_offsets())) << what;
  ASSERT_TRUE(std::ranges::equal(a.columns(), b.columns())) << what;
  size_t differing = 0;
  for (size_t r = 0; r < a.rows(); ++r) {
    const auto va = a.row_values(r);
    const auto vb = b.row_values(r);
    for (size_t k = 0; k < va.size(); ++k) differing += same_bits(va[k], vb[k]) ? 0 : 1;
    differing += same_bits(refilled.chain().exit_rate(r), explored.chain().exit_rate(r))
                     ? 0
                     : 1;
  }
  EXPECT_EQ(differing, 0u) << what;
  EXPECT_TRUE(same_bits(refilled.chain().max_exit_rate(), explored.chain().max_exit_rate()))
      << what;
}

TEST(RateFamily, RefillEqualsExploreOnTheCaseStudiesAtManyRates) {
  for (const int which : {1, 2, 3}) {
    const Model model = case_study(which);
    const FamilyExplore recorded = explore_family(compiled(model));
    ASSERT_NE(recorded.family, nullptr) << "arch" << which;
    expect_identical(recorded.space, explore(compiled(model)),
                     "arch" + std::to_string(which) + " recording explore");
    for (const char* constant : {"phi_3g", "eta_3g_net"}) {
      for (const double value : {0.3, 1.0, 7.25, 52.0, 1234.5}) {
        const auto point = compiled(model, {{constant, Value::of(value)}});
        const std::string what = "arch" + std::to_string(which) + " " + constant + "=" +
                                 std::to_string(value);
        std::optional<StateSpace> refilled = refill(*recorded.family, point);
        ASSERT_TRUE(refilled.has_value()) << what;
        EXPECT_EQ(refilled->store(), recorded.family->store) << what;
        EXPECT_EQ(&refilled->model(), point.get()) << what;
        expect_identical(*refilled, explore(point), what);
      }
    }
  }
}

/// One state with `commands` commands into 13 successors, several per
/// successor: a row long enough that std::sort partitions it instead of
/// insertion-sorting it, with sums whose bits depend on their order.
Model wide_row(size_t commands, double scale) {
  ModelBuilder b;
  b.constant_double("s", scale);
  auto& m = b.module("fan");
  m.variable("x", 0, 13, 0);
  for (size_t k = 0; k < commands; ++k) {
    const auto target = static_cast<int64_t>(1 + (k * 7) % 13);
    m.command(Expr::ident("x") == Expr::literal(0),
              Expr::ident("s") * Expr::literal(0.1 * static_cast<double>(k + 1) +
                                               1e-3 / static_cast<double>(k + 1)),
              {{"x", Expr::literal(target)}});
  }
  m.command(Expr::ident("x") > Expr::literal(0), Expr::literal(1.0),
            {{"x", Expr::literal(0)}});
  return b.build();
}

TEST(RateFamily, RowMergeSumsWideRowsInTheBuildersOrder) {
  // The explorer's row merge and CsrBuilder (the reference) sort and sum the
  // same entry sequence the same way, and a refill repeats that order.
  const size_t commands = 40;
  const Model model = wide_row(commands, 1.0);
  const FamilyExplore recorded = explore_family(compiled(model));
  ASSERT_NE(recorded.family, nullptr);
  for (const double scale : {1.0, 3.7, 0.013}) {
    const auto point = compiled(model, {{"s", Value::of(scale)}});
    const StateSpace explored = explore(point);
    const size_t n = explored.state_count();
    linalg::CsrBuilder builder(n, n);
    for (size_t k = 0; k < commands; ++k) {
      // State ids follow BFS intern order: successor x = t is the
      // (first appearance of t in command order)-th new state.
      Value rate;
      ASSERT_TRUE(point->commands[k].rate.as_literal(rate));
      std::vector<int32_t> successor = {static_cast<int32_t>(1 + (k * 7) % 13)};
      size_t id = 0;
      for (; id < n && explored.state_values(id) != successor; ++id) {
      }
      ASSERT_LT(id, n);
      builder.add(0, id, rate.as_number());
    }
    const linalg::CsrMatrix reference = std::move(builder).build();
    ASSERT_TRUE(std::ranges::equal(reference.row_columns(0), explored.rates().row_columns(0)));
    const auto expected = reference.row_values(0);
    const auto actual = explored.rates().row_values(0);
    for (size_t k = 0; k < expected.size(); ++k) {
      EXPECT_TRUE(same_bits(actual[k], expected[k])) << "scale " << scale << " entry " << k;
    }
    std::optional<StateSpace> refilled = refill(*recorded.family, point);
    ASSERT_TRUE(refilled.has_value());
    expect_identical(*refilled, explored, "scale " + std::to_string(scale));
  }
}

/// Two-state repair model; `rate_b` is the second command's rate expression.
Model repair(Expr rate_b) {
  ModelBuilder b;
  b.constant_double("a", 2.0);
  b.constant_double("b", 6.0);
  auto& m = b.module("unit");
  m.variable("x", 0, 1, 0);
  m.command(Expr::ident("x") == Expr::literal(0), Expr::ident("a"),
            {{"x", Expr::literal(1)}});
  m.command(Expr::ident("x") == Expr::literal(1), std::move(rate_b),
            {{"x", Expr::literal(0)}});
  b.label("broken", Expr::ident("x") == Expr::literal(1));
  return b.build();
}

TEST(RateFamily, ModelsThatAreNotRateVariantsAreLeftToExplore) {
  const Model model = repair(Expr::ident("b"));
  const FamilyExplore recorded = explore_family(compiled(model));
  ASSERT_NE(recorded.family, nullptr);
  const RateFamily& family = *recorded.family;
  EXPECT_TRUE(refill(family, compiled(model, {{"a", Value::of(5.0)}})).has_value());

  // A state-dependent rate heads no family and refills from none.
  const Model state_rate = repair(Expr::ident("b") * (Expr::ident("x") + Expr::literal(1)));
  EXPECT_EQ(explore_family(compiled(state_rate)).family, nullptr);
  EXPECT_FALSE(refill(family, compiled(state_rate)).has_value());
  EXPECT_FALSE(rate_variants(*family.model, *compiled(state_rate)));

  // Rates ≤ 0 and non-finite rates explore, so explore's own errors stand.
  for (const double bad : {0.0, -1.0, std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN()}) {
    const auto point = compiled(model, {{"b", Value::of(bad)}});
    EXPECT_FALSE(refill(family, point).has_value()) << bad;
    if (bad == 0.0) {
      EXPECT_EQ(explore(point).transition_count(), 1u);  // the zero-rate command drops
    } else {
      EXPECT_THROW(explore(point), ModelError) << bad;
    }
  }

  // A different structure: a guard, an update, a label or a range.
  ModelBuilder other;
  other.constant_double("a", 2.0);
  auto& m = other.module("unit");
  m.variable("x", 0, 2, 0);
  m.command(Expr::ident("x") == Expr::literal(0), Expr::ident("a"),
            {{"x", Expr::literal(1)}});
  m.command(Expr::ident("x") == Expr::literal(1), Expr::literal(6.0),
            {{"x", Expr::literal(0)}});
  other.label("broken", Expr::ident("x") == Expr::literal(1));
  EXPECT_FALSE(refill(family, compiled(other.build())).has_value());

  // Symmetry reduction: neither recorded nor refilled.
  ExploreOptions reduced;
  reduced.reduction = SymmetryReduction::kOn;
  EXPECT_EQ(explore_family(compiled(model), reduced).family, nullptr);
  EXPECT_FALSE(refill(family, compiled(model), reduced).has_value());

  // An mdp model heads no family.
  ModelBuilder walk;
  walk.type(ModelType::kMdp);
  auto& w = walk.module("walk");
  w.variable("x", 0, 1, 0);
  w.choice("go", Expr::ident("x") == Expr::literal(0),
           {{Expr::literal(1.0), {{"x", Expr::literal(1)}}}});
  const auto mdp = compiled(walk.build());
  EXPECT_EQ(explore_family(mdp).family, nullptr);
  EXPECT_FALSE(refill(family, mdp).has_value());
}

TEST(RateFamily, AStateCeilingBelowTheFamilyExploresAndFailsAsExploreDoes) {
  const Model model = case_study(1);
  const FamilyExplore recorded = explore_family(compiled(model));
  ASSERT_NE(recorded.family, nullptr);
  const size_t states = recorded.space.state_count();
  const auto point = compiled(model, {{"phi_3g", Value::of(3.0)}});

  ExploreOptions exact;
  exact.max_states = states;
  EXPECT_TRUE(refill(*recorded.family, point, exact).has_value());

  for (const bool from_budget : {false, true}) {
    ExploreOptions tight;
    if (from_budget) {
      tight.budget = std::make_shared<util::ResourceBudget>(states - 1, 0);
    } else {
      tight.max_states = states - 1;
    }
    EXPECT_FALSE(refill(*recorded.family, point, tight).has_value());
    try {
      explore(point, tight);
      FAIL() << "expected state_budget_exceeded";
    } catch (const util::EngineFailure& failure) {
      EXPECT_EQ(failure.code(), util::FailureCode::kStateBudgetExceeded);
      ASSERT_TRUE(failure.progress().states_explored.has_value());
      EXPECT_EQ(*failure.progress().states_explored, states - 1);
    }
  }
}

TEST(RateFamily, ChargesTheFamilyOnceAndEachRefillItsOwnArrays) {
  const Model model = case_study(2);
  ExploreOptions recording;
  recording.budget = std::make_shared<util::ResourceBudget>();
  const FamilyExplore recorded = explore_family(compiled(model), recording);
  ASSERT_NE(recorded.family, nullptr);
  EXPECT_EQ(recording.budget->charged_bytes(),
            recorded.space.array_bytes() + recorded.family->bytes());
  EXPECT_EQ(recorded.family->bytes() - recorded.space.store_bytes(),
            (recorded.family->row_offsets.size() + recorded.family->columns.size() +
             recorded.family->term_offsets.size() + recorded.family->term_commands.size()) *
                sizeof(uint32_t));

  ExploreOptions refilling;
  refilling.budget = std::make_shared<util::ResourceBudget>();
  std::optional<StateSpace> refilled = refill(
      *recorded.family, compiled(model, {{"eta_3g_net", Value::of(9.0)}}), refilling);
  ASSERT_TRUE(refilled.has_value());
  EXPECT_EQ(refilling.budget->charged_bytes(), refilled->array_bytes());

  ExploreOptions tight;
  tight.budget = std::make_shared<util::ResourceBudget>(0, refilled->array_bytes() / 2);
  try {
    refill(*recorded.family, compiled(model, {{"eta_3g_net", Value::of(9.0)}}), tight);
    FAIL() << "expected memory_budget_exceeded";
  } catch (const util::EngineFailure& failure) {
    EXPECT_EQ(failure.code(), util::FailureCode::kMemoryBudgetExceeded);
    EXPECT_EQ(failure.stage(), "explore");
  }
}

}  // namespace
}  // namespace autosec::symbolic
