// Pins what evaluating a model's expressions means, end to end through
// explore(), label_mask(), satisfying() and reward_vector(): which operands
// `&`, `|` and `?:` skip, which reached errors surface as EvalError or
// ModelError and with what text, and the exact values of mixed int/double
// arithmetic and the built-in functions. The tree interpreter
// (Expr::evaluate) defined these semantics first; the compiled model program
// (symbolic/program.hpp) must keep every one of them.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <string>

#include "symbolic/builder.hpp"
#include "symbolic/explorer.hpp"
#include "symbolic/parser.hpp"

namespace autosec::symbolic {
namespace {

/// x counts 0..3 and back to 0; every valuation is reached.
constexpr const char* kCounter = R"(ctmc
module m
  x : [0..3] init 0;
  [] x < 3 -> 1 : (x'=x+1);
  [] x = 3 -> 1 : (x'=0);
endmodule
)";

StateSpace explore_text(const std::string& text, const ExploreOptions& options = {}) {
  return explore(compile(parse_model(text)), options);
}

/// The counter with extra labels and rewards appended.
StateSpace counter_with(const std::string& extra) {
  return explore_text(std::string(kCounter) + extra);
}

template <typename Error>
void expect_error(const std::function<void()>& fn, const std::string& message) {
  try {
    fn();
    ADD_FAILURE() << "expected an error: " << message;
  } catch (const Error& error) {
    EXPECT_EQ(std::string(error.what()), message);
  }
}

int32_t x_of(const StateSpace& space, size_t state) {
  return space.state_values(state)[0];
}

TEST(EvalSemantics, SkippedOperandsRaiseNoError) {
  // Each skipped operand would divide by zero, take mod 0 or be ill-typed in
  // the state x = 0, where the other operand decides the result.
  const StateSpace space = counter_with(R"(
label "or_div" = x = 0 | 1 / x > 0.4;
label "and_mod" = x > 0 & mod(3, x) = 0;
label "ite_div" = (x = 0 ? 1.0 : 1 / x) >= 0.5;
label "or_type" = x < 4 | x + true > 0;
label "and_type" = x > 5 & !(x + 1);
label "ite_type" = (x >= 0 ? x : x + false) < 2;
rewards "inverse"
  x > 0 : 1 / x;
endrewards
)");
  ASSERT_EQ(space.state_count(), 4u);
  const std::vector<bool> or_div = space.label_mask("or_div");
  const std::vector<bool> and_mod = space.label_mask("and_mod");
  const std::vector<bool> ite_div = space.label_mask("ite_div");
  const std::vector<bool> or_type = space.label_mask("or_type");
  const std::vector<bool> and_type = space.label_mask("and_type");
  const std::vector<bool> ite_type = space.label_mask("ite_type");
  const std::vector<double> inverse = space.reward_vector("inverse");
  for (size_t s = 0; s < space.state_count(); ++s) {
    const int32_t x = x_of(space, s);
    EXPECT_EQ(or_div[s], x == 0 || 1.0 / x > 0.4) << "x=" << x;
    EXPECT_EQ(and_mod[s], x > 0 && 3 % x == 0) << "x=" << x;
    EXPECT_EQ(ite_div[s], (x == 0 ? 1.0 : 1.0 / x) >= 0.5) << "x=" << x;
    EXPECT_TRUE(or_type[s]);
    EXPECT_FALSE(and_type[s]);
    EXPECT_EQ(ite_type[s], x < 2) << "x=" << x;
    EXPECT_EQ(inverse[s], x > 0 ? 1.0 / x : 0.0) << "x=" << x;
  }
  // A guard's skipped operand is skipped during exploration too.
  const StateSpace guarded = explore_text(R"(ctmc
module m
  x : [0..2] init 0;
  [] x = 0 | 2 / x >= 1 -> 1 : (x'=min(x+1, 2));
  [] x > 0 & mod(4, x) = 0 -> x / 2 : (x'=x-1);
endmodule
)");
  EXPECT_EQ(guarded.state_count(), 3u);
}

TEST(EvalSemantics, ReachedErrorsRaiseTodaysEvalError) {
  const StateSpace space = counter_with(R"(
label "div" = 1 / x > 0;
label "mod" = mod(3, x) = 0;
label "type" = x + true > 0;
label "number" = x + 1;
label "negated" = !(x > 0 ? x : 1);
rewards "by_type"
  x >= 0 : x > 1;
endrewards
)");
  expect_error<EvalError>([&] { space.label_mask("div"); }, "division by zero");
  expect_error<EvalError>([&] { space.label_mask("mod"); }, "mod by zero");
  expect_error<EvalError>([&] { space.label_mask("type"); },
                          "expected a number, got true");
  expect_error<EvalError>([&] { space.label_mask("number"); },
                          "expected a boolean, got 1");
  expect_error<EvalError>([&] { space.label_mask("negated"); },
                          "expected a boolean, got 1");
  expect_error<EvalError>([&] { space.reward_vector("by_type"); },
                          "expected a number, got false");

  // The same errors, reached while exploring.
  expect_error<EvalError>([] { explore_text(R"(ctmc
module m
  x : [0..1] init 0;
  [] 1 / x > 0 -> 1 : (x'=1);
endmodule
)"); }, "division by zero");
  expect_error<EvalError>([] { explore_text(R"(ctmc
module m
  x : [0..1] init 0;
  [] x = 0 -> mod(1, x) : (x'=1);
endmodule
)"); }, "mod by zero");
  expect_error<EvalError>([] { explore_text(R"(ctmc
module m
  x : [0..1] init 0;
  [] x = 0 -> x = 0 : (x'=1);
endmodule
)"); }, "expected a number, got true");
  expect_error<EvalError>([] { explore_text(R"(ctmc
module m
  x : [0..1] init 0;
  [] x -> 1 : (x'=1);
endmodule
)"); }, "expected a boolean, got 0");
  expect_error<EvalError>([] { explore_text(R"(ctmc
module m
  x : [0..1] init 0;
  [] x = 0 -> 1 : (x'=mod(x + 1, x));
endmodule
)"); }, "mod by zero");
}

TEST(EvalSemantics, MixedArithmeticAndFunctionsKeepTheirValues) {
  const StateSpace space = counter_with(R"(
label "eq_double" = x = 1.0;
label "lt_double" = x < 1.5;
label "ge_double" = x >= 2.0;
label "ne_double" = x != 2.0;
label "neg_int" = -x = 0 - x;
label "iff" = (x > 1) <=> (x >= 2);
label "implies" = x > 2 => x = 3;
rewards "pow"
  true : pow(x, 2.5);
endrewards
rewards "log"
  x > 0 : log(x);
endrewards
rewards "log2"
  true : log(x + 1, 2);
endrewards
rewards "min"
  true : min(x, 1.5);
endrewards
rewards "max"
  true : max(x, 1) + max(0.5, x);
endrewards
rewards "floor_ceil"
  true : floor(x / 2) * 10 + ceil(x / 2);
endrewards
rewards "mod"
  true : mod(x + 5, 3);
endrewards
rewards "div"
  true : (x + 1) / 3;
endrewards
rewards "mixed"
  true : x * 0.1 + 2 * x - 0.3;
endrewards
rewards "items"
  x > 0 : 0.1;
  x > 1 : 0.2;
  true : x / 7;
endrewards
)");
  const std::vector<bool> eq_double = space.label_mask("eq_double");
  const std::vector<bool> lt_double = space.label_mask("lt_double");
  const std::vector<bool> ge_double = space.label_mask("ge_double");
  const std::vector<bool> ne_double = space.label_mask("ne_double");
  const std::vector<bool> neg_int = space.label_mask("neg_int");
  const std::vector<bool> iff = space.label_mask("iff");
  const std::vector<bool> implies = space.label_mask("implies");
  for (size_t s = 0; s < space.state_count(); ++s) {
    const int32_t x = x_of(space, s);
    const double d = x;
    EXPECT_EQ(eq_double[s], x == 1);
    EXPECT_EQ(lt_double[s], x < 2);
    EXPECT_EQ(ge_double[s], x >= 2);
    EXPECT_EQ(ne_double[s], x != 2);
    EXPECT_TRUE(neg_int[s]);
    EXPECT_TRUE(iff[s]);
    EXPECT_TRUE(implies[s]);
    // Bitwise: the same double operations in the same order.
    EXPECT_EQ(space.reward_vector("pow")[s], std::pow(d, 2.5));
    EXPECT_EQ(space.reward_vector("log")[s], x > 0 ? std::log(d) : 0.0);
    EXPECT_EQ(space.reward_vector("log2")[s], std::log(d + 1) / std::log(2.0));
    EXPECT_EQ(space.reward_vector("min")[s], std::min(d, 1.5));
    EXPECT_EQ(space.reward_vector("max")[s],
              static_cast<double>(std::max(x, 1)) + std::max(0.5, d));
    EXPECT_EQ(space.reward_vector("floor_ceil")[s],
              static_cast<double>(static_cast<int64_t>(std::floor(d / 2)) * 10 +
                                  static_cast<int64_t>(std::ceil(d / 2))));
    EXPECT_EQ(space.reward_vector("mod")[s], static_cast<double>((x + 5) % 3));
    EXPECT_EQ(space.reward_vector("div")[s], (d + 1) / 3);
    EXPECT_EQ(space.reward_vector("mixed")[s], d * 0.1 + static_cast<double>(2 * x) - 0.3);
    double items = 0.0;
    if (x > 0) items += 0.1;
    if (x > 1) items += 0.2;
    items += d / 7;
    EXPECT_EQ(space.reward_vector("items")[s], items);
  }

  // Integer-valued results stay integers, so they are legal updates.
  const StateSpace updates = explore_text(R"(ctmc
module m
  x : [0..3] init 0;
  y : [-3..3] init 0;
  [] x < 3 -> 1 : (x'=x+1);
  [] x = 3 -> 1 : (x'=0);
  [] true -> 2 : (y'=-x);
  [] true -> 3 : (y'=min(x, 2) - max(-x, -1));
  [] true -> 4 : (y'=floor(x / 2) + ceil(x / 3));
  [] true -> 5 : (y'=mod(x, 2) * -1);
endmodule
)");
  for (size_t s = 0; s < updates.state_count(); ++s) {
    const std::vector<int32_t> values = updates.state_values(s);
    EXPECT_GE(values[1], -3);
    EXPECT_LE(values[1], 3);
  }
  EXPECT_EQ(updates.state_count(), 28u);  // every y in -3..3 with every x
}

TEST(EvalSemantics, ExploreErrorsKeepTheirModelErrorTexts) {
  const auto explore_ctmc = [](const std::string& command) {
    return [command] {
      explore_text("ctmc\nmodule p\n  x : [0..1] init 0;\n  " + command + "\nendmodule\n");
    };
  };
  expect_error<ModelError>(explore_ctmc("[] x = 0 -> 1 : (x'=x / 1);"),
                           "explore: non-integer update for variable 'x'");
  expect_error<ModelError>(explore_ctmc("[] x = 0 -> 1 : (x'=x = 0);"),
                           "explore: non-integer update for variable 'x'");
  expect_error<ModelError>(explore_ctmc("[] true -> 1 : (x'=x + 5);"),
                           "explore: update drives variable 'x' to 5, outside [0..1] "
                           "(module 'p')");
  expect_error<ModelError>(explore_ctmc("[] true -> 1 : (x'=x - 1);"),
                           "explore: update drives variable 'x' to -1, outside [0..1] "
                           "(module 'p')");
  expect_error<ModelError>(explore_ctmc("[] x = 0 -> -1 : (x'=1);"),
                           "explore: command in module 'p' has invalid rate " +
                               std::to_string(-1.0) + " in state 0");
  expect_error<ModelError>(explore_ctmc("[] x = 0 -> log(x - 1) : (x'=1);"),
                           "explore: command in module 'p' has invalid rate " +
                               std::to_string(std::log(-1.0)) + " in state 0");
  expect_error<ModelError>(explore_ctmc("[] x = 0 -> pow(10, 400 + x) : (x'=1);"),
                           "explore: command in module 'p' has invalid rate " +
                               std::to_string(std::pow(10.0, 400.0)) + " in state 0");
  ExploreOptions strict;
  strict.allow_zero_rates = false;
  expect_error<ModelError>(
      [&] {
        explore_text("ctmc\nmodule p\n  x : [0..1] init 0;\n  [] x = 0 -> x : (x'=1);\n"
                     "endmodule\n",
                     strict);
      },
      "explore: zero rate with enabled guard in module 'p'");

  const auto explore_mdp = [](const std::string& command) {
    return [command] {
      explore_text("mdp\nmodule p\n  x : [0..1] init 0;\n  " + command + "\nendmodule\n");
    };
  };
  expect_error<ModelError>(
      explore_mdp("[go] x = 0 -> -0.5 : (x'=1) + 1.5 : (x'=0);"),
      "explore: command in module 'p' has invalid branch probability " +
          std::to_string(-0.5) + " in state 0");
  expect_error<ModelError>(explore_mdp("[go] x = 0 -> x : (x'=1) + 0 : (x'=0);"),
                           "explore: command in module 'p' has all-zero branch "
                           "probabilities in state 0");
  expect_error<ModelError>(explore_mdp("[go] x = 0 -> 0.5 : (x'=1) + 0.4 : (x'=0);"),
                           "explore: branch probabilities of a command in module 'p' "
                           "sum to " +
                               std::to_string(0.9) + " (expected 1) in state 0");
  expect_error<ModelError>(explore_mdp("[go] x = 0 -> 1 : (x'=x + 0.5);"),
                           "explore: non-integer update for variable 'x'");
  expect_error<ModelError>(explore_mdp("[go] x = 0 -> 1 : (x'=x + 2);"),
                           "explore: update drives variable 'x' to 2, outside [0..1] "
                           "(module 'p')");
}

TEST(EvalSemantics, ReducedSpacesStillRefuseNonInvariantFormulas) {
  ModelBuilder b;
  Expr any = Expr::literal(false);
  std::vector<RewardItem> items;
  for (int i = 1; i <= 3; ++i) {
    const std::string x = "x" + std::to_string(i);
    auto& m = b.module("node" + std::to_string(i));
    m.variable(x, 0, 2, 0);
    m.command(Expr::ident(x) < Expr::literal(2), Expr::literal(2.0),
              {{x, Expr::ident(x) + Expr::literal(1)}});
    m.command(Expr::ident(x) > Expr::literal(0), Expr::literal(3.0),
              {{x, Expr::ident(x) - Expr::literal(1)}});
    any = any || (Expr::ident(x) == Expr::literal(2));
    items.push_back({Expr::ident(x) > Expr::literal(0), Expr::ident(x) / Expr::literal(4)});
  }
  b.label("any_full", any);
  b.rewards("load", std::move(items));
  const auto compiled = std::make_shared<const CompiledModel>(compile(b.build()));
  ExploreOptions options;
  options.reduction = SymmetryReduction::kOn;
  const StateSpace reduced = explore(compiled, options);
  const StateSpace full = explore(compiled);
  ASSERT_TRUE(reduced.reduced());
  ASSERT_EQ(reduced.state_count(), 10u);  // multisets of 3 values in 0..2
  ASSERT_EQ(full.state_count(), 27u);

  const std::vector<bool> mask = reduced.label_mask("any_full");
  const std::vector<double> load = reduced.reward_vector("load");
  for (size_t s = 0; s < reduced.state_count(); ++s) {
    const std::vector<int32_t> v = reduced.state_values(s);
    EXPECT_TRUE(std::is_sorted(v.begin(), v.end()));  // the orbit representative
    EXPECT_EQ(mask[s], std::count(v.begin(), v.end(), 2) > 0);
    double sum = 0.0;
    for (const int32_t value : v) {
      if (value > 0) sum += value / 4.0;
    }
    EXPECT_EQ(load[s], sum);
  }
  for (const Expr& formula :
       {Expr::var_ref(0, "x1") == Expr::literal(1),
        Expr::var_ref(0, "x1") > Expr::var_ref(1, "x2"),
        Expr::literal(2) / (Expr::var_ref(2, "x3") + Expr::literal(1)) > Expr::literal(1)}) {
    try {
      reduced.satisfying(formula);
      ADD_FAILURE() << "expected ModelError for " << formula.to_string();
    } catch (const ModelError& error) {
      EXPECT_NE(std::string(error.what()).find("not invariant"), std::string::npos);
    }
    EXPECT_EQ(full.satisfying(formula).size(), full.state_count());
  }
  // An invariant formula is answered on the quotient.
  const std::vector<bool> symmetric =
      reduced.satisfying((Expr::var_ref(0, "x1") > Expr::literal(0) &&
                          Expr::var_ref(1, "x2") > Expr::literal(0)) &&
                         Expr::var_ref(2, "x3") > Expr::literal(0));
  for (size_t s = 0; s < reduced.state_count(); ++s) {
    const std::vector<int32_t> v = reduced.state_values(s);
    EXPECT_EQ(symmetric[s], v[0] > 0 && v[1] > 0 && v[2] > 0);
  }
}

}  // namespace
}  // namespace autosec::symbolic
