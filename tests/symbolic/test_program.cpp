// The compiled model program against the tree interpreter on small layouts:
// hash-consing, per-state memoization of shared nodes, the tree fallback for
// roots that cannot be typed statically, and every valuation of the layout.
#include "symbolic/program.hpp"

#include <gtest/gtest.h>

namespace autosec::symbolic {
namespace {

const std::vector<CompiledVariable> kVariables = {
    {"x", "m", 0, 3, 0}, {"y", "m", -2, 2, 0}};

Expr x() { return Expr::var_ref(0, "x"); }
Expr y() { return Expr::var_ref(1, "y"); }

/// Every valuation of kVariables, packed.
std::vector<std::vector<uint64_t>> all_states(const StateLayout& layout,
                                              std::vector<std::vector<int32_t>>& values) {
  std::vector<std::vector<uint64_t>> packed;
  for (int32_t a = 0; a <= 3; ++a) {
    for (int32_t b = -2; b <= 2; ++b) {
      values.push_back({a, b});
      packed.emplace_back(layout.words());
      layout.pack(values.back(), packed.back().data());
    }
  }
  return packed;
}

TEST(Program, HashConsingMakesOneNodeOfEqualSubtrees) {
  const StateLayout layout(kVariables);
  // The same formula built twice, and once more inside another root.
  const auto formula = [] { return (x() > Expr::literal(0)) || (y() == Expr::literal(1)); };
  const Program once({formula()}, layout);
  const Program twice({formula(), formula()}, layout);
  const Program nested({formula(), formula() && (x() < Expr::literal(3))}, layout);
  EXPECT_EQ(twice.unique_nodes(), once.unique_nodes());
  // The conjunction adds itself, its comparison and the literal 3.
  EXPECT_EQ(nested.unique_nodes(), once.unique_nodes() + 3);
}

TEST(Program, EveryRootMatchesTheTreeOnEveryValuation) {
  const StateLayout layout(kVariables);
  const Expr shared = (x() + y()) * Expr::literal(2);
  const std::vector<Expr> roots = {
      shared > Expr::literal(1),
      shared - Expr::literal(0.5),
      Expr::ite(y() >= Expr::literal(0), shared, Expr::literal(7)),
      Expr::call(CallOp::kMax, {x(), y()}) + Expr::call(CallOp::kMin, {y(), Expr::literal(1)}),
      (y() != Expr::literal(0)) && (Expr::literal(1) / y() > Expr::literal(0.25)),
      Expr::ite(x() > Expr::literal(1), Expr::literal(1), Expr::literal(2.5)),  // tree
      -y() + Expr::call(CallOp::kFloor, {x() / Expr::literal(2)}),
  };
  const Program program(roots, layout);
  std::vector<std::vector<int32_t>> values;
  const std::vector<std::vector<uint64_t>> states = all_states(layout, values);
  Program::Frame frame(program);
  for (size_t s = 0; s < states.size(); ++s) {
    frame.begin(states[s].data());
    EXPECT_EQ(program.eval_bool(frame, 0), roots[0].evaluate_bool(values[s]));
    EXPECT_EQ(program.eval_number(frame, 1), roots[1].evaluate_number(values[s]));
    int64_t value = 0;
    ASSERT_TRUE(program.eval_int(frame, 2, value));
    EXPECT_EQ(value, roots[2].evaluate(values[s]).as_int());
    ASSERT_TRUE(program.eval_int(frame, 3, value));
    EXPECT_EQ(value, roots[3].evaluate(values[s]).as_int());
    EXPECT_EQ(program.eval_bool(frame, 4), roots[4].evaluate_bool(values[s]));
    EXPECT_EQ(program.eval_number(frame, 5), roots[5].evaluate_number(values[s]));
    EXPECT_EQ(program.eval_int(frame, 5, value), roots[5].evaluate(values[s]).is_int());
    ASSERT_TRUE(program.eval_int(frame, 6, value));
    EXPECT_EQ(value, roots[6].evaluate(values[s]).as_int());
  }
}

TEST(Program, SharedNodesAreRecomputedForEachState) {
  const StateLayout layout(kVariables);
  const Expr shared = x() * y();
  const Program program({shared == Expr::literal(2), shared + Expr::literal(1)}, layout);
  std::vector<std::vector<int32_t>> values;
  const std::vector<std::vector<uint64_t>> states = all_states(layout, values);
  Program::Frame frame(program);
  // One frame walks every state; a value kept from the previous state would
  // show up as a wrong sum.
  for (size_t s = 0; s < states.size(); ++s) {
    frame.begin(states[s].data());
    int64_t sum = 0;
    ASSERT_TRUE(program.eval_int(frame, 1, sum));
    EXPECT_EQ(sum, values[s][0] * values[s][1] + 1);
    EXPECT_EQ(program.eval_bool(frame, 0), values[s][0] * values[s][1] == 2);
  }
}

TEST(Program, LiteralRootsAreConstant) {
  const StateLayout layout(kVariables);
  const Program program({Expr::literal(true), Expr::literal(2.5), x() > Expr::literal(0)},
                        layout);
  EXPECT_TRUE(program.constant(0));
  EXPECT_TRUE(program.constant(1));
  EXPECT_FALSE(program.constant(2));
  const std::vector<uint64_t> state(layout.words(), 0);
  Program::Frame frame(program);
  frame.begin(state.data());
  EXPECT_TRUE(program.eval_bool(frame, 0));
  EXPECT_EQ(program.eval_number(frame, 1), 2.5);
  EXPECT_THROW(program.eval_number(frame, 0), EvalError);  // a bool is no number
}

}  // namespace
}  // namespace autosec::symbolic
