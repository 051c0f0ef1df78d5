#include "symbolic/symmetry.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "symbolic/builder.hpp"
#include "symbolic/explorer.hpp"

namespace autosec::symbolic {
namespace {

/// `copies` interchangeable one-variable modules: each toggles its flag up at
/// rate `up` and down at rate `down`, plus one asymmetric "gw" module so the
/// model is not fully symmetric. When `tag_first` is set, module 1 gets a
/// private label that breaks its interchangeability.
Model replicated(int copies, double up = 2.0, double down = 3.0,
                 bool tag_first = false) {
  ModelBuilder b;
  auto& gw = b.module("gw");
  gw.variable("g", 0, 2, 0);
  gw.command(Expr::ident("g") < Expr::literal(2), Expr::literal(1.0),
             {{"g", Expr::ident("g") + Expr::literal(1)}});
  Expr any = Expr::literal(false);
  for (int i = 1; i <= copies; ++i) {
    const std::string x = "x" + std::to_string(i);
    auto& m = b.module("node" + std::to_string(i));
    m.variable(x, 0, 1, 0);
    m.command(Expr::ident(x) == Expr::literal(0), Expr::literal(up),
              {{x, Expr::literal(1)}});
    m.command(Expr::ident(x) == Expr::literal(1), Expr::literal(down),
              {{x, Expr::literal(0)}});
    any = any || (Expr::ident(x) == Expr::literal(1));
  }
  b.label("any_up", any);
  if (tag_first) b.label("first_up", Expr::ident("x1") == Expr::literal(1));
  return b.build();
}

TEST(Symmetry, DetectsInterchangeableReplicas) {
  const SymmetryGroup group = detect_symmetries(compile(replicated(3)));
  ASSERT_FALSE(group.trivial());
  ASSERT_EQ(group.orbits().size(), 1u);
  EXPECT_EQ(group.orbits()[0].blocks.size(), 3u);
  EXPECT_EQ(group.interchangeable_modules(), 3u);
}

TEST(Symmetry, DistinctRatesAreNotInterchangeable) {
  ModelBuilder b;
  for (int i = 1; i <= 2; ++i) {
    const std::string x = "x" + std::to_string(i);
    auto& m = b.module("node" + std::to_string(i));
    m.variable(x, 0, 1, 0);
    m.command(Expr::ident(x) == Expr::literal(0), Expr::literal(1.0 + i),
              {{x, Expr::literal(1)}});
  }
  EXPECT_TRUE(detect_symmetries(compile(b.build())).trivial());
}

TEST(Symmetry, ModulePrivateLabelBreaksItsOrbit) {
  // A label naming only x1 distinguishes node1; node2/node3 stay symmetric.
  const SymmetryGroup group =
      detect_symmetries(compile(replicated(3, 2.0, 3.0, true)));
  ASSERT_FALSE(group.trivial());
  ASSERT_EQ(group.orbits().size(), 1u);
  EXPECT_EQ(group.orbits()[0].blocks.size(), 2u);
}

TEST(Symmetry, CanonicalizeIsIdempotentAndOrbitConstant) {
  const CompiledModel model = compile(replicated(3));
  const SymmetryGroup group = detect_symmetries(model);
  ASSERT_FALSE(group.trivial());
  // Variable order: g, x1, x2, x3.
  CanonScratch scratch;
  std::vector<int32_t> a = {1, 1, 0, 1};
  std::vector<int32_t> b = {1, 0, 1, 1};  // same orbit: permuted node values
  std::vector<int32_t> c = {1, 1, 1, 0};
  group.canonicalize(a, scratch);
  group.canonicalize(b, scratch);
  group.canonicalize(c, scratch);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, c);
  std::vector<int32_t> again = a;
  group.canonicalize(again, scratch);
  EXPECT_EQ(again, a);  // idempotent
  // The asymmetric gateway variable is never moved.
  EXPECT_EQ(a[0], 1);
}

TEST(Symmetry, InvariantAcceptsSymmetricRejectsAsymmetric) {
  const CompiledModel model = compile(replicated(3));
  const SymmetryGroup group = detect_symmetries(model);
  const auto var = [&](const std::string& name) {
    for (uint32_t i = 0; i < model.variables.size(); ++i) {
      if (model.variables[i].name == name) return Expr::var_ref(i, name);
    }
    ADD_FAILURE() << "unknown variable " << name;
    return Expr::literal(0);
  };
  const Expr all_up = (var("x1") == Expr::literal(1)) &&
                      (var("x2") == Expr::literal(1)) &&
                      (var("x3") == Expr::literal(1));
  const Expr gw_only = var("g") == Expr::literal(2);
  const Expr first_only = var("x1") == Expr::literal(1);
  EXPECT_TRUE(group.invariant(all_up));
  EXPECT_TRUE(group.invariant(gw_only));
  EXPECT_FALSE(group.invariant(first_only));
}

TEST(Symmetry, CanonicalKeyFlattensBooleanNotArithmetic) {
  const Expr a = Expr::ident("a");
  const Expr b = Expr::ident("b");
  const Expr c = Expr::ident("c");
  EXPECT_EQ(canonical_expr_key((a && b) && c),
            canonical_expr_key(c && (b && a)));
  EXPECT_EQ(canonical_expr_key(a || (b || c)),
            canonical_expr_key((c || a) || b));
  EXPECT_NE(canonical_expr_key(a && b), canonical_expr_key(a || b));
  // FP arithmetic is order-sensitive; the key must not reorder it.
  EXPECT_NE(canonical_expr_key(a + b), canonical_expr_key(b + a));
}

TEST(Symmetry, SubstituteVariablesRewritesIndices) {
  const Expr swapped =
      substitute_variables(Expr::var_ref(0, "a") + Expr::var_ref(1, "b"), {1, 0});
  EXPECT_EQ(canonical_expr_key(swapped),
            canonical_expr_key(Expr::var_ref(1, "a") + Expr::var_ref(0, "b")));
}

TEST(Symmetry, ReducedExplorationCountsMultisets) {
  // Full space: 3 gateway values x 2^4 node flags = 48 states. Quotient:
  // 3 x multisets of 4 binary flags = 3 * 5 = 15.
  const auto compiled =
      std::make_shared<const CompiledModel>(compile(replicated(4)));
  ExploreOptions full_options;
  full_options.reduction = SymmetryReduction::kOff;
  ExploreOptions reduced_options;
  reduced_options.reduction = SymmetryReduction::kOn;
  const StateSpace full = explore(compiled, full_options);
  const StateSpace reduced = explore(compiled, reduced_options);
  EXPECT_FALSE(full.reduced());
  EXPECT_TRUE(reduced.reduced());
  EXPECT_EQ(full.state_count(), 48u);
  EXPECT_EQ(reduced.state_count(), 15u);
  // explore() treats reduction auto as off; only csl::apply_plan turns it on.
  EXPECT_FALSE(explore(compiled).reduced());
  // The quotient preserves the symmetric label's exit rate structure: total
  // outgoing rate from the initial (all-down) state is unchanged because the
  // lumped transition aggregates the four symmetric up-moves.
  const auto row_sum = [](const StateSpace& space) {
    double sum = 0;
    for (const double v : space.rates().row_values(space.initial_state())) {
      sum += v;
    }
    return sum;
  };
  EXPECT_DOUBLE_EQ(row_sum(full), row_sum(reduced));
}

TEST(Symmetry, ReducedSpaceRejectsNonInvariantQueries) {
  const auto compiled =
      std::make_shared<const CompiledModel>(compile(replicated(3)));
  ExploreOptions options;
  options.reduction = SymmetryReduction::kOn;
  const StateSpace space = explore(compiled, options);
  ASSERT_TRUE(space.reduced());
  // The symmetric label is answerable on the quotient.
  const std::vector<bool> mask = space.label_mask("any_up");
  EXPECT_EQ(std::count(mask.begin(), mask.end(), true),
            static_cast<long>(space.state_count() - 3));
  // A query naming one replica is representative-dependent: typed error.
  uint32_t x1 = 0;
  for (uint32_t i = 0; i < compiled->variables.size(); ++i) {
    if (compiled->variables[i].name == "x1") x1 = i;
  }
  try {
    space.satisfying(Expr::var_ref(x1, "x1") == Expr::literal(1));
    FAIL() << "expected ModelError for a non-invariant query";
  } catch (const ModelError& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("not invariant"), std::string::npos);
    // The fix it names must still exist: the CLI switch, not a removed store.
    EXPECT_NE(message.find("--reduction off"), std::string::npos) << message;
  }
}

TEST(Symmetry, RewardVectorsSurviveReduction) {
  // Rewards over symmetric guards are orbit-constant by construction, so the
  // quotient serves them without an invariance gate.
  ModelBuilder b;
  std::vector<RewardItem> items;
  for (int i = 1; i <= 3; ++i) {
    const std::string x = "x" + std::to_string(i);
    auto& m = b.module("node" + std::to_string(i));
    m.variable(x, 0, 1, 0);
    m.command(Expr::ident(x) == Expr::literal(0), Expr::literal(2.0),
              {{x, Expr::literal(1)}});
    m.command(Expr::ident(x) == Expr::literal(1), Expr::literal(3.0),
              {{x, Expr::literal(0)}});
    items.push_back({Expr::ident(x) == Expr::literal(1), Expr::literal(1.0)});
  }
  b.rewards("up_count", std::move(items));
  const auto compiled = std::make_shared<const CompiledModel>(compile(b.build()));
  ExploreOptions options;
  options.reduction = SymmetryReduction::kOn;
  const StateSpace space = explore(compiled, options);
  ASSERT_TRUE(space.reduced());
  ASSERT_EQ(space.state_count(), 4u);  // multisets of 3 binary flags
  const std::vector<double> rewards = space.reward_vector("up_count");
  std::vector<double> sorted = rewards;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, (std::vector<double>{0.0, 1.0, 2.0, 3.0}));
}

}  // namespace
}  // namespace autosec::symbolic
