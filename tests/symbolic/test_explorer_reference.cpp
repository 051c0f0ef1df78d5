// Differential test of the explorer against an independent reference
// implementation: for small randomly generated guarded-command models, the
// reference enumerates the FULL variable cuboid, evaluates every command in
// every valuation, and builds the reachable fragment by naive fixpoint. The
// BFS explorer must produce exactly the same reachable set and rates (ctmc)
// or per-action distributions (mdp). Some seeds pad the model with unused
// full-range variables, so its packed state spans two 64-bit words.
#include <gtest/gtest.h>

#include <climits>
#include <map>
#include <random>
#include <set>

#include "symbolic/builder.hpp"
#include "symbolic/explorer.hpp"
#include "symbolic/state_store.hpp"

namespace autosec::symbolic {
namespace {

struct ReferenceResult {
  // valuation -> (successor valuation -> total rate)
  std::map<std::vector<int32_t>, std::map<std::vector<int32_t>, double>> transitions;
  std::set<std::vector<int32_t>> reachable;
};

/// Padding variables span (nearly) the whole int32 range and no command
/// touches them, so the cuboid pins them at their initial value.
bool is_padding(const CompiledVariable& var) {
  return static_cast<int64_t>(var.high) - var.low > 16;
}

/// Every valuation of the model's variables (padding pinned at init).
std::vector<std::vector<int32_t>> full_cuboid(const CompiledModel& model) {
  std::vector<std::vector<int32_t>> cuboid = {{}};
  for (const CompiledVariable& var : model.variables) {
    const int32_t low = is_padding(var) ? var.init : var.low;
    const int32_t high = is_padding(var) ? var.init : var.high;
    std::vector<std::vector<int32_t>> next;
    for (const auto& prefix : cuboid) {
      for (int64_t v = low; v <= high; ++v) {  // 64-bit: high may be INT32_MAX
        auto extended = prefix;
        extended.push_back(static_cast<int32_t>(v));
        next.push_back(std::move(extended));
      }
    }
    cuboid = std::move(next);
  }
  return cuboid;
}

std::vector<int32_t> apply(const std::vector<int32_t>& state,
                           const std::vector<std::pair<uint32_t, Expr>>& assignments) {
  auto successor = state;
  for (const auto& [index, expr] : assignments) {
    successor[index] = static_cast<int32_t>(expr.evaluate(state).as_int());
  }
  return successor;
}

/// valuation -> the valuations it moves to
using Edges = std::map<std::vector<int32_t>, std::vector<std::vector<int32_t>>>;

/// Naive reachability fixpoint from the initial valuation over `edges`.
std::set<std::vector<int32_t>> reachable_from(const CompiledModel& model,
                                              const Edges& edges) {
  std::set<std::vector<int32_t>> reachable = {model.initial_state()};
  bool changed = true;
  while (changed) {
    changed = false;
    for (const auto& [from, successors] : edges) {
      if (reachable.count(from) == 0) continue;
      for (const auto& successor : successors) {
        if (reachable.insert(successor).second) changed = true;
      }
    }
  }
  return reachable;
}

/// Add unused padding variable `index` (0..2). Their ranges cover (nearly)
/// all of int32, 32 + 31 + 32 bits: with pads 0 and 1 declared before the
/// model's own variables and pad 2 after them, the packed state needs two
/// 64-bit words and the model's fields straddle the word boundary.
void add_padding(ModuleBuilder& module, int index) {
  struct Pad {
    int32_t low, high, init;
  };
  static constexpr Pad kPads[] = {
      {INT32_MIN, INT32_MAX, -123456789}, {0, INT32_MAX, INT32_MAX}, {-5, INT32_MAX, 7}};
  const Pad& pad = kPads[index];
  module.variable("pad" + std::to_string(index), pad.low, pad.high, pad.init);
}

ReferenceResult reference_explore(const CompiledModel& model) {
  const std::vector<std::vector<int32_t>> cuboid = full_cuboid(model);

  ReferenceResult result;
  for (const auto& state : cuboid) {
    for (const CompiledCommand& command : model.commands) {
      if (!command.guard.evaluate_bool(state)) continue;
      const double rate = command.rate.evaluate_number(state);
      if (rate <= 0.0) continue;
      const auto successor = apply(state, command.assignments);
      if (successor == state) continue;
      result.transitions[state][successor] += rate;
    }
  }

  Edges edges;
  for (const auto& [from, successors] : result.transitions) {
    for (const auto& [to, rate] : successors) edges[from].push_back(to);
  }
  result.reachable = reachable_from(model, edges);
  return result;
}

Model random_model(uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> var_count(1, 3);
  std::uniform_int_distribution<int> range(1, 3);
  std::uniform_int_distribution<int> command_count(2, 6);
  std::uniform_real_distribution<double> rate(0.1, 10.0);
  std::uniform_int_distribution<int> coin(0, 1);

  ModelBuilder builder;
  auto& module = builder.module("m");
  const bool padded = seed % 3 == 0;
  if (padded) {
    add_padding(module, 0);
    add_padding(module, 1);
  }
  const int vars = var_count(rng);
  std::vector<std::string> names;
  std::vector<int> highs;
  for (int v = 0; v < vars; ++v) {
    const std::string name = "v" + std::to_string(v);
    const int high = range(rng);
    module.variable(name, 0, high, 0);
    names.push_back(name);
    highs.push_back(high);
  }
  const int commands = command_count(rng);
  for (int c = 0; c < commands; ++c) {
    const int target = std::uniform_int_distribution<int>(0, vars - 1)(rng);
    const Expr x = Expr::ident(names[target]);
    const bool up = coin(rng) == 1;
    // Guard: bound check on the target, plus an optional condition on
    // another variable.
    Expr guard = up ? (x < Expr::literal(static_cast<int64_t>(highs[target])))
                    : (x > Expr::literal(0));
    if (vars > 1 && coin(rng) == 1) {
      const int other = std::uniform_int_distribution<int>(0, vars - 1)(rng);
      guard = std::move(guard) &&
              (Expr::ident(names[other]) <=
               Expr::literal(static_cast<int64_t>(highs[other] / 2 + 1)));
    }
    const Expr update = up ? x + Expr::literal(1) : x - Expr::literal(1);
    module.command(std::move(guard), Expr::literal(rate(rng)),
                   {{names[target], update}});
  }
  if (padded) add_padding(module, 2);
  return builder.build();
}

class ExplorerDifferential : public ::testing::TestWithParam<uint32_t> {};

TEST_P(ExplorerDifferential, MatchesReferenceImplementation) {
  const CompiledModel compiled = compile(random_model(GetParam()));
  const ReferenceResult reference = reference_explore(compiled);
  const StateSpace space = explore(compiled);
  if (GetParam() % 3 == 0) {
    ASSERT_EQ(StateLayout(compiled.variables).words(), 2u);
  }

  ASSERT_EQ(space.state_count(), reference.reachable.size());

  // Map explorer indices to valuations and compare rate structure.
  std::map<std::vector<int32_t>, size_t> index_of;
  for (size_t s = 0; s < space.state_count(); ++s) {
    const auto& values = space.state_values(s);
    EXPECT_TRUE(reference.reachable.count(values))
        << "explorer found unreachable state " << space.state_to_string(s);
    index_of[values] = s;
  }

  for (const auto& state : reference.reachable) {
    const size_t s = index_of.at(state);
    const auto it = reference.transitions.find(state);
    const size_t expected_degree =
        it == reference.transitions.end() ? 0 : it->second.size();
    ASSERT_EQ(space.rates().row_columns(s).size(), expected_degree)
        << space.state_to_string(s);
    if (it == reference.transitions.end()) continue;
    for (const auto& [successor, expected_rate] : it->second) {
      const size_t t = index_of.at(successor);
      EXPECT_NEAR(space.rates().at(s, t), expected_rate, 1e-12);
    }
  }

  // The rows the explorer writes directly equal, bit for bit, what a
  // CsrBuilder builds from the same firings added in the same order.
  linalg::CsrBuilder builder(space.state_count(), space.state_count());
  for (size_t s = 0; s < space.state_count(); ++s) {
    const std::vector<int32_t> state = space.state_values(s);
    for (const CompiledCommand& command : compiled.commands) {
      if (!command.guard.evaluate_bool(state)) continue;
      const double rate = command.rate.evaluate_number(state);
      const auto successor = apply(state, command.assignments);
      if (rate > 0.0 && successor != state) builder.add(s, index_of.at(successor), rate);
    }
  }
  const linalg::CsrMatrix built = std::move(builder).build();
  ASSERT_EQ(built.nonzeros(), space.rates().nonzeros());
  for (size_t s = 0; s < space.state_count(); ++s) {
    const auto columns = space.rates().row_columns(s);
    const auto values = space.rates().row_values(s);
    ASSERT_EQ(std::vector<uint32_t>(columns.begin(), columns.end()),
              std::vector<uint32_t>(built.row_columns(s).begin(), built.row_columns(s).end()));
    for (size_t k = 0; k < values.size(); ++k) ASSERT_EQ(values[k], built.row_values(s)[k]);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExplorerDifferential, ::testing::Range(1u, 25u));

/// One action of the mdp reference: its label and merged, normalized
/// successor distribution.
struct MdpAction {
  std::string label;
  std::map<std::vector<int32_t>, double> distribution;
};

struct MdpReference {
  /// valuation -> its actions, in command order (a deadlock gets one
  /// self-loop action)
  std::map<std::vector<int32_t>, std::vector<MdpAction>> actions;
  std::set<std::vector<int32_t>> reachable;
};

MdpReference reference_explore_mdp(const CompiledModel& model) {
  MdpReference result;
  Edges edges;
  for (const auto& state : full_cuboid(model)) {
    std::vector<MdpAction>& actions = result.actions[state];
    for (const CompiledCommand& command : model.commands) {
      if (!command.guard.evaluate_bool(state)) continue;
      MdpAction action{command.action, {}};
      double total = 0.0;
      for (const CompiledBranch& branch : command.branches) {
        const double probability = branch.probability.evaluate_number(state);
        total += probability;
        action.distribution[apply(state, branch.assignments)] += probability;
      }
      for (auto& [successor, probability] : action.distribution) probability /= total;
      actions.push_back(std::move(action));
    }
    if (actions.empty()) actions.push_back({"(self-loop)", {{state, 1.0}}});
    for (const MdpAction& action : actions) {
      for (const auto& [successor, probability] : action.distribution) {
        edges[state].push_back(successor);
      }
    }
  }
  result.reachable = reachable_from(model, edges);
  return result;
}

/// Random mdp: 1-3 variables and 2-5 commands of 2-3 branches, each branch
/// setting its command's target variable to a constant or leaving the state
/// as it is, so branches often share a successor. Every guard requires
/// v0 < high; the "halt" command sets v0 to high through two branches (one
/// merged successor), so every model reaches deadlock states.
Model random_mdp_model(uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> var_count(1, 3);
  std::uniform_int_distribution<int> range(1, 3);
  std::uniform_int_distribution<int> command_count(2, 5);
  std::uniform_int_distribution<int> branch_count(2, 3);
  std::uniform_int_distribution<int> weight(1, 4);
  std::uniform_int_distribution<int> coin(0, 1);

  ModelBuilder builder;
  builder.type(ModelType::kMdp);
  auto& module = builder.module("m");
  const bool padded = seed % 3 == 0;
  if (padded) {
    add_padding(module, 0);
    add_padding(module, 1);
  }
  const int vars = var_count(rng);
  std::vector<std::string> names;
  std::vector<int> highs;
  for (int v = 0; v < vars; ++v) {
    names.push_back("v" + std::to_string(v));
    highs.push_back(range(rng));
    module.variable(names.back(), 0, highs.back(), 0);
  }
  const Expr alive = Expr::ident(names[0]) < Expr::literal(static_cast<int64_t>(highs[0]));

  const int commands = command_count(rng);
  for (int c = 0; c < commands; ++c) {
    const int target = std::uniform_int_distribution<int>(0, vars - 1)(rng);
    Expr guard = alive;
    if (vars > 1 && coin(rng) == 1) {
      const int other = std::uniform_int_distribution<int>(0, vars - 1)(rng);
      guard = std::move(guard) && (Expr::ident(names[other]) <=
                                   Expr::literal(static_cast<int64_t>(highs[other] / 2)));
    }
    const int branches = branch_count(rng);
    std::vector<int> weights;
    int weight_sum = 0;
    for (int b = 0; b < branches; ++b) {
      weights.push_back(weight(rng));
      weight_sum += weights.back();
    }
    std::vector<CommandBranch> outcomes;
    std::vector<Assignment> first_update;
    for (int b = 0; b < branches; ++b) {
      std::vector<Assignment> update;
      if (b == 2 && coin(rng) == 1) {
        update = first_update;  // lands where branch 0 lands
      } else if (coin(rng) == 1) {
        const int value = std::uniform_int_distribution<int>(0, highs[target])(rng);
        update = {{names[target], Expr::literal(static_cast<int64_t>(value))}};
      }
      if (b == 0) first_update = update;
      outcomes.push_back({Expr::literal(static_cast<double>(weights[b]) / weight_sum),
                          std::move(update)});
    }
    module.choice("a" + std::to_string(c), std::move(guard), std::move(outcomes));
  }
  const std::vector<Assignment> halt = {
      {names[0], Expr::literal(static_cast<int64_t>(highs[0]))}};
  module.choice("halt", alive,
                {{Expr::literal(0.25), halt}, {Expr::literal(0.5), {}},
                 {Expr::literal(0.25), halt}});
  if (padded) add_padding(module, 2);
  return builder.build();
}

class MdpExplorerDifferential : public ::testing::TestWithParam<uint32_t> {};

TEST_P(MdpExplorerDifferential, MatchesReferenceImplementation) {
  const CompiledModel compiled = compile(random_mdp_model(GetParam()));
  const MdpReference reference = reference_explore_mdp(compiled);
  const StateSpace space = explore(compiled);
  if (GetParam() % 3 == 0) {
    ASSERT_EQ(StateLayout(compiled.variables).words(), 2u);
  }
  const mdp::Mdp& flat = space.mdp();

  ASSERT_EQ(space.state_count(), reference.reachable.size());
  ASSERT_EQ(flat.state_offsets.size(), space.state_count() + 1);
  EXPECT_EQ(flat.state_offsets.front(), 0u);
  EXPECT_EQ(flat.state_offsets.back(), flat.row_count());
  ASSERT_EQ(flat.state_of_row.size(), flat.row_count());
  ASSERT_EQ(flat.action_labels.size(), flat.row_count());
  EXPECT_EQ(space.transition_count(), flat.transitions.nonzeros());

  std::map<std::vector<int32_t>, size_t> index_of;
  for (size_t s = 0; s < space.state_count(); ++s) {
    const auto values = space.state_values(s);
    EXPECT_TRUE(reference.reachable.count(values))
        << "explorer found unreachable state " << space.state_to_string(s);
    index_of[values] = s;
  }

  size_t deadlocks = 0;
  for (size_t s = 0; s < space.state_count(); ++s) {
    const std::vector<MdpAction>& expected = reference.actions.at(space.state_values(s));
    const auto [first, last] = flat.actions_of(static_cast<uint32_t>(s));
    ASSERT_EQ(last - first, expected.size()) << space.state_to_string(s);
    for (size_t k = 0; k < expected.size(); ++k) {
      const uint32_t row = first + static_cast<uint32_t>(k);
      EXPECT_EQ(flat.state_of_row[row], s);
      EXPECT_EQ(flat.action_labels[row], expected[k].label);
      ASSERT_EQ(flat.transitions.row_columns(row).size(), expected[k].distribution.size())
          << space.state_to_string(s) << " action " << expected[k].label;
      for (const auto& [successor, probability] : expected[k].distribution) {
        EXPECT_NEAR(flat.transitions.at(row, index_of.at(successor)), probability, 1e-12);
      }
    }
    if (expected.front().label == "(self-loop)") ++deadlocks;
  }
  EXPECT_GT(deadlocks, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MdpExplorerDifferential, ::testing::Range(1u, 25u));

}  // namespace
}  // namespace autosec::symbolic
