// Seeded random generators for differential testing: PRISM-subset symbolic
// models (bounded variables, guarded commands with rates, labels, reward
// structures) and .arch architectures. Everything is drawn from one
// std::mt19937_64 stream, so a seed fully determines the output — a failing
// differential iteration is reproduced by re-running its seed.
//
// The model distribution is biased toward the shape of the automotive
// transformation's output (counter variables moved up and down by guarded
// exploit/patch-style commands) but also covers multi-assignment updates,
// reset commands, action labels, constants referenced from rates, formulas
// referenced from guards, and dead (unsatisfiable-guard) commands. Sizes are
// kept small enough for the dense oracle (state_budget caps the variable
// range product).
#pragma once

#include <cstdint>
#include <vector>

#include "automotive/architecture.hpp"
#include "mdp/mdp.hpp"
#include "symbolic/model.hpp"

namespace autosec::testing {

struct RandomModelOptions {
  size_t max_modules = 3;
  size_t max_variables = 5;  ///< across all modules (at least 1 is generated)
  int32_t max_range = 2;     ///< variable domain is [0 .. high], high <= this
  size_t max_constants = 3;
  size_t max_labels = 3;
  size_t max_reward_structs = 2;
  /// Cap on the product of variable domain sizes (the upper bound of the
  /// reachable state count); keeps the dense oracle feasible.
  size_t state_budget = 144;
  double min_rate = 0.05;
  double max_rate = 25.0;
};

/// Generate a valid (compilable, explorable) random model. Rates are
/// quantized to 6 significant digits so every literal round-trips exactly
/// through the writer and parser.
symbolic::Model random_model(uint64_t seed, const RandomModelOptions& options = {});

/// `count` random resolved expressions over the variables of `model`, for
/// the compiled-program-vs-tree differential family: every operator and
/// built-in function, int/double/bool operands, divisions and mods by
/// variables (zero in some states), `&`/`|`/`?:` that skip such operands in
/// some states, reused and re-built common subexpressions, and an occasional
/// operand of the wrong type (a type error or a mixed-type `?:`).
std::vector<symbolic::Expr> random_expressions(uint64_t seed,
                                               const symbolic::CompiledModel& model,
                                               size_t count);

/// random_model() as an mdp model: each command becomes a choice whose
/// branches take its update with a probability p and stay put with 1 - p,
/// p a literal or an expression over the command's variable.
symbolic::Model random_mdp_model(uint64_t seed, const RandomModelOptions& options = {});

struct RandomArchitectureOptions {
  size_t max_buses = 2;
  size_t max_ecus = 3;
  size_t max_messages = 2;
  /// Attach FailureSpecs to some ECUs (exercises the reliability modules).
  bool allow_failures = true;
};

/// Generate a valid (validate()-clean) random architecture whose transformed
/// models stay small. All rates are quantized to 6 significant digits, so
/// write_architecture/parse_architecture round-trips are exact.
automotive::Architecture random_architecture(
    uint64_t seed, const RandomArchitectureOptions& options = {});

/// Sizes are kept tiny on purpose: the differential oracle enumerates every
/// memoryless scheduler, so the strategy count (product of per-state action
/// counts) must stay enumerable.
struct RandomMdpOptions {
  size_t max_states = 8;    ///< at least 2 are generated
  size_t max_actions = 3;   ///< rows per state, at least 1
  size_t max_branches = 3;  ///< successors per row, at least 1
  /// Probability of marking each non-initial state as a target (at least one
  /// state is always a target).
  double target_chance = 0.25;
};

struct RandomMdp {
  mdp::Mdp model;
  std::vector<bool> target;
};

/// Generate a validate()-clean flattened MDP plus a nonempty target set.
/// Branch probabilities are small integer ratios w/W, so row sums are exact
/// to well within the Mdp::validate() tolerance.
RandomMdp random_mdp(uint64_t seed, const RandomMdpOptions& options = {});

}  // namespace autosec::testing
