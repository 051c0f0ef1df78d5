#include "testing/random_model.hpp"

#include <algorithm>
#include <cmath>
#include <initializer_list>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "util/numeric.hpp"
#include "util/strings.hpp"

namespace autosec::testing {

namespace {

using automotive::Architecture;
using automotive::Bus;
using automotive::BusKind;
using automotive::Ecu;
using automotive::FailureSpec;
using automotive::GuardianSpec;
using automotive::Interface;
using automotive::Message;
using automotive::Protection;
using automotive::SwitchSpec;
using symbolic::BinaryOp;
using symbolic::Command;
using symbolic::ConstantDecl;
using symbolic::Expr;
using symbolic::FormulaDecl;
using symbolic::LabelDecl;
using symbolic::Model;
using symbolic::Module;
using symbolic::RewardItem;
using symbolic::RewardStructDecl;
using symbolic::Value;
using symbolic::VariableDecl;

/// SplitMix64 scrambler: spreads consecutive seeds over the full state space
/// before they feed the mt19937_64, so seed and seed+1 give unrelated runs.
uint64_t scramble(uint64_t seed) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

class Rng {
 public:
  explicit Rng(uint64_t seed) : engine_(scramble(seed)) {}

  size_t index(size_t count) {  // uniform in [0, count)
    return std::uniform_int_distribution<size_t>(0, count - 1)(engine_);
  }
  int32_t int_in(int32_t low, int32_t high) {
    return std::uniform_int_distribution<int32_t>(low, high)(engine_);
  }
  bool chance(double probability) {
    return std::uniform_real_distribution<double>(0.0, 1.0)(engine_) < probability;
  }
  /// Log-uniform rate in [low, high], quantized to 6 significant digits so
  /// the 12-digit .arch writer and the 17-digit model writer both round-trip
  /// it exactly.
  double rate(double low, double high) {
    const double u = std::uniform_real_distribution<double>(0.0, 1.0)(engine_);
    const double raw = low * std::pow(high / low, u);
    return *util::parse_double(util::format_sig(raw, 6));
  }

 private:
  std::mt19937_64 engine_;
};

struct VariableInfo {
  std::string name;
  size_t module = 0;
  int32_t high = 0;
};

/// Random comparison over one variable, e.g. (v2 <= 1).
Expr random_comparison(Rng& rng, const std::vector<VariableInfo>& variables) {
  const VariableInfo& var = variables[rng.index(variables.size())];
  const Expr lhs = Expr::ident(var.name);
  const Expr rhs = Expr::literal(rng.int_in(0, var.high));
  constexpr BinaryOp kOps[] = {BinaryOp::kEq, BinaryOp::kNe, BinaryOp::kLt,
                               BinaryOp::kLe, BinaryOp::kGt, BinaryOp::kGe};
  return Expr::binary(kOps[rng.index(6)], lhs, rhs);
}

/// Random boolean state formula: one comparison, or an and/or of two, with an
/// occasional negation on top.
Expr random_state_formula(Rng& rng, const std::vector<VariableInfo>& variables) {
  Expr expr = random_comparison(rng, variables);
  if (rng.chance(0.5)) {
    const Expr other = random_comparison(rng, variables);
    expr = rng.chance(0.5) ? (expr && other) : (expr || other);
  }
  if (rng.chance(0.15)) expr = !expr;
  return expr;
}

/// Random rate expression: a literal, a constant reference, or a scaled
/// constant.
Expr random_rate_expr(Rng& rng, const std::vector<std::string>& constants,
                      const RandomModelOptions& options) {
  if (!constants.empty() && rng.chance(0.4)) {
    const Expr constant = Expr::ident(constants[rng.index(constants.size())]);
    if (rng.chance(0.3)) return constant * Expr::literal(rng.rate(0.1, 4.0));
    return constant;
  }
  return Expr::literal(rng.rate(options.min_rate, options.max_rate));
}

}  // namespace

Model random_model(uint64_t seed, const RandomModelOptions& options) {
  Rng rng(seed);
  Model model;

  // Constants: rate-valued, referenced from some command rates (and the
  // override machinery in the differential harness).
  const size_t constant_count = 1 + rng.index(options.max_constants);
  std::vector<std::string> constant_names;
  for (size_t i = 0; i < constant_count; ++i) {
    ConstantDecl decl;
    decl.name = "c" + std::to_string(i);
    decl.type = ConstantDecl::Type::kDouble;
    decl.value = Expr::literal(rng.rate(options.min_rate, options.max_rate));
    constant_names.push_back(decl.name);
    model.constants.push_back(std::move(decl));
  }

  // Variables, distributed round-robin over the modules, with the domain
  // product capped by the state budget.
  const size_t module_count = 1 + rng.index(options.max_modules);
  std::vector<VariableInfo> variables;
  size_t budget = options.state_budget;
  const size_t variable_count = 1 + rng.index(options.max_variables);
  for (size_t i = 0; i < variable_count; ++i) {
    int32_t high = rng.int_in(1, options.max_range);
    while (high > 1 && budget / (high + 1) < 1) --high;
    if (budget / (high + 1) < 1) break;
    budget /= (high + 1);
    variables.push_back({"v" + std::to_string(i), i % module_count, high});
  }

  for (size_t m = 0; m < module_count; ++m) {
    model.modules.push_back(Module{"m" + std::to_string(m), {}, {}});
  }
  for (const VariableInfo& var : variables) {
    VariableDecl decl;
    decl.name = var.name;
    decl.low = Expr::literal(0);
    decl.high = Expr::literal(var.high);
    // Bias the initial state toward 0 (the transformation's un-exploited
    // state) but cover nonzero starts too.
    decl.init = Expr::literal(rng.chance(0.75) ? 0 : rng.int_in(0, var.high));
    model.modules[var.module].variables.push_back(std::move(decl));
  }

  // One optional formula, usable as a guard conjunct.
  std::string formula_name;
  if (rng.chance(0.5)) {
    FormulaDecl formula;
    formula.name = "f0";
    formula.body = random_state_formula(rng, variables);
    formula_name = formula.name;
    model.formulas.push_back(std::move(formula));
  }

  // Commands: per variable an increment ("exploit") and, usually, a decrement
  // ("patch"), each optionally strengthened by an extra conjunct; plus
  // occasional reset and two-variable commands per module.
  size_t action_counter = 0;
  auto guard_extra = [&](Expr guard) {
    if (rng.chance(0.35)) {
      Expr extra = !formula_name.empty() && rng.chance(0.3)
                       ? Expr::ident(formula_name)
                       : random_comparison(rng, variables);
      guard = guard && extra;
    }
    return guard;
  };
  auto maybe_action = [&]() -> std::string {
    // Unique names keep the model inside the unsynchronized subset.
    if (rng.chance(0.2)) return "act" + std::to_string(action_counter++);
    return "";
  };

  for (const VariableInfo& var : variables) {
    const Expr v = Expr::ident(var.name);
    Command up;
    up.action = maybe_action();
    up.guard = guard_extra(v < Expr::literal(var.high));
    up.rate = random_rate_expr(rng, constant_names, options);
    up.assignments.push_back({var.name, v + Expr::literal(1)});
    model.modules[var.module].commands.push_back(std::move(up));

    if (rng.chance(0.9)) {
      Command down;
      down.action = maybe_action();
      down.guard = guard_extra(v > Expr::literal(0));
      down.rate = random_rate_expr(rng, constant_names, options);
      down.assignments.push_back({var.name, v - Expr::literal(1)});
      model.modules[var.module].commands.push_back(std::move(down));
    }
    if (rng.chance(0.25)) {
      Command reset;
      reset.action = maybe_action();
      reset.guard = v > Expr::literal(0);
      reset.rate = random_rate_expr(rng, constant_names, options);
      reset.assignments.push_back({var.name, Expr::literal(0)});
      model.modules[var.module].commands.push_back(std::move(reset));
    }
  }
  // Two-variable simultaneous updates inside one module.
  for (size_t m = 0; m < module_count; ++m) {
    std::vector<const VariableInfo*> local;
    for (const VariableInfo& var : variables) {
      if (var.module == m) local.push_back(&var);
    }
    if (local.size() >= 2 && rng.chance(0.5)) {
      const VariableInfo& a = *local[0];
      const VariableInfo& b = *local[1];
      Command both;
      both.action = maybe_action();
      both.guard = (Expr::ident(a.name) < Expr::literal(a.high)) &&
                   (Expr::ident(b.name) > Expr::literal(0));
      both.rate = random_rate_expr(rng, constant_names, options);
      both.assignments.push_back({a.name, Expr::ident(a.name) + Expr::literal(1)});
      both.assignments.push_back({b.name, Expr::ident(b.name) - Expr::literal(1)});
      model.modules[m].commands.push_back(std::move(both));
    }
  }

  // Labels over the state space (targets for reachability properties).
  const size_t label_count = 1 + rng.index(options.max_labels);
  for (size_t i = 0; i < label_count; ++i) {
    LabelDecl label;
    label.name = "l" + std::to_string(i);
    label.condition = random_state_formula(rng, variables);
    model.labels.push_back(std::move(label));
  }

  // Reward structures with guard:value items.
  const size_t reward_count = 1 + rng.index(options.max_reward_structs);
  for (size_t i = 0; i < reward_count; ++i) {
    RewardStructDecl rewards;
    rewards.name = "r" + std::to_string(i);
    const size_t item_count = 1 + rng.index(3);
    for (size_t k = 0; k < item_count; ++k) {
      RewardItem item;
      item.guard = rng.chance(0.4) ? Expr::truth() : random_state_formula(rng, variables);
      item.value = Expr::literal(rng.rate(0.1, 5.0));
      rewards.items.push_back(std::move(item));
    }
    model.rewards.push_back(std::move(rewards));
  }

  return model;
}

namespace {

/// Random expressions of a requested type over the variables of one model.
class ExpressionGenerator {
 public:
  enum class Kind { kBool, kInt, kDouble };

  ExpressionGenerator(Rng& rng, const symbolic::CompiledModel& model)
      : rng_(rng), model_(model) {}

  Expr make(Kind kind, int depth) {
    // Now and then an operand of another type: a type error, or an ite whose
    // branches differ in type.
    if (depth < 3 && rng_.chance(0.04)) kind = static_cast<Kind>(rng_.index(3));
    std::vector<Expr>& pool = pools_[static_cast<size_t>(kind)];
    if (!pool.empty() && rng_.chance(0.15)) return pool[rng_.index(pool.size())];
    Expr expr = depth <= 0 || rng_.chance(0.25) ? leaf(kind) : inner(kind, depth - 1);
    pool.push_back(expr);
    return expr;
  }

 private:
  Expr var() {
    const size_t v = rng_.index(model_.variables.size());
    return Expr::var_ref(static_cast<uint32_t>(v), model_.variables[v].name);
  }

  Expr leaf(Kind kind) {
    switch (kind) {
      case Kind::kBool: {
        if (rng_.chance(0.2)) return Expr::literal(rng_.chance(0.5));
        const BinaryOp op = comparison();
        const Expr lhs = var();
        return Expr::binary(op, lhs, Expr::literal(rng_.int_in(-1, 3)));
      }
      case Kind::kInt:
        // mod by a variable raises "mod by zero" where it is 0.
        if (rng_.chance(0.15)) {
          const Expr dividend = Expr::literal(rng_.int_in(1, 5));
          return Expr::call(symbolic::CallOp::kMod, {dividend, var()});
        }
        if (rng_.chance(0.6)) return var();
        return Expr::literal(rng_.int_in(-3, 5));
      case Kind::kDouble: {
        // Division by a variable raises "division by zero" where it is 0;
        // log(v - 1) is NaN or -inf in some states.
        if (rng_.chance(0.15)) {
          const Expr dividend = Expr::literal(rng_.int_in(1, 5));
          return dividend / var();
        }
        if (rng_.chance(0.1)) {
          return Expr::call(symbolic::CallOp::kLog, {var() - Expr::literal(1)});
        }
        constexpr double kValues[] = {0.5, 2.25, -1.5, 0.1, 3.0, 1e-3, 0.0, -0.0};
        return Expr::literal(kValues[rng_.index(8)]);
      }
    }
    return Expr::literal(0);
  }

  BinaryOp comparison() {
    constexpr BinaryOp kOps[] = {BinaryOp::kEq, BinaryOp::kNe, BinaryOp::kLt,
                                 BinaryOp::kLe, BinaryOp::kGt, BinaryOp::kGe};
    return kOps[rng_.index(6)];
  }

  Kind number() { return rng_.chance(0.5) ? Kind::kInt : Kind::kDouble; }

  /// Operands of the given kinds, drawn in order (a braced list sequences
  /// its elements; function arguments would leave the draws' order to the
  /// compiler).
  std::vector<Expr> operands(std::initializer_list<Kind> kinds, int depth) {
    std::vector<Expr> out;
    for (const Kind k : kinds) out.push_back(make(k, depth));
    return out;
  }

  Expr inner(Kind kind, int depth) {
    using symbolic::CallOp;
    using symbolic::UnaryOp;
    constexpr Kind B = Kind::kBool;
    constexpr Kind I = Kind::kInt;
    constexpr Kind D = Kind::kDouble;
    constexpr BinaryOp kArithmetic[] = {BinaryOp::kAdd, BinaryOp::kSub, BinaryOp::kMul};
    const size_t shape = rng_.index(kind == D ? 8 : 7);
    const bool flip = rng_.chance(0.5);
    switch (kind) {
      case Kind::kBool:
        switch (shape) {
          case 0: {
            const std::vector<Expr> e = operands({B, B}, depth);
            return e[0] && e[1];
          }
          case 1: {
            const std::vector<Expr> e = operands({B, B}, depth);
            return e[0] || e[1];
          }
          case 2: return !make(B, depth);
          case 3: {
            const std::vector<Expr> e = operands({B, B}, depth);
            return Expr::binary(flip ? BinaryOp::kImplies : BinaryOp::kIff, e[0], e[1]);
          }
          case 4: {
            const std::vector<Expr> e = operands({B, B, B}, depth);
            return Expr::ite(e[0], e[1], e[2]);
          }
          case 5: {
            const std::vector<Expr> e = operands({B, B}, depth);
            return Expr::binary(flip ? BinaryOp::kEq : BinaryOp::kNe, e[0], e[1]);
          }
          default: {
            const BinaryOp op = comparison();
            const std::vector<Expr> e = operands({number(), number()}, depth);
            return Expr::binary(op, e[0], e[1]);
          }
        }
      case Kind::kInt:
        switch (shape) {
          case 0:
          case 1: {
            const BinaryOp op = kArithmetic[rng_.index(3)];
            const std::vector<Expr> e = operands({I, I}, depth);
            return Expr::binary(op, e[0], e[1]);
          }
          case 2: return Expr::unary(UnaryOp::kMinus, make(I, depth));
          case 3:
            return Expr::call(flip ? CallOp::kMin : CallOp::kMax, operands({I, I}, depth));
          case 4:
            return Expr::call(flip ? CallOp::kFloor : CallOp::kCeil,
                              operands({number()}, depth));
          case 5: return Expr::call(CallOp::kMod, {make(I, depth), var()});
          default: {
            const std::vector<Expr> e = operands({B, I, I}, depth);
            return Expr::ite(e[0], e[1], e[2]);
          }
        }
      case Kind::kDouble:
        switch (shape) {
          case 0:
          case 1: {
            const BinaryOp op = kArithmetic[rng_.index(3)];
            const std::vector<Expr> e = operands({D, number()}, depth);
            return Expr::binary(op, e[0], e[1]);
          }
          case 2: {
            const std::vector<Expr> e = operands({number(), number()}, depth);
            return e[0] / e[1];
          }
          case 3:
            return Expr::call(CallOp::kPow,
                              {make(number(), depth), Expr::literal(rng_.int_in(-2, 3))});
          case 4:
            return Expr::call(CallOp::kLog, flip ? operands({number()}, depth)
                                                 : operands({number(), number()}, depth));
          case 5:
            return Expr::call(flip ? CallOp::kMin : CallOp::kMax,
                              operands({D, number()}, depth));
          case 6: return Expr::unary(UnaryOp::kMinus, make(D, depth));
          default: {
            const std::vector<Expr> e = operands({B, D, D}, depth);
            return Expr::ite(e[0], e[1], e[2]);
          }
        }
    }
    return leaf(kind);
  }

  Rng& rng_;
  const symbolic::CompiledModel& model_;
  std::vector<Expr> pools_[3];
};

}  // namespace

std::vector<Expr> random_expressions(uint64_t seed, const symbolic::CompiledModel& model,
                                     size_t count) {
  // A stream of its own, so the other generators' draws stay as they were.
  Rng rng(seed ^ 0x70726f6772616dULL);  // "program"
  std::vector<Expr> out;
  if (model.variables.empty()) return out;
  ExpressionGenerator generator(rng, model);
  const symbolic::SymbolScope scope;
  while (out.size() < count) {
    const auto kind = static_cast<ExpressionGenerator::Kind>(rng.index(3));
    const Expr expr = generator.make(kind, 1 + static_cast<int>(rng.index(4)));
    try {
      out.push_back(expr.resolve(scope));  // folds literal subtrees, as compile() does
    } catch (const symbolic::EvalError&) {
      // A literal subtree that always raises would fail compile(): skip it.
      out.push_back(Expr::literal(static_cast<int64_t>(out.size())));
    }
  }
  return out;
}

Model random_mdp_model(uint64_t seed, const RandomModelOptions& options) {
  Model model = random_model(seed, options);
  Rng rng(seed ^ 0x6d64705f6d6f64ULL);  // "mdp_mod"
  model.type = symbolic::ModelType::kMdp;
  for (Module& module : model.modules) {
    for (Command& command : module.commands) {
      symbolic::CommandBranch take;
      symbolic::CommandBranch stay;
      if (rng.chance(0.5) || command.assignments.empty()) {
        const double p = rng.int_in(1, 9) / 10.0;
        take.probability = Expr::literal(p);
        stay.probability = Expr::literal(1.0 - p);
      } else {
        // (v + 1) / (v + 2) and 1 / (v + 2): sums to 1 within rounding.
        const Expr v = Expr::ident(command.assignments.front().variable);
        take.probability = (v + Expr::literal(1)) / (v + Expr::literal(2));
        stay.probability = Expr::literal(1) / (v + Expr::literal(2));
      }
      take.assignments = std::move(command.assignments);
      command.branches = {std::move(take), std::move(stay)};
      command.assignments.clear();
    }
  }
  return model;
}

Architecture random_architecture(uint64_t seed,
                                 const RandomArchitectureOptions& options) {
  Rng rng(seed ^ 0xa5c3u);
  Architecture arch;
  arch.name = "Random architecture " + std::to_string(seed);

  const size_t bus_count = 1 + rng.index(options.max_buses);
  for (size_t i = 0; i < bus_count; ++i) {
    Bus bus;
    bus.name = "B" + std::to_string(i);
    const size_t kind = rng.index(10);
    if (kind < 4) {
      bus.kind = BusKind::kCan;
    } else if (kind < 6) {
      bus.kind = BusKind::kInternet;
    } else if (kind < 8) {
      bus.kind = BusKind::kFlexRay;
      bus.guardian = GuardianSpec{rng.rate(0.1, 2.0), rng.rate(1.0, 52.0)};
    } else {
      bus.kind = BusKind::kEthernet;
      bus.eth_switch = SwitchSpec{rng.rate(0.1, 2.0), rng.rate(1.0, 52.0)};
    }
    arch.buses.push_back(std::move(bus));
  }

  const size_t ecu_count = 2 + rng.index(options.max_ecus - 1);
  for (size_t i = 0; i < ecu_count; ++i) {
    Ecu ecu;
    ecu.name = "E" + std::to_string(i);
    ecu.phi = rng.rate(1.0, 52.0);
    if (rng.chance(0.3)) {
      ecu.asil = static_cast<assess::Asil>(rng.index(5));
    }
    if (options.allow_failures && rng.chance(0.3)) {
      ecu.failure = FailureSpec{rng.rate(0.05, 1.0), rng.rate(12.0, 365.0)};
    }
    // Attach to a random nonempty subset of buses.
    for (size_t b = 0; b < bus_count; ++b) {
      if (b == i % bus_count || rng.chance(0.4)) {
        ecu.interfaces.push_back(Interface{arch.buses[b].name, rng.rate(0.1, 5.0), {}});
      }
    }
    arch.ecus.push_back(std::move(ecu));
  }
  // Every bus needs at least two attached ECUs so it can carry a message.
  for (size_t b = 0; b < bus_count; ++b) {
    size_t attached = 0;
    for (const Ecu& ecu : arch.ecus) {
      if (ecu.find_interface(arch.buses[b].name) != nullptr) ++attached;
    }
    for (size_t i = 0; i < ecu_count && attached < 2; ++i) {
      if (arch.ecus[i].find_interface(arch.buses[b].name) == nullptr) {
        arch.ecus[i].interfaces.push_back(
            Interface{arch.buses[b].name, rng.rate(0.1, 5.0), {}});
        ++attached;
      }
    }
  }

  const size_t message_count = 1 + rng.index(options.max_messages);
  for (size_t i = 0; i < message_count; ++i) {
    const Bus& bus = arch.buses[rng.index(bus_count)];
    std::vector<std::string> attached;
    for (const Ecu& ecu : arch.ecus) {
      if (ecu.find_interface(bus.name) != nullptr) attached.push_back(ecu.name);
    }
    Message message;
    message.name = "msg" + std::to_string(i);
    const size_t sender = rng.index(attached.size());
    message.sender = attached[sender];
    for (size_t r = 0; r < attached.size(); ++r) {
      if (r != sender && (message.receivers.empty() || rng.chance(0.4))) {
        message.receivers.push_back(attached[r]);
      }
    }
    message.buses = {bus.name};
    constexpr Protection kProtections[] = {Protection::kUnencrypted,
                                           Protection::kCmac128, Protection::kAes128};
    message.protection = kProtections[rng.index(3)];
    if (rng.chance(0.3)) message.patch_rate = rng.rate(0.5, 12.0);
    arch.messages.push_back(std::move(message));
  }

  arch.validate();
  return arch;
}

RandomMdp random_mdp(uint64_t seed, const RandomMdpOptions& options) {
  // Scramble with a distinct stream tag so an iteration's MDP is unrelated to
  // its symbolic model and architecture (all three share the iteration seed).
  Rng rng(seed ^ 0x6d64705f72616e64ULL);  // "mdp_rand"
  const size_t states = 2 + rng.index(std::max<size_t>(1, options.max_states - 1));

  RandomMdp out;
  mdp::Mdp& model = out.model;
  model.state_offsets.push_back(0);
  std::vector<std::tuple<size_t, size_t, double>> entries;  // (row, column, p)
  for (size_t s = 0; s < states; ++s) {
    const size_t action_count = 1 + rng.index(options.max_actions);
    for (size_t a = 0; a < action_count; ++a) {
      const size_t row = model.state_of_row.size();
      model.state_of_row.push_back(static_cast<uint32_t>(s));
      model.action_labels.push_back("a" + std::to_string(a));
      // Integer weights over a random successor multiset; CsrBuilder sums
      // duplicate targets, and w/W ratios keep each row sum exact.
      const size_t branches = 1 + rng.index(options.max_branches);
      std::vector<size_t> targets(branches);
      std::vector<int32_t> weights(branches);
      int32_t total = 0;
      for (size_t b = 0; b < branches; ++b) {
        targets[b] = rng.index(states);
        weights[b] = rng.int_in(1, 9);
        total += weights[b];
      }
      for (size_t b = 0; b < branches; ++b) {
        entries.emplace_back(row, targets[b],
                             static_cast<double>(weights[b]) / total);
      }
    }
    model.state_offsets.push_back(static_cast<uint32_t>(model.state_of_row.size()));
  }
  linalg::CsrBuilder builder(model.state_of_row.size(), states);
  for (const auto& [row, column, probability] : entries) {
    builder.add(row, column, probability);
  }
  model.transitions = std::move(builder).build();
  model.validate();

  out.target.assign(states, false);
  for (size_t s = 1; s < states; ++s) {
    if (rng.chance(options.target_chance)) out.target[s] = true;
  }
  // Always at least one target, never the initial state (so reachability is
  // a non-trivial question from state 0).
  if (std::find(out.target.begin(), out.target.end(), true) == out.target.end()) {
    out.target[1 + rng.index(states - 1)] = true;
  }
  return out;
}

}  // namespace autosec::testing
