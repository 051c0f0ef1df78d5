#include "automotive/transform.hpp"

#include <algorithm>
#include <cctype>
#include <unordered_map>
#include <unordered_set>

#include "symbolic/builder.hpp"

namespace autosec::automotive {

using symbolic::Expr;

std::string sanitize_identifier(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (char c : name) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      out += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    } else {
      out += '_';
    }
  }
  // Callers always attach a prefix ("x_", "eta_", "ecu_", ...), so a leading
  // digit is fine; only a fully empty result needs a placeholder.
  if (out.empty()) out = "_";
  return out;
}

std::string interface_variable_name(const std::string& ecu, const std::string& bus) {
  return "x_" + sanitize_identifier(ecu) + "_" + sanitize_identifier(bus);
}

std::string guardian_variable_name(const std::string& bus) {
  return "x_bg_" + sanitize_identifier(bus);
}

std::string message_variable_name(const std::string& message) {
  return "x_msg_" + sanitize_identifier(message);
}

std::string interface_eta_constant(const std::string& ecu, const std::string& bus) {
  return "eta_" + sanitize_identifier(ecu) + "_" + sanitize_identifier(bus);
}

std::string ecu_phi_constant(const std::string& ecu) {
  return "phi_" + sanitize_identifier(ecu);
}

std::string guardian_eta_constant(const std::string& bus) {
  return "eta_bg_" + sanitize_identifier(bus);
}

std::string guardian_phi_constant(const std::string& bus) {
  return "phi_bg_" + sanitize_identifier(bus);
}

std::string switch_variable_name(const std::string& bus) {
  return "x_sw_" + sanitize_identifier(bus);
}

std::string switch_eta_constant(const std::string& bus) {
  return "eta_sw_" + sanitize_identifier(bus);
}

std::string switch_phi_constant(const std::string& bus) {
  return "phi_sw_" + sanitize_identifier(bus);
}

std::string failure_variable_name(const std::string& ecu) {
  return "f_" + sanitize_identifier(ecu);
}

std::string failure_rate_constant(const std::string& ecu) {
  return "fail_" + sanitize_identifier(ecu);
}

std::string repair_rate_constant(const std::string& ecu) {
  return "repair_" + sanitize_identifier(ecu);
}

std::string ecu_formula_name(const std::string& ecu) {
  return "ecu_" + sanitize_identifier(ecu);
}

std::string bus_formula_name(const std::string& bus) {
  return "bus_" + sanitize_identifier(bus);
}

std::string interface_probability_constant(const std::string& ecu,
                                           const std::string& bus) {
  return "p_" + sanitize_identifier(ecu) + "_" + sanitize_identifier(bus);
}

std::string guardian_probability_constant(const std::string& bus) {
  return "p_bg_" + sanitize_identifier(bus);
}

std::string switch_probability_constant(const std::string& bus) {
  return "p_sw_" + sanitize_identifier(bus);
}

std::string interface_action_name(const std::string& ecu, const std::string& bus) {
  return "atk_" + sanitize_identifier(ecu) + "_" + sanitize_identifier(bus);
}

std::string guardian_action_name(const std::string& bus) {
  return "atk_bg_" + sanitize_identifier(bus);
}

std::string switch_action_name(const std::string& bus) {
  return "atk_sw_" + sanitize_identifier(bus);
}

std::string category_key(SecurityCategory category) {
  switch (category) {
    case SecurityCategory::kConfidentiality: return "conf";
    case SecurityCategory::kIntegrity: return "integ";
    case SecurityCategory::kAvailability: return "avail";
  }
  throw ArchitectureError("category_key: corrupt category");
}

std::string batch_violated_label(const std::string& message,
                                 SecurityCategory category) {
  return "violated_" + sanitize_identifier(message) + "_" + category_key(category);
}

std::string batch_exposure_reward(const std::string& message,
                                  SecurityCategory category) {
  return "exposure_" + sanitize_identifier(message) + "_" + category_key(category);
}

std::string batch_message_variable_name(const std::string& message,
                                        SecurityCategory category) {
  return message_variable_name(message) + "_" + category_key(category);
}

std::string batch_message_eta_constant(const std::string& message,
                                       SecurityCategory category) {
  return "eta_msg_" + sanitize_identifier(message) + "_" + category_key(category);
}

std::string batch_message_phi_constant(const std::string& message,
                                       SecurityCategory category) {
  return "phi_msg_" + sanitize_identifier(message) + "_" + category_key(category);
}

namespace {

/// Ensures sanitization did not collide two distinct architecture names.
class NameChecker {
 public:
  void claim(const std::string& generated, const std::string& source) {
    const auto [it, inserted] = claimed_.try_emplace(generated, source);
    if (!inserted && it->second != source) {
      throw ArchitectureError("generated name collision: '" + it->second + "' and '" +
                              source + "' both map to '" + generated + "'");
    }
  }

 private:
  std::unordered_map<std::string, std::string> claimed_;
};

/// Rate constants of every interface / ECU / guardian / switch. Shared by
/// the ctmc and mdp cores so parameter sweeps override the same names in
/// both model families.
void emit_rate_constants(const Architecture& architecture,
                         symbolic::ModelBuilder& builder, NameChecker& names) {
  for (const Ecu& ecu : architecture.ecus) {
    names.claim(ecu_phi_constant(ecu.name), "ecu " + ecu.name);
    builder.constant_double(ecu_phi_constant(ecu.name), ecu.phi);
    for (const Interface& iface : ecu.interfaces) {
      names.claim(interface_eta_constant(ecu.name, iface.bus),
                  "interface " + ecu.name + "/" + iface.bus);
      builder.constant_double(interface_eta_constant(ecu.name, iface.bus), iface.eta);
    }
  }
  for (const Bus& bus : architecture.buses) {
    if (bus.kind == BusKind::kFlexRay) {
      names.claim(guardian_eta_constant(bus.name), "guardian " + bus.name);
      builder.constant_double(guardian_eta_constant(bus.name), bus.guardian->eta);
      builder.constant_double(guardian_phi_constant(bus.name), bus.guardian->phi);
    } else if (bus.kind == BusKind::kEthernet) {
      names.claim(switch_eta_constant(bus.name), "switch " + bus.name);
      builder.constant_double(switch_eta_constant(bus.name), bus.eth_switch->eta);
      builder.constant_double(switch_phi_constant(bus.name), bus.eth_switch->phi);
    }
  }
}

/// The ε(e) and ε(b) formulas (Eqs. 3-6), shared verbatim by both cores —
/// what "exploitable" means does not depend on who schedules the attacks.
void emit_epsilon_formulas(const Architecture& architecture,
                           symbolic::ModelBuilder& builder, NameChecker& names) {
  // --- ε(e) formulas (Eq. 3). Declared before bus formulas that use them.
  for (const Ecu& ecu : architecture.ecus) {
    std::vector<Expr> terms;
    for (const Interface& iface : ecu.interfaces) {
      terms.push_back(Expr::ident(interface_variable_name(ecu.name, iface.bus)) >
                      Expr::literal(0));
    }
    names.claim(ecu_formula_name(ecu.name), "ecu " + ecu.name);
    builder.formula(ecu_formula_name(ecu.name), symbolic::any_of(terms));
  }

  // --- ε(b) formulas (Eqs. 4-6).
  for (const Bus& bus : architecture.buses) {
    names.claim(bus_formula_name(bus.name), "bus " + bus.name);
    if (bus.kind == BusKind::kInternet) {
      builder.formula(bus_formula_name(bus.name), Expr::literal(true));
      continue;
    }
    if (bus.kind == BusKind::kEthernet) {
      // Switched segment: only a compromised switch exposes traffic between
      // other nodes (flow endpoints are covered separately by Eq. 8).
      builder.formula(bus_formula_name(bus.name),
                      Expr::ident(switch_variable_name(bus.name)) > Expr::literal(0));
      continue;
    }
    std::vector<Expr> ecu_terms;
    for (const Ecu* ecu : architecture.ecus_on_bus(bus.name)) {
      ecu_terms.push_back(Expr::ident(ecu_formula_name(ecu->name)));
    }
    Expr exploitable = symbolic::any_of(ecu_terms);
    if (bus.kind == BusKind::kFlexRay) {
      exploitable = std::move(exploitable) &&
                    (Expr::ident(guardian_variable_name(bus.name)) > Expr::literal(0));
    }
    builder.formula(bus_formula_name(bus.name), std::move(exploitable));
  }
}

/// The attack core shared by every message measure: rate constants, the ε(e)
/// and ε(b) formulas (Eqs. 3-6), and the interface / guardian / switch
/// modules (Eqs. 1-2 and their bus-component analogues).
void emit_attack_core(const Architecture& architecture, int nmax_value,
                      bool literal_patch_guard, bool guardian_requires_foothold,
                      symbolic::ModelBuilder& builder, NameChecker& names) {
  builder.constant_int("nmax", nmax_value);
  const Expr nmax = Expr::ident("nmax");

  // --- constants for every interface / ECU / guardian rate.
  emit_rate_constants(architecture, builder, names);

  emit_epsilon_formulas(architecture, builder, names);

  // --- interface modules (Eqs. 1-2): one module per interface, holding the
  // exploit-count variable and its discovery/patch commands.
  for (const Ecu& ecu : architecture.ecus) {
    for (const Interface& iface : ecu.interfaces) {
      const std::string var = interface_variable_name(ecu.name, iface.bus);
      names.claim(var, "interface " + ecu.name + "/" + iface.bus);
      auto& module = builder.module("iface_" + sanitize_identifier(ecu.name) + "_" +
                                    sanitize_identifier(iface.bus));
      module.variable(var, Expr::literal(0), nmax, Expr::literal(0));
      const Expr x = Expr::ident(var);
      const Expr bus_up = Expr::ident(bus_formula_name(iface.bus));

      // Eq. (1): discovery while the attached bus is exploitable.
      module.command((x < nmax) && bus_up,
                     Expr::ident(interface_eta_constant(ecu.name, iface.bus)),
                     {{var, x + Expr::literal(1)}});
      // Eq. (2): patching (unconditional unless the literal-guard ablation).
      Expr patch_guard = x > Expr::literal(0);
      if (literal_patch_guard) patch_guard = std::move(patch_guard) && bus_up;
      module.command(std::move(patch_guard), Expr::ident(ecu_phi_constant(ecu.name)),
                     {{var, x - Expr::literal(1)}});
    }
  }

  // --- FlexRay bus guardians: interface-like modules (Eq. 5's ε(i_bg)).
  for (const Bus& bus : architecture.buses) {
    if (bus.kind != BusKind::kFlexRay) continue;
    const std::string var = guardian_variable_name(bus.name);
    names.claim(var, "guardian " + bus.name);
    auto& module = builder.module("guardian_" + sanitize_identifier(bus.name));
    module.variable(var, Expr::literal(0), nmax, Expr::literal(0));
    const Expr x = Expr::ident(var);

    Expr foothold = Expr::literal(true);
    if (guardian_requires_foothold) {
      std::vector<Expr> ecu_terms;
      for (const Ecu* ecu : architecture.ecus_on_bus(bus.name)) {
        ecu_terms.push_back(Expr::ident(ecu_formula_name(ecu->name)));
      }
      foothold = symbolic::any_of(ecu_terms);
    }
    module.command((x < nmax) && std::move(foothold),
                   Expr::ident(guardian_eta_constant(bus.name)),
                   {{var, x + Expr::literal(1)}});
    module.command(x > Expr::literal(0), Expr::ident(guardian_phi_constant(bus.name)),
                   {{var, x - Expr::literal(1)}});
  }

  // --- Ethernet switches: like guardians, but the segment formula is the
  // switch state itself and the exploit is always foothold-guarded (the
  // switch can only be attacked from a node on its segment).
  for (const Bus& bus : architecture.buses) {
    if (bus.kind != BusKind::kEthernet) continue;
    const std::string var = switch_variable_name(bus.name);
    names.claim(var, "switch " + bus.name);
    auto& module = builder.module("switch_" + sanitize_identifier(bus.name));
    module.variable(var, Expr::literal(0), nmax, Expr::literal(0));
    const Expr x = Expr::ident(var);
    std::vector<Expr> ecu_terms;
    for (const Ecu* ecu : architecture.ecus_on_bus(bus.name)) {
      ecu_terms.push_back(Expr::ident(ecu_formula_name(ecu->name)));
    }
    module.command((x < nmax) && symbolic::any_of(ecu_terms),
                   Expr::ident(switch_eta_constant(bus.name)),
                   {{var, x + Expr::literal(1)}});
    module.command(x > Expr::literal(0), Expr::ident(switch_phi_constant(bus.name)),
                   {{var, x - Expr::literal(1)}});
  }
}

/// The attacker's one-attempt success probability against a surface with
/// exploit rate η and patch rate ϕ: the embedded-jump probability η/(η+ϕ)
/// of the exploit winning the race (ϕ = 0 gives p = 1, an unpatched surface).
Expr success_probability(const std::string& eta_constant,
                         const std::string& phi_constant) {
  return Expr::ident(eta_constant) /
         (Expr::ident(eta_constant) + Expr::ident(phi_constant));
}

/// One attack attempt as an mdp choice: the success branch applies the
/// exploit, the failure branch (the patch winning the race) changes nothing.
void attack_choice(symbolic::ModuleBuilder& module, const std::string& action,
                   Expr guard, const std::string& probability_constant,
                   const std::string& variable, Expr next_value) {
  const Expr p = Expr::ident(probability_constant);
  module.choice(action, std::move(guard),
                {{p, {{variable, std::move(next_value)}}},
                 {Expr::literal(1.0) - p, {}}});
}

/// The mdp attack core: the same rate constants, ε formulas and
/// exploit-count variables as emit_attack_core, but each surface's
/// exploit/patch rate pair becomes a single attacker *choice* that succeeds
/// with probability η/(η+ϕ). There are no patch commands — a failed attempt
/// is the patch winning the race — so exploit counters only grow and the
/// worst-case attacker is a pure ordering question.
void emit_adversary_core(const Architecture& architecture, int nmax_value,
                         bool guardian_requires_foothold,
                         symbolic::ModelBuilder& builder, NameChecker& names) {
  builder.constant_int("nmax", nmax_value);
  const Expr nmax = Expr::ident("nmax");

  emit_rate_constants(architecture, builder, names);

  // --- derived success probabilities, one per attack surface.
  for (const Ecu& ecu : architecture.ecus) {
    for (const Interface& iface : ecu.interfaces) {
      names.claim(interface_probability_constant(ecu.name, iface.bus),
                  "interface " + ecu.name + "/" + iface.bus);
      builder.constant_expr(
          interface_probability_constant(ecu.name, iface.bus),
          symbolic::ConstantDecl::Type::kDouble,
          success_probability(interface_eta_constant(ecu.name, iface.bus),
                              ecu_phi_constant(ecu.name)));
    }
  }
  for (const Bus& bus : architecture.buses) {
    if (bus.kind == BusKind::kFlexRay) {
      names.claim(guardian_probability_constant(bus.name), "guardian " + bus.name);
      builder.constant_expr(
          guardian_probability_constant(bus.name),
          symbolic::ConstantDecl::Type::kDouble,
          success_probability(guardian_eta_constant(bus.name),
                              guardian_phi_constant(bus.name)));
    } else if (bus.kind == BusKind::kEthernet) {
      names.claim(switch_probability_constant(bus.name), "switch " + bus.name);
      builder.constant_expr(
          switch_probability_constant(bus.name),
          symbolic::ConstantDecl::Type::kDouble,
          success_probability(switch_eta_constant(bus.name),
                              switch_phi_constant(bus.name)));
    }
  }

  emit_epsilon_formulas(architecture, builder, names);

  // --- interface modules: one attack choice each (Eq. 1's guard, jump
  // probability instead of a rate).
  for (const Ecu& ecu : architecture.ecus) {
    for (const Interface& iface : ecu.interfaces) {
      const std::string var = interface_variable_name(ecu.name, iface.bus);
      names.claim(var, "interface " + ecu.name + "/" + iface.bus);
      auto& module = builder.module("iface_" + sanitize_identifier(ecu.name) + "_" +
                                    sanitize_identifier(iface.bus));
      module.variable(var, Expr::literal(0), nmax, Expr::literal(0));
      const Expr x = Expr::ident(var);
      attack_choice(module, interface_action_name(ecu.name, iface.bus),
                    (x < nmax) && Expr::ident(bus_formula_name(iface.bus)),
                    interface_probability_constant(ecu.name, iface.bus), var,
                    x + Expr::literal(1));
    }
  }

  // --- FlexRay bus guardians.
  for (const Bus& bus : architecture.buses) {
    if (bus.kind != BusKind::kFlexRay) continue;
    const std::string var = guardian_variable_name(bus.name);
    names.claim(var, "guardian " + bus.name);
    auto& module = builder.module("guardian_" + sanitize_identifier(bus.name));
    module.variable(var, Expr::literal(0), nmax, Expr::literal(0));
    const Expr x = Expr::ident(var);
    Expr guard = x < nmax;
    if (guardian_requires_foothold) {
      std::vector<Expr> ecu_terms;
      for (const Ecu* ecu : architecture.ecus_on_bus(bus.name)) {
        ecu_terms.push_back(Expr::ident(ecu_formula_name(ecu->name)));
      }
      guard = std::move(guard) && symbolic::any_of(ecu_terms);
    }
    attack_choice(module, guardian_action_name(bus.name), std::move(guard),
                  guardian_probability_constant(bus.name), var,
                  x + Expr::literal(1));
  }

  // --- Ethernet switches (always foothold-guarded, like the ctmc core).
  for (const Bus& bus : architecture.buses) {
    if (bus.kind != BusKind::kEthernet) continue;
    const std::string var = switch_variable_name(bus.name);
    names.claim(var, "switch " + bus.name);
    auto& module = builder.module("switch_" + sanitize_identifier(bus.name));
    module.variable(var, Expr::literal(0), nmax, Expr::literal(0));
    const Expr x = Expr::ident(var);
    std::vector<Expr> ecu_terms;
    for (const Ecu* ecu : architecture.ecus_on_bus(bus.name)) {
      ecu_terms.push_back(Expr::ident(ecu_formula_name(ecu->name)));
    }
    attack_choice(module, switch_action_name(bus.name),
                  (x < nmax) && symbolic::any_of(ecu_terms),
                  switch_probability_constant(bus.name), var,
                  x + Expr::literal(1));
  }
}

/// Eq. (7)'s path disjunction: some bus on the transmission path exploitable.
Expr message_path_expr(const Message& message) {
  std::vector<Expr> path_terms;
  for (const std::string& bus : message.buses) {
    path_terms.push_back(Expr::ident(bus_formula_name(bus)));
  }
  return symbolic::any_of(path_terms);
}

/// Eq. (8): some endpoint (sender or receiver) compromised.
Expr message_endpoints_expr(const Message& message) {
  std::vector<Expr> endpoint_terms;
  endpoint_terms.push_back(Expr::ident(ecu_formula_name(message.sender)));
  for (const std::string& receiver : message.receivers) {
    endpoint_terms.push_back(Expr::ident(ecu_formula_name(receiver)));
  }
  return symbolic::any_of(endpoint_terms);
}

/// Generated names of one message measure. transform() uses the historical
/// single-model names ("eta_msg", "x_msg_<m>"); transform_batch() suffixes
/// them per (message, category) pair so the measures can coexist.
struct MeasureNames {
  std::string eta_constant;
  std::string phi_constant;
  std::string variable;
  std::string module_name;
  /// mdp only: the derived success probability and the attacker's action.
  std::string probability_constant;
  std::string action;
};

struct MessageMeasure {
  Expr attack_violated;
  bool has_variable = false;
  std::string variable;
};

/// Eqs. (7)-(10) for one (message, category) pair: the violation expression,
/// plus the protection-break module when the category's η is finite. For an
/// mdp the break is an attacker choice (probability η/(η+ϕ), no patch
/// command), mirroring the adversary core.
MessageMeasure emit_attack_measure(const Message& message, SecurityCategory category,
                                   bool literal_patch_guard,
                                   symbolic::ModelType model_type,
                                   const MeasureNames& measure_names,
                                   symbolic::ModelBuilder& builder,
                                   NameChecker& names) {
  const Expr any_path_bus = message_path_expr(message);
  const Expr endpoints = message_endpoints_expr(message);

  MessageMeasure out;
  if (category == SecurityCategory::kAvailability) {
    // Eq. (7): availability depends on the transmission buses only.
    out.attack_violated = any_path_bus;
    return out;
  }
  const ProtectionRates rates = message.rates();
  const std::optional<double> eta = category == SecurityCategory::kConfidentiality
                                        ? rates.confidentiality_eta
                                        : rates.integrity_eta;
  if (!eta.has_value()) {
    // "∞ (instant)": the protection is void for this category; any
    // exploitable path bus exposes the message immediately.
    out.attack_violated = endpoints || any_path_bus;
    return out;
  }
  builder.constant_double(measure_names.eta_constant, *eta);
  builder.constant_double(measure_names.phi_constant, message.patch_rate);
  const std::string& var = measure_names.variable;
  names.claim(var, "message " + message.name);
  if (model_type == symbolic::ModelType::kMdp) {
    names.claim(measure_names.probability_constant, "message " + message.name);
    builder.constant_expr(measure_names.probability_constant,
                          symbolic::ConstantDecl::Type::kDouble,
                          success_probability(measure_names.eta_constant,
                                              measure_names.phi_constant));
  }
  auto& module = builder.module(measure_names.module_name);
  module.variable(var, 0, 1, 0);
  const Expr x = Expr::ident(var);
  if (model_type == symbolic::ModelType::kMdp) {
    // Eq. (9) as an attack attempt; no Eq. (10) — failure *is* the patch.
    attack_choice(module, measure_names.action,
                  (x == Expr::literal(0)) && any_path_bus,
                  measure_names.probability_constant, var, Expr::literal(1));
  } else {
    // Eq. (9): the protection is broken while some path bus is exploitable.
    module.command((x == Expr::literal(0)) && any_path_bus,
                   Expr::ident(measure_names.eta_constant), {{var, Expr::literal(1)}});
    // Eq. (10): patching the protection (rate 0 by default — disabled).
    Expr patch_guard = x == Expr::literal(1);
    if (literal_patch_guard) patch_guard = std::move(patch_guard) && any_path_bus;
    module.command(std::move(patch_guard), Expr::ident(measure_names.phi_constant),
                   {{var, Expr::literal(0)}});
  }
  // Eq. (8) ∨ broken protection.
  out.attack_violated = endpoints || (x == Expr::literal(1));
  out.has_variable = true;
  out.variable = var;
  return out;
}

/// Failure/repair module of one ECU (the Section-5 reliability combination),
/// with its "ecu_<name>_failed" label. Returns the failed expression.
Expr emit_failure_module(const Ecu& ecu, symbolic::ModelBuilder& builder,
                         NameChecker& names) {
  const std::string var = failure_variable_name(ecu.name);
  names.claim(var, "failure " + ecu.name);
  builder.constant_double(failure_rate_constant(ecu.name), ecu.failure->failure_rate);
  builder.constant_double(repair_rate_constant(ecu.name), ecu.failure->repair_rate);
  auto& module = builder.module("fail_" + sanitize_identifier(ecu.name));
  module.variable(var, 0, 1, 0);
  const Expr f = Expr::ident(var);
  module.command(f == Expr::literal(0), Expr::ident(failure_rate_constant(ecu.name)),
                 {{var, Expr::literal(1)}});
  module.command(f == Expr::literal(1), Expr::ident(repair_rate_constant(ecu.name)),
                 {{var, Expr::literal(0)}});
  builder.label("ecu_" + sanitize_identifier(ecu.name) + "_failed",
                f == Expr::literal(1));
  return f == Expr::literal(1);
}

/// Message endpoints (sender first, then receivers) without duplicates.
std::vector<std::string> endpoint_list(const Message& message) {
  std::vector<std::string> endpoints{message.sender};
  for (const std::string& receiver : message.receivers) {
    if (std::find(endpoints.begin(), endpoints.end(), receiver) == endpoints.end()) {
      endpoints.push_back(receiver);
    }
  }
  return endpoints;
}

/// Structural labels shared by every measure: exploited/exploitable state of
/// each ECU, bus, guardian and switch.
void emit_structural_labels(const Architecture& architecture,
                            symbolic::ModelBuilder& builder) {
  for (const Ecu& ecu : architecture.ecus) {
    builder.label("ecu_" + sanitize_identifier(ecu.name) + "_exploited",
                  Expr::ident(ecu_formula_name(ecu.name)));
  }
  for (const Bus& bus : architecture.buses) {
    builder.label("bus_" + sanitize_identifier(bus.name) + "_exploitable",
                  Expr::ident(bus_formula_name(bus.name)));
    if (bus.kind == BusKind::kFlexRay) {
      builder.label("guardian_" + sanitize_identifier(bus.name) + "_exploited",
                    Expr::ident(guardian_variable_name(bus.name)) > Expr::literal(0));
    }
    if (bus.kind == BusKind::kEthernet) {
      builder.label("switch_" + sanitize_identifier(bus.name) + "_exploited",
                    Expr::ident(switch_variable_name(bus.name)) > Expr::literal(0));
    }
  }
}

}  // namespace

symbolic::Model transform(const Architecture& architecture,
                          const TransformOptions& options) {
  architecture.validate();
  if (options.nmax < 1) throw ArchitectureError("transform: nmax must be >= 1");
  const Message* message = architecture.find_message(options.message);
  if (message == nullptr) {
    throw ArchitectureError("transform: unknown message '" + options.message + "'");
  }

  const bool mdp = options.model_type == symbolic::ModelType::kMdp;
  NameChecker names;
  symbolic::ModelBuilder builder;
  if (mdp) {
    builder.type(symbolic::ModelType::kMdp);
    emit_adversary_core(architecture, options.nmax,
                        options.guardian_requires_foothold, builder, names);
  } else {
    emit_attack_core(architecture, options.nmax, options.literal_patch_guard,
                     options.guardian_requires_foothold, builder, names);
  }

  // --- the analyzed message (Eqs. 7-10).
  const MessageMeasure measure = emit_attack_measure(
      *message, options.category, options.literal_patch_guard,
      options.model_type,
      MeasureNames{
          .eta_constant = kMessageEtaConstant,
          .phi_constant = kMessagePhiConstant,
          .variable = message_variable_name(message->name),
          .module_name = "msg_" + sanitize_identifier(message->name),
          .probability_constant = kMessageProbabilityConstant,
          .action = kMessageActionName,
      },
      builder, names);
  const Expr attack_violated = measure.attack_violated;
  const bool message_has_variable = measure.has_variable;

  // --- reliability (Section 5 future work): random failures of the message
  // endpoints make it unavailable until repaired. Only generated when it can
  // matter — availability analyses of ECUs with failure specs. CTMC only:
  // failures are racing exponential clocks, which a turn-based adversary
  // model has no notion of.
  Expr failure_violated = Expr::literal(false);
  if (!mdp && options.category == SecurityCategory::kAvailability &&
      options.include_reliability) {
    std::vector<Expr> failed_terms;
    for (const std::string& ecu_name : endpoint_list(*message)) {
      const Ecu* ecu = architecture.find_ecu(ecu_name);
      if (!ecu->failure.has_value()) continue;
      failed_terms.push_back(emit_failure_module(*ecu, builder, names));
    }
    failure_violated = symbolic::any_of(failed_terms);
  }

  const Expr violated = attack_violated || failure_violated;
  builder.label(kViolatedLabel, violated);
  builder.label(kViolatedAttackLabel, attack_violated);
  builder.label(kViolatedFailureLabel, failure_violated);
  emit_structural_labels(architecture, builder);
  // Label for the analyzed message's protection state (false when the
  // category has no protection variable).
  builder.label("protection_broken",
                message_has_variable
                    ? (Expr::ident(message_variable_name(message->name)) ==
                       Expr::literal(1))
                    : Expr::literal(false));
  builder.state_reward(kExposureReward, violated, Expr::literal(1.0));
  builder.state_reward(kExposureAttackReward, attack_violated, Expr::literal(1.0));
  builder.state_reward(kExposureFailureReward, failure_violated, Expr::literal(1.0));
  // Elapsed-time reward: R{"time"}=?[F "violated"] is the mean time to the
  // first breach.
  builder.state_reward(kTimeReward, Expr::literal(true), Expr::literal(1.0));

  return builder.build();
}

symbolic::Model transform_batch(const Architecture& architecture,
                                const BatchTransformOptions& options) {
  architecture.validate();
  if (options.nmax < 1) throw ArchitectureError("transform_batch: nmax must be >= 1");
  if (options.categories.empty()) {
    throw ArchitectureError("transform_batch: no categories");
  }

  std::vector<const Message*> messages;
  if (options.messages.empty()) {
    for (const Message& message : architecture.messages) messages.push_back(&message);
  } else {
    for (const std::string& name : options.messages) {
      const Message* message = architecture.find_message(name);
      if (message == nullptr) {
        throw ArchitectureError("transform_batch: unknown message '" + name + "'");
      }
      messages.push_back(message);
    }
  }
  if (messages.empty()) {
    throw ArchitectureError("transform_batch: architecture has no messages");
  }

  NameChecker names;
  symbolic::ModelBuilder builder;
  emit_attack_core(architecture, options.nmax, options.literal_patch_guard,
                   options.guardian_requires_foothold, builder, names);

  // --- failure modules (availability × reliability), unioned over every
  // covered message's endpoints and emitted once per ECU: independent driven
  // components, shared by all pairs whose endpoint set contains them.
  std::unordered_map<std::string, Expr> failed_exprs;
  const bool availability_covered =
      std::find(options.categories.begin(), options.categories.end(),
                SecurityCategory::kAvailability) != options.categories.end();
  if (availability_covered && options.include_reliability) {
    for (const Message* message : messages) {
      for (const std::string& ecu_name : endpoint_list(*message)) {
        if (failed_exprs.count(ecu_name) != 0) continue;
        const Ecu* ecu = architecture.find_ecu(ecu_name);
        if (!ecu->failure.has_value()) continue;
        failed_exprs.emplace(ecu_name, emit_failure_module(*ecu, builder, names));
      }
    }
  }

  // --- one measure per (message, category) pair, message-major like
  // analyze_architecture_report's result order.
  for (const Message* message : messages) {
    for (const SecurityCategory category : options.categories) {
      const MessageMeasure measure = emit_attack_measure(
          *message, category, options.literal_patch_guard,
          symbolic::ModelType::kCtmc,
          MeasureNames{
              .eta_constant = batch_message_eta_constant(message->name, category),
              .phi_constant = batch_message_phi_constant(message->name, category),
              .variable = batch_message_variable_name(message->name, category),
              .module_name = "msg_" + sanitize_identifier(message->name) + "_" +
                             category_key(category),
          },
          builder, names);

      Expr failure_violated = Expr::literal(false);
      if (category == SecurityCategory::kAvailability && options.include_reliability) {
        std::vector<Expr> failed_terms;
        for (const std::string& ecu_name : endpoint_list(*message)) {
          const auto it = failed_exprs.find(ecu_name);
          if (it != failed_exprs.end()) failed_terms.push_back(it->second);
        }
        failure_violated = symbolic::any_of(failed_terms);
      }

      const Expr violated = measure.attack_violated || failure_violated;
      builder.label(batch_violated_label(message->name, category), violated);
      builder.state_reward(batch_exposure_reward(message->name, category), violated,
                           Expr::literal(1.0));
    }
  }

  emit_structural_labels(architecture, builder);
  // Shared elapsed-time reward, same name as the single-message model.
  builder.state_reward(kTimeReward, Expr::literal(true), Expr::literal(1.0));

  return builder.build();
}

}  // namespace autosec::automotive
