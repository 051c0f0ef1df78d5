#include "automotive/diagnostics.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <stdexcept>

#include "ctmc/transient.hpp"
#include "symbolic/explorer.hpp"

namespace autosec::automotive {

std::vector<Criticality> criticality_analysis(const Architecture& architecture,
                                              const std::string& message,
                                              SecurityCategory category,
                                              const CriticalityOptions& options) {
  const AnalysisOptions& analysis = options.analysis;
  const symbolic::Model model = pair_model(architecture, message, category, analysis);
  // The compiled model's constant table gives every rate with its effective
  // value (after any base overrides).
  const symbolic::CompiledModel compiled =
      symbolic::compile(model, analysis.constant_overrides);

  // Two points per rate, value/(1+h) and value*(1+h), each on top of the
  // base overrides (the perturbation comes first, so it wins).
  std::vector<Criticality> result;
  std::vector<csl::OverrideSet> points;
  const double h = options.relative_step;
  for (const auto& [name, value] : compiled.constant_values) {
    if (name == "nmax" || !value.is_numeric() || value.is_int()) continue;
    const double base = value.as_number();
    if (base <= 0.0) continue;
    result.push_back({name, base, 0.0});
    for (const double perturbed : {base / (1.0 + h), base * (1.0 + h)}) {
      csl::OverrideSet overrides{{name, symbolic::Value::of(perturbed)}};
      overrides.insert(overrides.end(), analysis.constant_overrides.begin(),
                       analysis.constant_overrides.end());
      points.push_back(std::move(overrides));
    }
  }

  // One session solves every perturbation: the request's cancel token,
  // budget, solver plan and checkpoint ledger apply to each point.
  csl::EngineSession session(model, session_options(analysis));
  const std::vector<csl::PointValue> exposures = session.check_points(
      exposure_property(analysis.horizon_years), points, csl::PointStages::kRelease);
  for (size_t i = 0; i < result.size(); ++i) {
    const double low = exposures[2 * i].value / analysis.horizon_years;
    const double high = exposures[2 * i + 1].value / analysis.horizon_years;
    if (low > 0.0 && high > 0.0) {
      result[i].elasticity =
          (std::log(high) - std::log(low)) / (2.0 * std::log(1.0 + h));
    }
  }
  std::sort(result.begin(), result.end(), [](const Criticality& a, const Criticality& b) {
    return std::abs(a.elasticity) > std::abs(b.elasticity);
  });
  return result;
}

BreachAttributionResult first_breach_attribution(const Architecture& architecture,
                                                 const SecurityAnalysis& analysis) {
  csl::EngineSession& session = *analysis.session();
  const symbolic::StateSpace& space = analysis.space();
  const std::vector<bool> violated = space.label_mask(kViolatedLabel);

  // Make violated states absorbing: the transient mass in a violated state at
  // the horizon is then the probability that the *first* breach happened in
  // exactly that state.
  const ctmc::Ctmc stopped = session.chain().with_absorbing(violated);
  const std::vector<double> mass = ctmc::transient_distribution(
      stopped, space.initial_distribution(), analysis.options().horizon_years,
      session.transient_options());

  BreachAttributionResult result;
  for (size_t s = 0; s < mass.size(); ++s) {
    if (violated[s]) result.total_breach_probability += mass[s];
  }

  // Components a first-breach state can be attributed to.
  struct ComponentMask {
    std::string name;
    std::vector<bool> mask;
  };
  std::vector<ComponentMask> components;
  for (const Ecu& ecu : architecture.ecus) {
    components.push_back(
        {ecu.name,
         space.label_mask("ecu_" + sanitize_identifier(ecu.name) + "_exploited")});
  }
  for (const Bus& bus : architecture.buses) {
    if (bus.kind == BusKind::kFlexRay) {
      components.push_back(
          {"guardian " + bus.name,
           space.label_mask("guardian_" + sanitize_identifier(bus.name) +
                            "_exploited")});
    }
    if (bus.kind == BusKind::kEthernet) {
      components.push_back(
          {"switch " + bus.name,
           space.label_mask("switch_" + sanitize_identifier(bus.name) + "_exploited")});
    }
  }
  components.push_back({"protection", space.label_mask("protection_broken")});

  for (const ComponentMask& component : components) {
    double probability = 0.0;
    for (size_t s = 0; s < mass.size(); ++s) {
      if (violated[s] && component.mask[s]) probability += mass[s];
    }
    if (probability > 0.0) {
      result.attributions.push_back({component.name, probability});
    }
  }
  std::sort(result.attributions.begin(), result.attributions.end(),
            [](const BreachAttribution& a, const BreachAttribution& b) {
              return a.probability > b.probability;
            });
  return result;
}

double breach_time_quantile(const SecurityAnalysis& analysis, double quantile,
                            double max_years, double tolerance_years) {
  if (!(quantile > 0.0 && quantile < 1.0)) {
    throw std::invalid_argument("breach_time_quantile: quantile must be in (0,1)");
  }
  if (!(max_years > 0.0) || !(tolerance_years > 0.0)) {
    throw std::invalid_argument("breach_time_quantile: bounds must be positive");
  }
  // P=?[F<=t "violated"] is the violated mass at time t of the chain with
  // violated states absorbing (ctmc::bounded_reachability). The absorbing
  // chain and its uniformization do not depend on t, so they are built once
  // for the whole bisection, with the session's cancel token and budget.
  csl::EngineSession& session = *analysis.session();
  const ctmc::TransientOptions transient = session.transient_options();
  const std::vector<bool> violated = analysis.space().label_mask(kViolatedLabel);
  const std::vector<double> initial = analysis.space().initial_distribution();
  const ctmc::Ctmc absorbing = session.chain().with_absorbing(violated);
  std::optional<ctmc::Uniformized> uniformized;
  if (absorbing.max_exit_rate() > 0.0) {
    uniformized = ctmc::uniformize(absorbing, transient);
  }

  auto breach_probability = [&](double t) {
    const std::vector<double> mass =
        uniformized ? ctmc::transient_distribution(*uniformized, initial, t, transient)
                    : initial;
    double probability = 0.0;
    for (size_t i = 0; i < mass.size(); ++i) {
      if (violated[i]) probability += mass[i];
    }
    return probability;
  };
  if (breach_probability(max_years) < quantile) {
    return std::numeric_limits<double>::infinity();
  }
  double low = 0.0;
  double high = max_years;
  while (high - low > tolerance_years) {
    const double mid = 0.5 * (low + high);
    (breach_probability(mid) >= quantile ? high : low) = mid;
  }
  return 0.5 * (low + high);
}

}  // namespace autosec::automotive
