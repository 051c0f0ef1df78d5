#include "automotive/diagnostics.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace autosec::automotive {

std::vector<Criticality> criticality_analysis(const SecurityAnalysis& analysis,
                                              double relative_step) {
  const AnalysisOptions& options = analysis.options();
  // The pair's compiled model gives every rate with its effective value
  // (after any base overrides).
  const symbolic::CompiledModel& compiled = analysis.space().model();

  // Two points per rate, value/(1+h) and value*(1+h), each on top of the
  // base overrides (the perturbation comes first, so it wins).
  std::vector<Criticality> result;
  std::vector<csl::OverrideSet> points;
  const double h = relative_step;
  for (const auto& [name, value] : compiled.constant_values) {
    if (name == "nmax" || !value.is_numeric() || value.is_int()) continue;
    const double base = value.as_number();
    if (base <= 0.0) continue;
    result.push_back({name, base, 0.0});
    for (const double perturbed : {base / (1.0 + h), base * (1.0 + h)}) {
      csl::OverrideSet overrides{{name, symbolic::Value::of(perturbed)}};
      overrides.insert(overrides.end(), options.constant_overrides.begin(),
                       options.constant_overrides.end());
      points.push_back(std::move(overrides));
    }
  }

  const std::vector<csl::PointValue> exposures = analysis.session()->check_points(
      exposure_property(options.horizon_years), points, csl::PointStages::kRelease);
  for (size_t i = 0; i < result.size(); ++i) {
    const double low = exposures[2 * i].value / options.horizon_years;
    const double high = exposures[2 * i + 1].value / options.horizon_years;
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

FirstBreachChain::FirstBreachChain(const SecurityAnalysis& analysis)
    : analysis_(analysis),
      transient_(analysis.session()->transient_options()),
      violated_(analysis.space().label_mask(kViolatedLabel)),
      initial_(analysis.space().initial_distribution()) {
  const ctmc::Ctmc& chain = analysis.space().chain();
  if (chain.max_exit_rate(violated_) > 0.0) {
    uniformized_ = ctmc::uniformize(chain, transient_, violated_);
  }
}

std::vector<double> FirstBreachChain::mass_at(double t) const {
  if (!uniformized_) return initial_;
  return ctmc::transient_distribution(*uniformized_, initial_, t, transient_);
}

double FirstBreachChain::breach_probability(double t) const {
  const std::vector<double> mass = mass_at(t);
  double probability = 0.0;
  for (size_t i = 0; i < mass.size(); ++i) {
    if (violated_[i]) probability += mass[i];
  }
  return probability;
}

BreachAttributionResult first_breach_attribution(const Architecture& architecture,
                                                 const FirstBreachChain& stopped) {
  const symbolic::StateSpace& space = stopped.analysis().space();
  const std::vector<bool>& violated = stopped.violated();
  const std::vector<double> mass =
      stopped.mass_at(stopped.analysis().options().horizon_years);

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

double breach_time_quantile(const FirstBreachChain& stopped, double quantile,
                            double max_years, double tolerance_years) {
  if (!(quantile > 0.0 && quantile < 1.0)) {
    throw std::invalid_argument("breach_time_quantile: quantile must be in (0,1)");
  }
  if (!(max_years > 0.0) || !(tolerance_years > 0.0)) {
    throw std::invalid_argument("breach_time_quantile: bounds must be positive");
  }
  if (stopped.breach_probability(max_years) < quantile) {
    return std::numeric_limits<double>::infinity();
  }
  double low = 0.0;
  double high = max_years;
  while (high - low > tolerance_years) {
    const double mid = 0.5 * (low + high);
    (stopped.breach_probability(mid) >= quantile ? high : low) = mid;
  }
  return 0.5 * (low + high);
}

Diagnosis diagnose(const Architecture& architecture, const std::string& message,
                   SecurityCategory category, const AnalysisOptions& options) {
  const SecurityAnalysis analysis(architecture, message, category, options);
  Diagnosis diagnosis;
  diagnosis.criticality = criticality_analysis(analysis);
  const FirstBreachChain stopped(analysis);
  diagnosis.first_breach = first_breach_attribution(architecture, stopped);
  for (const double quantile : kBreachQuantiles) {
    diagnosis.quantiles.push_back({quantile, breach_time_quantile(stopped, quantile)});
  }
  diagnosis.state_count = analysis.space().state_count();
  return diagnosis;
}

}  // namespace autosec::automotive
