// Diagnostic analyses on top of the core metric — the paper's Section 4.2
// closes with "such an analysis can be performed for every element in the
// architecture"; this module does exactly that, systematically:
//
//  * criticality_analysis: for every rate constant in the generated model
//    (interface η, ECU ϕ, guardian/switch rates, message η/ϕ), the
//    elasticity of the exposure metric — %-change in exposure per %-change
//    in the rate. Tells the decision maker where hardening or faster
//    patching buys the most, and is directly the contract-negotiation input
//    the paper describes (OEM vs supplier patch-rate agreements).
//
//  * first_breach_attribution: decomposes the breach probability by the
//    state in which the system first becomes violated, aggregated to the
//    architecture components that are exploited in that state — "through
//    which door does the attacker come?".
#pragma once

#include <string>
#include <vector>

#include "automotive/analyzer.hpp"

namespace autosec::automotive {

struct Criticality {
  std::string constant;  ///< generated rate-constant name (e.g. "phi_3g")
  double base_value = 0.0;
  /// d(log exposure) / d(log rate), central finite difference. Negative for
  /// patch rates (faster patching lowers exposure), positive for exploit
  /// rates.
  double elasticity = 0.0;
};

struct CriticalityOptions {
  AnalysisOptions analysis;
  /// Relative perturbation for the finite difference (each rate is evaluated
  /// at value/(1+h) and value*(1+h)).
  double relative_step = 0.25;
};

/// Elasticities for every rate constant of the (message, category) model,
/// sorted by descending |elasticity|. Constants with value 0 are skipped
/// (nothing to perturb multiplicatively).
std::vector<Criticality> criticality_analysis(const Architecture& architecture,
                                              const std::string& message,
                                              SecurityCategory category,
                                              const CriticalityOptions& options = {});

struct BreachAttribution {
  std::string component;  ///< ECU name, "bus <name>", or "protection"
  /// Probability that the first violation within the horizon happens while
  /// this component is exploited (a first-breach state can involve several
  /// components, so shares may sum to more than the total probability).
  double probability = 0.0;
};

/// First-breach decomposition: P[first violated state within the horizon has
/// component X exploited], for every ECU/bus/protection, sorted descending,
/// plus the total breach probability in `total`.
struct BreachAttributionResult {
  double total_breach_probability = 0.0;
  std::vector<BreachAttribution> attributions;
};

/// Evaluated on `analysis`, the pair session of `architecture` that
/// breach_time_quantile also takes: its cached chain, and its transient
/// options (cancel token, budget, steady-state detection) at the analysis
/// horizon.
BreachAttributionResult first_breach_attribution(const Architecture& architecture,
                                                 const SecurityAnalysis& analysis);

/// Breach-time quantile: the time t (years) by which the message has been
/// violated at least once with probability `quantile` — "by when are q% of
/// vehicles breached?". Solved by bisection on P=?[F<=t "violated"]
/// (monotone in t). Returns +infinity when even `max_years` does not reach
/// the quantile (e.g. unreachable violations).
double breach_time_quantile(const SecurityAnalysis& analysis, double quantile,
                            double max_years = 100.0, double tolerance_years = 1e-4);

}  // namespace autosec::automotive
