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
//
//  * breach_time_quantile: by when q% of vehicles have been breached.
//
// diagnose() is the one path CLI and serve `diagnose` take: one pair session
// answers all three, and one absorbing chain (FirstBreachChain) serves the
// attribution and every quantile.
#pragma once

#include <array>
#include <optional>
#include <string>
#include <vector>

#include "automotive/analyzer.hpp"
#include "ctmc/transient.hpp"

namespace autosec::automotive {

struct Criticality {
  std::string constant;  ///< generated rate-constant name (e.g. "phi_3g")
  double base_value = 0.0;
  /// d(log exposure) / d(log rate), central finite difference. Negative for
  /// patch rates (faster patching lowers exposure), positive for exploit
  /// rates.
  double elasticity = 0.0;
};

/// Elasticities for every rate constant of `analysis`'s pair model, sorted
/// by descending |elasticity|. Each rate is evaluated at value/(1+h) and
/// value*(1+h), h = `relative_step`, on top of the analysis's base
/// overrides; constants with value 0 are skipped (nothing to perturb
/// multiplicatively). The points run on the analysis's own session
/// (check_points, PointStages::kRelease): one explore each, under the
/// session's cancel token, budget, solver plan and checkpoint ledger.
std::vector<Criticality> criticality_analysis(const SecurityAnalysis& analysis,
                                              double relative_step = 0.25);

/// The pair chain stopped at the first breach: `analysis`'s chain uniformized
/// once with the violated states masked absorbing (the chain is not copied).
/// Its transient mass in a violated state at time t is the probability that
/// the first breach happened in exactly that state by t. Solves run with the
/// session's transient options (cancel token, budget, steady-state
/// detection) as they are at construction. `analysis` must outlive this
/// object.
class FirstBreachChain {
 public:
  explicit FirstBreachChain(const SecurityAnalysis& analysis);

  const SecurityAnalysis& analysis() const { return analysis_; }
  const std::vector<bool>& violated() const { return violated_; }
  /// Distribution over states at time t.
  std::vector<double> mass_at(double t) const;
  /// P=? [ F<=t "violated" ]: the violated mass at time t.
  double breach_probability(double t) const;

 private:
  const SecurityAnalysis& analysis_;
  ctmc::TransientOptions transient_;
  std::vector<bool> violated_;
  std::vector<double> initial_;
  std::optional<ctmc::Uniformized> uniformized_;  ///< absent when nothing moves
};

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

/// Evaluated at the analysis horizon on `stopped`, the absorbing chain of
/// the pair session of `architecture`.
BreachAttributionResult first_breach_attribution(const Architecture& architecture,
                                                 const FirstBreachChain& stopped);

/// Breach-time quantile: the time t (years) by which the message has been
/// violated at least once with probability `quantile` — "by when are q% of
/// vehicles breached?". Solved by bisection on P=?[F<=t "violated"]
/// (monotone in t). Returns +infinity when even `max_years` does not reach
/// the quantile (e.g. unreachable violations).
double breach_time_quantile(const FirstBreachChain& stopped, double quantile,
                            double max_years = 100.0, double tolerance_years = 1e-4);

/// The breach-time quantiles a diagnosis reports.
inline constexpr std::array<double, 4> kBreachQuantiles = {0.05, 0.25, 0.5, 0.95};

struct BreachQuantile {
  double quantile = 0.0;
  double years = 0.0;  ///< +infinity beyond breach_time_quantile's max_years
};

/// Everything `diagnose` reports for one (message, category) pair.
struct Diagnosis {
  std::vector<Criticality> criticality;
  BreachAttributionResult first_breach;
  std::vector<BreachQuantile> quantiles;  ///< one per kBreachQuantiles entry
  size_t state_count = 0;                 ///< states of the pair model
};

/// The diagnose path of the CLI and serve: transforms the pair model once,
/// runs the criticality points on its session, then builds one
/// FirstBreachChain for the attribution and every quantile.
Diagnosis diagnose(const Architecture& architecture, const std::string& message,
                   SecurityCategory category, const AnalysisOptions& options);

}  // namespace autosec::automotive
