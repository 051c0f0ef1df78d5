#include "automotive/diagnostics.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <algorithm>
#include <limits>
#include <memory>

#include "automotive/casestudy.hpp"
#include "ctmc/rewards.hpp"
#include "ctmc/transient.hpp"
#include "symbolic/explorer.hpp"
#include "util/budget.hpp"
#include "util/cancel.hpp"
#include "util/failure.hpp"
#include "util/metrics.hpp"

namespace autosec::automotive {
namespace {

namespace cs = casestudy;

CriticalityOptions fast_criticality() {
  CriticalityOptions options;
  options.analysis.nmax = 1;
  return options;
}

/// Exposure fraction of one perturbation, solved without an engine session:
/// compile, explore, then the expected violated-time fraction over the
/// horizon — the direct pipeline criticality_analysis must reproduce.
double direct_exposure(const symbolic::Model& model, const AnalysisOptions& options,
                       csl::OverrideSet overrides) {
  for (const auto& base : options.constant_overrides) overrides.push_back(base);
  const symbolic::StateSpace space =
      symbolic::explore(symbolic::compile(model, overrides));
  return ctmc::expected_time_fraction(space.to_ctmc(), space.initial_distribution(),
                                      space.label_mask(kViolatedLabel),
                                      options.horizon_years);
}

TEST(Criticality, ReproducesDirectPerturbationSolvesBitForBit) {
  CriticalityOptions options;
  options.analysis.nmax = 2;
  options.analysis.horizon_years = 0.75;
  options.analysis.constant_overrides = {{"phi_gw", symbolic::Value::of(40.0)}};
  const Architecture arch = cs::architecture(1, Protection::kUnencrypted);
  const auto result = criticality_analysis(arch, cs::kMessage,
                                           SecurityCategory::kIntegrity, options);
  ASSERT_EQ(result.size(), 10u);

  const symbolic::Model model =
      pair_model(arch, cs::kMessage, SecurityCategory::kIntegrity, options.analysis);
  const double h = options.relative_step;
  for (const Criticality& c : result) {
    const double low = direct_exposure(
        model, options.analysis, {{c.constant, symbolic::Value::of(c.base_value / (1.0 + h))}});
    const double high = direct_exposure(
        model, options.analysis, {{c.constant, symbolic::Value::of(c.base_value * (1.0 + h))}});
    ASSERT_GT(low, 0.0) << c.constant;
    ASSERT_GT(high, 0.0) << c.constant;
    EXPECT_EQ(c.elasticity, (std::log(high) - std::log(low)) / (2.0 * std::log(1.0 + h)))
        << c.constant;
  }
  for (const Criticality& c : result) {
    if (c.constant == "phi_gw") {
      EXPECT_EQ(c.base_value, 40.0);  // the base override applies
    }
  }
}

TEST(Criticality, ExpiredCancelTokenThrowsCancelled) {
  CriticalityOptions options = fast_criticality();
  options.analysis.cancel = std::make_shared<util::CancelToken>();
  options.analysis.cancel->cancel();
  EXPECT_THROW(criticality_analysis(cs::architecture(1, Protection::kUnencrypted),
                                    cs::kMessage, SecurityCategory::kConfidentiality,
                                    options),
               util::Cancelled);
}

TEST(Criticality, StateBudgetFailsWithTypedError) {
  // Arch 1 at nmax 2 has 729 states per perturbed model.
  CriticalityOptions options;
  options.analysis.nmax = 2;
  options.analysis.budget = std::make_shared<util::ResourceBudget>(100, 0);
  try {
    criticality_analysis(cs::architecture(1, Protection::kUnencrypted), cs::kMessage,
                         SecurityCategory::kConfidentiality, options);
    FAIL() << "a 100-state budget must stop a 729-state exploration";
  } catch (const util::EngineFailure& failure) {
    EXPECT_EQ(failure.code(), util::FailureCode::kStateBudgetExceeded);
    EXPECT_EQ(failure.stage(), "explore");
  }
}

TEST(Criticality, CoversEveryRateConstant) {
  const auto result =
      criticality_analysis(cs::architecture(1, Protection::kUnencrypted), cs::kMessage,
                           SecurityCategory::kConfidentiality, fast_criticality());
  // Arch 1: 6 interface etas + 4 ECU phis = 10 rate constants.
  EXPECT_EQ(result.size(), 10u);
  // Sorted by |elasticity| descending.
  for (size_t i = 1; i < result.size(); ++i) {
    EXPECT_GE(std::abs(result[i - 1].elasticity), std::abs(result[i].elasticity));
  }
}

TEST(Criticality, SignsMatchRateSemantics) {
  const auto result =
      criticality_analysis(cs::architecture(1, Protection::kUnencrypted), cs::kMessage,
                           SecurityCategory::kConfidentiality, fast_criticality());
  for (const Criticality& c : result) {
    if (c.constant.rfind("phi_", 0) == 0) {
      EXPECT_LE(c.elasticity, 1e-9) << c.constant;  // patching reduces exposure
    }
    if (c.constant.rfind("eta_", 0) == 0) {
      EXPECT_GE(c.elasticity, -1e-9) << c.constant;  // exploits increase it
    }
  }
}

TEST(Criticality, EntryPointDominates) {
  // The 3G uplink eta and the 3G patch rate must be among the most critical
  // constants in Architecture 1 — the paper's Fig. 6 picked them for a
  // reason.
  const auto result =
      criticality_analysis(cs::architecture(1, Protection::kUnencrypted), cs::kMessage,
                           SecurityCategory::kConfidentiality, fast_criticality());
  ASSERT_GE(result.size(), 3u);
  const std::vector<std::string> top = {result[0].constant, result[1].constant,
                                        result[2].constant};
  const bool has_3g = std::find(top.begin(), top.end(), "eta_3g_net") != top.end() ||
                      std::find(top.begin(), top.end(), "phi_3g") != top.end();
  EXPECT_TRUE(has_3g) << "top-3: " << top[0] << ", " << top[1] << ", " << top[2];
}

TEST(Criticality, BaseValuesMatchTable2) {
  const auto result =
      criticality_analysis(cs::architecture(1, Protection::kUnencrypted), cs::kMessage,
                           SecurityCategory::kConfidentiality, fast_criticality());
  for (const Criticality& c : result) {
    if (c.constant == "phi_3g") {
      EXPECT_DOUBLE_EQ(c.base_value, 52.0);
    }
    if (c.constant == "eta_3g_net") {
      EXPECT_DOUBLE_EQ(c.base_value, 1.9);
    }
    if (c.constant == "phi_pa") {
      EXPECT_DOUBLE_EQ(c.base_value, 12.0);
    }
  }
}

TEST(Criticality, AesModelIncludesMessageEta) {
  const auto result =
      criticality_analysis(cs::architecture(1, Protection::kAes128), cs::kMessage,
                           SecurityCategory::kConfidentiality, fast_criticality());
  const bool has_msg =
      std::any_of(result.begin(), result.end(),
                  [](const Criticality& c) { return c.constant == "eta_msg"; });
  EXPECT_TRUE(has_msg);
  // phi_msg is 0 (Table 2 "-"): must be skipped, not perturbed.
  const bool has_phi_msg =
      std::any_of(result.begin(), result.end(),
                  [](const Criticality& c) { return c.constant == "phi_msg"; });
  EXPECT_FALSE(has_phi_msg);
}

TEST(BreachAttribution, TotalMatchesBreachProbability) {
  AnalysisOptions options;
  options.nmax = 1;
  const Architecture arch = cs::architecture(1, Protection::kUnencrypted);
  const auto attribution = first_breach_attribution(
      arch, cs::kMessage, SecurityCategory::kConfidentiality, options);
  const AnalysisResult result = analyze_message(
      arch, cs::kMessage, SecurityCategory::kConfidentiality, options);
  EXPECT_NEAR(attribution.total_breach_probability, result.breach_probability, 1e-9);
}

TEST(BreachAttribution, TelematicsIsTheDoorInArchitecture1) {
  AnalysisOptions options;
  options.nmax = 1;
  const auto attribution = first_breach_attribution(
      cs::architecture(1, Protection::kUnencrypted), cs::kMessage,
      SecurityCategory::kConfidentiality, options);
  ASSERT_FALSE(attribution.attributions.empty());
  EXPECT_EQ(attribution.attributions[0].component, cs::kTelematics);
  // Nearly every first breach involves the compromised telematics unit.
  EXPECT_GT(attribution.attributions[0].probability,
            0.9 * attribution.total_breach_probability);
}

TEST(BreachAttribution, SharesAreProbabilities) {
  AnalysisOptions options;
  options.nmax = 1;
  const auto attribution = first_breach_attribution(
      cs::architecture(2, Protection::kAes128), cs::kMessage,
      SecurityCategory::kIntegrity, options);
  for (const BreachAttribution& a : attribution.attributions) {
    EXPECT_GT(a.probability, 0.0);
    EXPECT_LE(a.probability, attribution.total_breach_probability + 1e-12);
  }
}

TEST(BreachAttribution, GuardianShowsUpInArchitecture3) {
  AnalysisOptions options;
  options.nmax = 1;
  const auto attribution = first_breach_attribution(
      cs::architecture(3, Protection::kUnencrypted), cs::kMessage,
      SecurityCategory::kAvailability, options);
  const bool has_guardian = std::any_of(
      attribution.attributions.begin(), attribution.attributions.end(),
      [](const BreachAttribution& a) { return a.component == "guardian FR"; });
  EXPECT_TRUE(has_guardian);
}

TEST(BreachAttribution, ProtectionAttributedWhenBroken) {
  // Force an extreme message eta so the protection is essentially always the
  // first thing to fall once the bus is exploitable.
  Architecture arch = cs::architecture(1, Protection::kAes128);
  arch.messages[0].rates_override =
      ProtectionRates{.integrity_eta = 1.2, .confidentiality_eta = 10000.0};
  AnalysisOptions options;
  options.nmax = 1;
  const auto attribution = first_breach_attribution(
      arch, cs::kMessage, SecurityCategory::kConfidentiality, options);
  const bool has_protection = std::any_of(
      attribution.attributions.begin(), attribution.attributions.end(),
      [](const BreachAttribution& a) { return a.component == "protection"; });
  EXPECT_TRUE(has_protection);
}

TEST(BreachQuantile, MatchesBoundedReachabilityInversion) {
  AnalysisOptions options;
  options.nmax = 1;
  const SecurityAnalysis analysis(cs::architecture(1, Protection::kUnencrypted),
                                  cs::kMessage, SecurityCategory::kConfidentiality,
                                  options);
  const double median = breach_time_quantile(analysis, 0.5);
  ASSERT_TRUE(std::isfinite(median));
  // Invert: the breach probability at the median must be ~0.5.
  const double p = analysis.check(
      "P=? [ F<=" + std::to_string(median) + " \"violated\" ]");
  EXPECT_NEAR(p, 0.5, 1e-3);
}

TEST(BreachQuantile, MonotoneInQuantile) {
  AnalysisOptions options;
  options.nmax = 1;
  const SecurityAnalysis analysis(cs::architecture(1, Protection::kUnencrypted),
                                  cs::kMessage, SecurityCategory::kConfidentiality,
                                  options);
  const double q25 = breach_time_quantile(analysis, 0.25);
  const double q50 = breach_time_quantile(analysis, 0.5);
  const double q95 = breach_time_quantile(analysis, 0.95);
  EXPECT_LT(q25, q50);
  EXPECT_LT(q50, q95);
}

TEST(BreachQuantile, ArchitectureOrdering) {
  AnalysisOptions options;
  options.nmax = 1;
  const SecurityAnalysis arch1(cs::architecture(1, Protection::kUnencrypted),
                               cs::kMessage, SecurityCategory::kConfidentiality,
                               options);
  const SecurityAnalysis arch3(cs::architecture(3, Protection::kUnencrypted),
                               cs::kMessage, SecurityCategory::kConfidentiality,
                               options);
  EXPECT_GT(breach_time_quantile(arch3, 0.5), 3.0 * breach_time_quantile(arch1, 0.5));
}

TEST(BreachQuantile, InfiniteWhenUnreachableWithinMax) {
  AnalysisOptions options;
  options.nmax = 1;
  const SecurityAnalysis analysis(cs::architecture(3, Protection::kUnencrypted),
                                  cs::kMessage, SecurityCategory::kConfidentiality,
                                  options);
  // Tiny max horizon: even arch 3's first breach usually takes years.
  EXPECT_TRUE(std::isinf(breach_time_quantile(analysis, 0.99, /*max_years=*/0.001)));
}

/// The bisection run directly on P=?[F<=t "violated"], re-building the
/// absorbing chain at every step — the definition breach_time_quantile
/// must reproduce.
double direct_quantile(const SecurityAnalysis& analysis, double quantile) {
  const ctmc::Ctmc chain = analysis.space().to_ctmc();
  const std::vector<bool> violated = analysis.space().label_mask(kViolatedLabel);
  const std::vector<double> initial = analysis.space().initial_distribution();
  const std::vector<bool> all(chain.state_count(), true);
  const auto probability = [&](double t) {
    return ctmc::bounded_reachability(chain, initial, all, violated, t);
  };
  if (probability(100.0) < quantile) return std::numeric_limits<double>::infinity();
  double low = 0.0;
  double high = 100.0;
  while (high - low > 1e-4) {
    const double mid = 0.5 * (low + high);
    (probability(mid) >= quantile ? high : low) = mid;
  }
  return 0.5 * (low + high);
}

TEST(BreachQuantile, BuildsOneUniformizationPerCallAndMatchesDirectBisection) {
  AnalysisOptions options;
  options.nmax = 2;
  const SecurityAnalysis analysis(cs::architecture(1, Protection::kUnencrypted),
                                  cs::kMessage, SecurityCategory::kConfidentiality,
                                  options);
  util::metrics::Registry& metrics = util::metrics::registry();
  metrics.reset();
  metrics.set_enabled(true);
  for (const double q : {0.05, 0.25, 0.5, 0.95}) {
    const uint64_t before = metrics.counter_value("ctmc.uniformizations");
    const double quantile = breach_time_quantile(analysis, q);
    EXPECT_EQ(metrics.counter_value("ctmc.uniformizations"), before + 1) << q;
    EXPECT_EQ(quantile, direct_quantile(analysis, q)) << q;
  }
  metrics.set_enabled(false);
  metrics.reset();
}

TEST(BreachQuantile, HonoursTheSessionCancelToken) {
  AnalysisOptions options;
  options.nmax = 1;
  const SecurityAnalysis analysis(cs::architecture(1, Protection::kUnencrypted),
                                  cs::kMessage, SecurityCategory::kConfidentiality,
                                  options);
  auto token = std::make_shared<util::CancelToken>();
  token->cancel();
  analysis.session()->set_cancel_token(token);
  EXPECT_THROW(breach_time_quantile(analysis, 0.5), util::Cancelled);
}

TEST(BreachQuantile, InvalidArgumentsRejected) {
  AnalysisOptions options;
  options.nmax = 1;
  const SecurityAnalysis analysis(cs::architecture(1, Protection::kUnencrypted),
                                  cs::kMessage, SecurityCategory::kConfidentiality,
                                  options);
  EXPECT_THROW(breach_time_quantile(analysis, 0.0), std::invalid_argument);
  EXPECT_THROW(breach_time_quantile(analysis, 1.0), std::invalid_argument);
  EXPECT_THROW(breach_time_quantile(analysis, 0.5, -1.0), std::invalid_argument);
}

}  // namespace
}  // namespace autosec::automotive
