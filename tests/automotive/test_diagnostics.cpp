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

/// Criticality of the case-study message's `category` model of `arch`, on
/// the pair session diagnose builds (nmax 1 unless `options` says otherwise).
std::vector<Criticality> criticality_of(const Architecture& arch,
                                        SecurityCategory category,
                                        const AnalysisOptions& options = {}) {
  const SecurityAnalysis analysis(arch, cs::kMessage, category, options);
  return criticality_analysis(analysis);
}

/// Exposure fraction of one perturbation, solved without an engine session:
/// compile, explore, then the expected violated-time fraction over the
/// horizon — the direct pipeline criticality_analysis must reproduce.
double direct_exposure(const symbolic::Model& model, const AnalysisOptions& options,
                       csl::OverrideSet overrides) {
  for (const auto& base : options.constant_overrides) overrides.push_back(base);
  const symbolic::StateSpace space =
      symbolic::explore(symbolic::compile(model, overrides));
  return ctmc::expected_time_fraction(space.chain(), space.initial_distribution(),
                                      space.label_mask(kViolatedLabel),
                                      options.horizon_years);
}

TEST(Criticality, ReproducesDirectPerturbationSolvesBitForBit) {
  AnalysisOptions options;
  options.nmax = 2;
  options.horizon_years = 0.75;
  options.constant_overrides = {{"phi_gw", symbolic::Value::of(40.0)}};
  const Architecture arch = cs::architecture(1, Protection::kUnencrypted);
  const auto result = criticality_of(arch, SecurityCategory::kIntegrity, options);
  ASSERT_EQ(result.size(), 10u);

  const symbolic::Model model =
      pair_model(arch, cs::kMessage, SecurityCategory::kIntegrity, options);
  const double h = 0.25;  // criticality_analysis's default relative step
  for (const Criticality& c : result) {
    const double low = direct_exposure(
        model, options, {{c.constant, symbolic::Value::of(c.base_value / (1.0 + h))}});
    const double high = direct_exposure(
        model, options, {{c.constant, symbolic::Value::of(c.base_value * (1.0 + h))}});
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
  // The token expires after the pair space is built: the perturbation points
  // on the same session must stop.
  AnalysisOptions options;
  options.cancel = std::make_shared<util::CancelToken>();
  const SecurityAnalysis analysis(cs::architecture(1, Protection::kUnencrypted),
                                  cs::kMessage, SecurityCategory::kConfidentiality,
                                  options);
  options.cancel->cancel();
  EXPECT_THROW(criticality_analysis(analysis), util::Cancelled);
}

TEST(Criticality, StateBudgetFailsWithTypedError) {
  // Arch 1 at nmax 2 has 729 states per perturbed model; the budget is armed
  // on the pair session after its own space is built.
  AnalysisOptions options;
  options.nmax = 2;
  const SecurityAnalysis analysis(cs::architecture(1, Protection::kUnencrypted),
                                  cs::kMessage, SecurityCategory::kConfidentiality,
                                  options);
  analysis.session()->set_resource_budget(
      std::make_shared<util::ResourceBudget>(100, 0));
  try {
    criticality_analysis(analysis);
    FAIL() << "a 100-state budget must stop a 729-state exploration";
  } catch (const util::EngineFailure& failure) {
    EXPECT_EQ(failure.code(), util::FailureCode::kStateBudgetExceeded);
    EXPECT_EQ(failure.stage(), "explore");
  }
}

TEST(Criticality, CoversEveryRateConstant) {
  const auto result = criticality_of(cs::architecture(1, Protection::kUnencrypted),
                                     SecurityCategory::kConfidentiality);
  // Arch 1: 6 interface etas + 4 ECU phis = 10 rate constants.
  EXPECT_EQ(result.size(), 10u);
  // Sorted by |elasticity| descending.
  for (size_t i = 1; i < result.size(); ++i) {
    EXPECT_GE(std::abs(result[i - 1].elasticity), std::abs(result[i].elasticity));
  }
}

TEST(Criticality, SignsMatchRateSemantics) {
  const auto result = criticality_of(cs::architecture(1, Protection::kUnencrypted),
                                     SecurityCategory::kConfidentiality);
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
  const auto result = criticality_of(cs::architecture(1, Protection::kUnencrypted),
                                     SecurityCategory::kConfidentiality);
  ASSERT_GE(result.size(), 3u);
  const std::vector<std::string> top = {result[0].constant, result[1].constant,
                                        result[2].constant};
  const bool has_3g = std::find(top.begin(), top.end(), "eta_3g_net") != top.end() ||
                      std::find(top.begin(), top.end(), "phi_3g") != top.end();
  EXPECT_TRUE(has_3g) << "top-3: " << top[0] << ", " << top[1] << ", " << top[2];
}

TEST(Criticality, BaseValuesMatchTable2) {
  const auto result = criticality_of(cs::architecture(1, Protection::kUnencrypted),
                                     SecurityCategory::kConfidentiality);
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
  const auto result = criticality_of(cs::architecture(1, Protection::kAes128),
                                     SecurityCategory::kConfidentiality);
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

/// First-breach attribution of `category` for the case-study message, on a
/// pair session built the way diagnose builds it.
BreachAttributionResult attribution_of(const Architecture& arch,
                                       SecurityCategory category) {
  AnalysisOptions options;
  options.nmax = 1;
  const SecurityAnalysis analysis(arch, cs::kMessage, category, options);
  return first_breach_attribution(arch, FirstBreachChain(analysis));
}

TEST(BreachAttribution, TotalMatchesBreachProbability) {
  AnalysisOptions options;
  options.nmax = 1;
  const Architecture arch = cs::architecture(1, Protection::kUnencrypted);
  const auto attribution = attribution_of(arch, SecurityCategory::kConfidentiality);
  const AnalysisResult result = analyze_message(
      arch, cs::kMessage, SecurityCategory::kConfidentiality, options);
  EXPECT_NEAR(attribution.total_breach_probability, result.breach_probability, 1e-9);
}

TEST(BreachAttribution, TelematicsIsTheDoorInArchitecture1) {
  const auto attribution = attribution_of(cs::architecture(1, Protection::kUnencrypted),
                                          SecurityCategory::kConfidentiality);
  ASSERT_FALSE(attribution.attributions.empty());
  EXPECT_EQ(attribution.attributions[0].component, cs::kTelematics);
  // Nearly every first breach involves the compromised telematics unit.
  EXPECT_GT(attribution.attributions[0].probability,
            0.9 * attribution.total_breach_probability);
}

TEST(BreachAttribution, SharesAreProbabilities) {
  const auto attribution = attribution_of(cs::architecture(2, Protection::kAes128),
                                          SecurityCategory::kIntegrity);
  for (const BreachAttribution& a : attribution.attributions) {
    EXPECT_GT(a.probability, 0.0);
    EXPECT_LE(a.probability, attribution.total_breach_probability + 1e-12);
  }
}

TEST(BreachAttribution, GuardianShowsUpInArchitecture3) {
  const auto attribution = attribution_of(cs::architecture(3, Protection::kUnencrypted),
                                          SecurityCategory::kAvailability);
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
  const auto attribution = attribution_of(arch, SecurityCategory::kConfidentiality);
  const bool has_protection = std::any_of(
      attribution.attributions.begin(), attribution.attributions.end(),
      [](const BreachAttribution& a) { return a.component == "protection"; });
  EXPECT_TRUE(has_protection);
}

TEST(BreachAttribution, HonoursTheSessionCancelToken) {
  // The token expires after the pair space is built: the attribution's own
  // transient solve must stop, not run to the horizon.
  const Architecture arch = cs::architecture(1, Protection::kUnencrypted);
  AnalysisOptions options;
  options.nmax = 1;
  options.cancel = std::make_shared<util::CancelToken>();
  const SecurityAnalysis analysis(arch, cs::kMessage,
                                  SecurityCategory::kConfidentiality, options);
  options.cancel->cancel();
  EXPECT_THROW(first_breach_attribution(arch, FirstBreachChain(analysis)),
               util::Cancelled);
}

TEST(BreachQuantile, MatchesBoundedReachabilityInversion) {
  AnalysisOptions options;
  options.nmax = 1;
  const SecurityAnalysis analysis(cs::architecture(1, Protection::kUnencrypted),
                                  cs::kMessage, SecurityCategory::kConfidentiality,
                                  options);
  const double median = breach_time_quantile(FirstBreachChain(analysis), 0.5);
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
  const FirstBreachChain stopped(analysis);
  const double q25 = breach_time_quantile(stopped, 0.25);
  const double q50 = breach_time_quantile(stopped, 0.5);
  const double q95 = breach_time_quantile(stopped, 0.95);
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
  EXPECT_GT(breach_time_quantile(FirstBreachChain(arch3), 0.5),
            3.0 * breach_time_quantile(FirstBreachChain(arch1), 0.5));
}

TEST(BreachQuantile, InfiniteWhenUnreachableWithinMax) {
  AnalysisOptions options;
  options.nmax = 1;
  const SecurityAnalysis analysis(cs::architecture(3, Protection::kUnencrypted),
                                  cs::kMessage, SecurityCategory::kConfidentiality,
                                  options);
  // Tiny max horizon: even arch 3's first breach usually takes years.
  EXPECT_TRUE(std::isinf(
      breach_time_quantile(FirstBreachChain(analysis), 0.99, /*max_years=*/0.001)));
}

/// The bisection run directly on P=?[F<=t "violated"], re-building the
/// absorbing chain at every step — the definition breach_time_quantile
/// must reproduce.
double direct_quantile(const SecurityAnalysis& analysis, double quantile) {
  const ctmc::Ctmc& chain = analysis.space().chain();
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
  // One diagnosis uniformizes one absorbing chain, for the attribution and
  // every quantile, and each quantile is the direct bisection's bit for bit.
  AnalysisOptions options;
  options.nmax = 2;
  const Architecture arch = cs::architecture(1, Protection::kUnencrypted);
  const SecurityAnalysis analysis(arch, cs::kMessage,
                                  SecurityCategory::kConfidentiality, options);
  util::metrics::Registry& metrics = util::metrics::registry();
  metrics.reset();
  metrics.set_enabled(true);
  const FirstBreachChain stopped(analysis);
  first_breach_attribution(arch, stopped);
  std::vector<double> quantiles;
  for (const double q : kBreachQuantiles) {
    quantiles.push_back(breach_time_quantile(stopped, q));
  }
  EXPECT_EQ(metrics.counter_value("ctmc.uniformizations"), 1u);
  metrics.set_enabled(false);
  metrics.reset();
  for (size_t i = 0; i < kBreachQuantiles.size(); ++i) {
    EXPECT_EQ(quantiles[i], direct_quantile(analysis, kBreachQuantiles[i]))
        << kBreachQuantiles[i];
  }
}

TEST(Diagnose, ArchOneAtNmaxTwoExploresTwiceAndUniformizesOncePerPointPlusOnce) {
  // 10 rate constants, two points each, plus the one pair session: the pair
  // session's explore, one explore that records the rate-only family and 19
  // refills from it; 21 compiles, and 21 uniformizations (each point's base
  // chain, then the pair's absorbing chain).
  AnalysisOptions options;
  options.nmax = 2;
  const Architecture arch = cs::architecture(1, Protection::kUnencrypted);
  util::metrics::Registry& metrics = util::metrics::registry();
  metrics.reset();
  metrics.set_enabled(true);
  const Diagnosis diagnosis =
      diagnose(arch, cs::kMessage, SecurityCategory::kConfidentiality, options);
  EXPECT_EQ(metrics.counter_value("session.explores"), 2u);
  EXPECT_EQ(metrics.counter_value("session.refills"), 19u);
  EXPECT_EQ(metrics.counter_value("session.compiles"), 21u);
  EXPECT_EQ(metrics.counter_value("ctmc.uniformizations"), 21u);
  metrics.set_enabled(false);
  metrics.reset();

  // The parts are the ones the building blocks answer on their own.
  const SecurityAnalysis analysis(arch, cs::kMessage,
                                  SecurityCategory::kConfidentiality, options);
  EXPECT_EQ(diagnosis.state_count, 729u);
  const std::vector<Criticality> criticality = criticality_analysis(analysis);
  ASSERT_EQ(diagnosis.criticality.size(), criticality.size());
  for (size_t i = 0; i < criticality.size(); ++i) {
    EXPECT_EQ(diagnosis.criticality[i].constant, criticality[i].constant);
    EXPECT_EQ(diagnosis.criticality[i].elasticity, criticality[i].elasticity);
  }
  const FirstBreachChain stopped(analysis);
  const BreachAttributionResult attribution = first_breach_attribution(arch, stopped);
  EXPECT_EQ(diagnosis.first_breach.total_breach_probability,
            attribution.total_breach_probability);
  ASSERT_EQ(diagnosis.first_breach.attributions.size(), attribution.attributions.size());
  for (size_t i = 0; i < attribution.attributions.size(); ++i) {
    EXPECT_EQ(diagnosis.first_breach.attributions[i].component,
              attribution.attributions[i].component);
    EXPECT_EQ(diagnosis.first_breach.attributions[i].probability,
              attribution.attributions[i].probability);
  }
  ASSERT_EQ(diagnosis.quantiles.size(), kBreachQuantiles.size());
  for (size_t i = 0; i < kBreachQuantiles.size(); ++i) {
    EXPECT_EQ(diagnosis.quantiles[i].quantile, kBreachQuantiles[i]);
    EXPECT_EQ(diagnosis.quantiles[i].years,
              breach_time_quantile(stopped, kBreachQuantiles[i]));
  }
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
  EXPECT_THROW(breach_time_quantile(FirstBreachChain(analysis), 0.5), util::Cancelled);
}

TEST(BreachQuantile, InvalidArgumentsRejected) {
  AnalysisOptions options;
  options.nmax = 1;
  const SecurityAnalysis analysis(cs::architecture(1, Protection::kUnencrypted),
                                  cs::kMessage, SecurityCategory::kConfidentiality,
                                  options);
  const FirstBreachChain stopped(analysis);
  EXPECT_THROW(breach_time_quantile(stopped, 0.0), std::invalid_argument);
  EXPECT_THROW(breach_time_quantile(stopped, 1.0), std::invalid_argument);
  EXPECT_THROW(breach_time_quantile(stopped, 0.5, -1.0), std::invalid_argument);
}

}  // namespace
}  // namespace autosec::automotive
