#include "automotive/analyzer.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "automotive/casestudy.hpp"

namespace autosec::automotive {
namespace {

AnalysisOptions fast_options() {
  AnalysisOptions options;
  options.nmax = 1;  // keep unit tests quick; the benches use the paper's 2
  return options;
}

TEST(Analyzer, ResultBundleIsPopulated) {
  const Architecture arch = casestudy::architecture(1, Protection::kUnencrypted);
  const AnalysisResult result = analyze_message(
      arch, casestudy::kMessage, SecurityCategory::kConfidentiality, fast_options());
  EXPECT_EQ(result.architecture, "Architecture 1");
  EXPECT_EQ(result.message, casestudy::kMessage);
  EXPECT_GT(result.state_count, 1u);
  EXPECT_GT(result.transition_count, 0u);
  EXPECT_GT(result.exploitable_fraction, 0.0);
  EXPECT_LT(result.exploitable_fraction, 1.0);
  EXPECT_GT(result.breach_probability, result.exploitable_fraction);
  EXPECT_LE(result.breach_probability, 1.0);
  EXPECT_GT(result.steady_state_fraction, 0.0);
}

TEST(Analyzer, CheckArbitraryPropertyOnSession) {
  const Architecture arch = casestudy::architecture(1, Protection::kUnencrypted);
  const SecurityAnalysis analysis(arch, casestudy::kMessage,
                                  SecurityCategory::kConfidentiality, fast_options());
  const double p_3g = analysis.check("P=? [ F<=1 \"ecu_3g_exploited\" ]");
  const double p_pa = analysis.check("P=? [ F<=1 \"ecu_pa_exploited\" ]");
  EXPECT_GT(p_3g, 0.5);  // internet-facing, eta 1.9 within a year
  EXPECT_GT(p_3g, p_pa); // the entry point falls before devices behind it
}

TEST(Analyzer, Figure5ShapeConfidentiality) {
  // AES strictly improves confidentiality; CMAC does not (equals unencrypted).
  const double unencrypted =
      analyze_message(casestudy::architecture(1, Protection::kUnencrypted),
                      casestudy::kMessage, SecurityCategory::kConfidentiality,
                      fast_options()).exploitable_fraction;
  const double cmac =
      analyze_message(casestudy::architecture(1, Protection::kCmac128),
                      casestudy::kMessage, SecurityCategory::kConfidentiality,
                      fast_options()).exploitable_fraction;
  const double aes =
      analyze_message(casestudy::architecture(1, Protection::kAes128),
                      casestudy::kMessage, SecurityCategory::kConfidentiality,
                      fast_options()).exploitable_fraction;
  EXPECT_NEAR(cmac, unencrypted, 1e-12);
  EXPECT_LT(aes, unencrypted);
  EXPECT_GT(aes, 0.0);
}

TEST(Analyzer, Figure5ShapeIntegrity) {
  // CMAC and AES both provide integrity (same eta): equal, below unencrypted.
  const double unencrypted =
      analyze_message(casestudy::architecture(1, Protection::kUnencrypted),
                      casestudy::kMessage, SecurityCategory::kIntegrity,
                      fast_options()).exploitable_fraction;
  const double cmac =
      analyze_message(casestudy::architecture(1, Protection::kCmac128),
                      casestudy::kMessage, SecurityCategory::kIntegrity,
                      fast_options()).exploitable_fraction;
  const double aes =
      analyze_message(casestudy::architecture(1, Protection::kAes128),
                      casestudy::kMessage, SecurityCategory::kIntegrity,
                      fast_options()).exploitable_fraction;
  EXPECT_LT(cmac, unencrypted);
  EXPECT_NEAR(cmac, aes, 1e-12);
}

TEST(Analyzer, Figure5ShapeAvailabilityIgnoresProtection) {
  const double unencrypted =
      analyze_message(casestudy::architecture(1, Protection::kUnencrypted),
                      casestudy::kMessage, SecurityCategory::kAvailability,
                      fast_options()).exploitable_fraction;
  const double aes =
      analyze_message(casestudy::architecture(1, Protection::kAes128),
                      casestudy::kMessage, SecurityCategory::kAvailability,
                      fast_options()).exploitable_fraction;
  EXPECT_NEAR(unencrypted, aes, 1e-12);
}

TEST(Analyzer, Figure5ShapeFlexRayArchitectureIsFarMoreSecure) {
  for (const SecurityCategory category :
       {SecurityCategory::kConfidentiality, SecurityCategory::kIntegrity,
        SecurityCategory::kAvailability}) {
    const double arch1 =
        analyze_message(casestudy::architecture(1, Protection::kUnencrypted),
                        casestudy::kMessage, category, fast_options())
            .exploitable_fraction;
    const double arch3 =
        analyze_message(casestudy::architecture(3, Protection::kUnencrypted),
                        casestudy::kMessage, category, fast_options())
            .exploitable_fraction;
    EXPECT_LT(arch3, arch1 / 3.0) << category_name(category);
    EXPECT_GT(arch3, 0.0);
  }
}

TEST(Analyzer, ConstantOverridesDriveParameterExploration) {
  // Fig. 6(a) mechanism: raising the 3G patch rate lowers exposure.
  const Architecture arch = casestudy::architecture(1, Protection::kUnencrypted);
  AnalysisOptions slow_patch = fast_options();
  slow_patch.constant_overrides = {
      {ecu_phi_constant(casestudy::kTelematics), symbolic::Value::of(0.5)}};
  AnalysisOptions fast_patch = fast_options();
  fast_patch.constant_overrides = {
      {ecu_phi_constant(casestudy::kTelematics), symbolic::Value::of(500.0)}};
  const double exposed_slow =
      analyze_message(arch, casestudy::kMessage, SecurityCategory::kConfidentiality,
                      slow_patch).exploitable_fraction;
  const double exposed_fast =
      analyze_message(arch, casestudy::kMessage, SecurityCategory::kConfidentiality,
                      fast_patch).exploitable_fraction;
  EXPECT_GT(exposed_slow, exposed_fast * 2.0);
}

TEST(Analyzer, NmaxTwoRefinesButKeepsOrdering) {
  AnalysisOptions paper = fast_options();
  paper.nmax = 2;
  const double arch1 =
      analyze_message(casestudy::architecture(1, Protection::kUnencrypted),
                      casestudy::kMessage, SecurityCategory::kAvailability, paper)
          .exploitable_fraction;
  const double arch3 =
      analyze_message(casestudy::architecture(3, Protection::kUnencrypted),
                      casestudy::kMessage, SecurityCategory::kAvailability, paper)
          .exploitable_fraction;
  EXPECT_LT(arch3, arch1);
}

TEST(Analyzer, MeanTimeToBreachIsConsistent) {
  const Architecture arch = casestudy::architecture(1, Protection::kUnencrypted);
  const AnalysisResult result = analyze_message(
      arch, casestudy::kMessage, SecurityCategory::kConfidentiality, fast_options());
  ASSERT_TRUE(std::isfinite(result.mean_time_to_breach));
  EXPECT_GT(result.mean_time_to_breach, 0.0);
  // Sanity: with a breach probability of p in year one, the mean time to
  // breach cannot exceed the mean of a geometric year count by much; for
  // Architecture 1 (p ~ 0.85) it lands well under 2 years.
  EXPECT_LT(result.mean_time_to_breach, 2.0);
}

TEST(Analyzer, MeanTimeToBreachOrdersArchitectures) {
  const double t1 = analyze_message(casestudy::architecture(1, Protection::kUnencrypted),
                                    casestudy::kMessage,
                                    SecurityCategory::kConfidentiality, fast_options())
                        .mean_time_to_breach;
  const double t3 = analyze_message(casestudy::architecture(3, Protection::kUnencrypted),
                                    casestudy::kMessage,
                                    SecurityCategory::kConfidentiality, fast_options())
                        .mean_time_to_breach;
  EXPECT_GT(t3, 5.0 * t1);  // FlexRay delays the first breach dramatically
}

TEST(Analyzer, AnalyzeArchitectureCoversAllMessagesAndCategories) {
  Architecture arch = casestudy::architecture(1, Protection::kUnencrypted);
  Message second = arch.messages[0];
  second.name = "m2";
  second.protection = Protection::kAes128;
  arch.messages.push_back(second);

  const auto results = analyze_architecture_report(arch, fast_options()).results;
  ASSERT_EQ(results.size(), 6u);  // 2 messages x 3 categories
  EXPECT_EQ(results[0].message, "m");
  EXPECT_EQ(results[3].message, "m2");
  EXPECT_EQ(results[0].category, SecurityCategory::kConfidentiality);
  EXPECT_EQ(results[2].category, SecurityCategory::kAvailability);
  // AES m2 is more confidential than unencrypted m.
  EXPECT_LT(results[3].exploitable_fraction, results[0].exploitable_fraction);
}

TEST(Analyzer, AnalyzeArchitectureWithCategorySubset) {
  const Architecture arch = casestudy::architecture(1, Protection::kUnencrypted);
  const auto results =
      analyze_architecture_report(arch, fast_options(), {SecurityCategory::kAvailability})
          .results;
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].category, SecurityCategory::kAvailability);
}

TEST(Analyzer, HorizonScalesBreachProbability) {
  const Architecture arch = casestudy::architecture(1, Protection::kUnencrypted);
  AnalysisOptions short_horizon = fast_options();
  short_horizon.horizon_years = 0.1;
  AnalysisOptions long_horizon = fast_options();
  long_horizon.horizon_years = 2.0;
  const double p_short =
      analyze_message(arch, casestudy::kMessage, SecurityCategory::kConfidentiality,
                      short_horizon).breach_probability;
  const double p_long =
      analyze_message(arch, casestudy::kMessage, SecurityCategory::kConfidentiality,
                      long_horizon).breach_probability;
  EXPECT_LT(p_short, p_long);
}


// --- staged batch engine --------------------------------------------------

TEST(Analyzer, BatchReportExploresExactlyOncePerOverrideSet) {
  const Architecture arch = casestudy::architecture(1, Protection::kAes128);
  const ArchitectureReport report =
      analyze_architecture_report(arch, fast_options());
  // The acceptance counter: one combined model serves every (message,
  // category) pair — a single compile and a single exploration.
  EXPECT_EQ(report.stats.compile_count, 1u);
  EXPECT_EQ(report.stats.explore_count, 1u);
  EXPECT_EQ(report.results.size(), arch.messages.size() * 3);
  EXPECT_EQ(report.stats.check_count, report.results.size() * 4);
}

TEST(Analyzer, BatchReportMatchesLegacyPerPairModels) {
  const Architecture arch = casestudy::architecture(2, Protection::kCmac128);

  // Reference: each pair analyzed on its own single-pair model.
  std::vector<AnalysisResult> reference;
  for (const Message& message : arch.messages) {
    for (const SecurityCategory category :
         {SecurityCategory::kConfidentiality, SecurityCategory::kIntegrity,
          SecurityCategory::kAvailability}) {
      reference.push_back(analyze_message(arch, message.name, category, fast_options()));
    }
  }

  const std::vector<AnalysisResult> batch =
      analyze_architecture_report(arch, fast_options()).results;

  ASSERT_EQ(batch.size(), reference.size());
  for (size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(batch[i].message, reference[i].message);
    EXPECT_EQ(batch[i].category, reference[i].category);
    EXPECT_NEAR(batch[i].exploitable_fraction, reference[i].exploitable_fraction,
                1e-9);
    EXPECT_NEAR(batch[i].breach_probability, reference[i].breach_probability, 1e-9);
    EXPECT_NEAR(batch[i].steady_state_fraction, reference[i].steady_state_fraction,
                1e-9);
    if (std::isinf(reference[i].mean_time_to_breach)) {
      EXPECT_TRUE(std::isinf(batch[i].mean_time_to_breach));
    } else {
      EXPECT_NEAR(batch[i].mean_time_to_breach, reference[i].mean_time_to_breach,
                  1e-9 * std::max(1.0, reference[i].mean_time_to_breach));
    }
  }
}

TEST(Analyzer, SingleModelOverridesApplyToEveryPair) {
  const Architecture arch = casestudy::architecture(1, Protection::kAes128);
  for (const char* constant : {kMessageEtaConstant, kMessagePhiConstant}) {
    AnalysisOptions options = fast_options();
    options.constant_overrides = {{constant, symbolic::Value::of(0.5)}};
    // The single-model name reaches every pair's own protection constant of
    // the one batch model.
    const ArchitectureReport report = analyze_architecture_report(
        arch, options, {SecurityCategory::kConfidentiality});
    EXPECT_EQ(report.stats.explore_count, 1u) << constant;
    ASSERT_EQ(report.results.size(), arch.messages.size()) << constant;
    for (const AnalysisResult& result : report.results) {
      const AnalysisResult reference = analyze_message(
          arch, result.message, SecurityCategory::kConfidentiality, options);
      EXPECT_NEAR(result.exploitable_fraction, reference.exploitable_fraction, 1e-9)
          << constant;
      EXPECT_NEAR(result.breach_probability, reference.breach_probability, 1e-9)
          << constant;
      EXPECT_NEAR(result.steady_state_fraction, reference.steady_state_fraction, 1e-9)
          << constant;
      if (std::isinf(reference.mean_time_to_breach)) {
        EXPECT_TRUE(std::isinf(result.mean_time_to_breach)) << constant;
      } else {
        EXPECT_NEAR(result.mean_time_to_breach, reference.mean_time_to_breach,
                    1e-9 * std::max(1.0, reference.mean_time_to_breach))
            << constant;
      }
    }

    // Availability has no protection module, so its pair does not declare
    // the constant: the same typed error a single-pair model raises.
    EXPECT_THROW(analyze_architecture_report(arch, options,
                                             {SecurityCategory::kConfidentiality,
                                              SecurityCategory::kAvailability}),
                 symbolic::ModelError)
        << constant;
  }
}

}  // namespace
}  // namespace autosec::automotive
