// End-to-end integration: PRISM-language source -> parse -> compile ->
// explore -> check, and the full automotive pipeline round-tripped through
// the PRISM writer.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "automotive/analyzer.hpp"
#include "automotive/casestudy.hpp"
#include "automotive/transform.hpp"
#include "csl/session.hpp"
#include "symbolic/explorer.hpp"
#include "symbolic/parser.hpp"
#include "symbolic/writer.hpp"

namespace autosec {
namespace {

TEST(EndToEnd, TextualModelToQuantitativeResult) {
  // A hand-written PRISM file of the paper's Fig. 3 example.
  const char* source = R"(ctmc

const double eta3g = 2;
const double etamc = 2;
const double phi3g = 52;
const double phimc = 52;

module example
  a : [0..1] init 0;
  c : [0..1] init 0;
  [] a=0 -> eta3g : (a'=1);
  [] a=1 -> phi3g : (a'=0) & (c'=0);
  [] a=1 & c=0 -> etamc : (c'=1);
  [] c=1 -> phimc : (c'=0);
endmodule

label "s2" = a=1 & c=1;

rewards "in_s2"
  a=1 & c=1 : 1;
endrewards
)";
  const symbolic::Model model = symbolic::parse_model(source);
  const symbolic::CompiledModel compiled = symbolic::compile(model);
  const symbolic::StateSpace space = symbolic::explore(compiled);
  ASSERT_EQ(space.state_count(), 3u);
  csl::EngineSession session(std::make_shared<const symbolic::StateSpace>(space));
  // Eq. (15): steady-state probability of s2.
  EXPECT_NEAR(session.check("S=? [ \"s2\" ]"), 0.000699, 5e-7);
}

TEST(EndToEnd, GeneratedAutomotiveModelSurvivesPrismRoundTrip) {
  const automotive::Architecture arch =
      automotive::casestudy::architecture(1, automotive::Protection::kAes128);
  automotive::TransformOptions options;
  options.message = automotive::casestudy::kMessage;
  options.category = automotive::SecurityCategory::kConfidentiality;
  options.nmax = 1;
  const symbolic::Model generated = automotive::transform(arch, options);

  const std::string prism_text = symbolic::write_model(generated);
  const symbolic::Model reparsed = symbolic::parse_model(prism_text);

  const symbolic::CompiledModel ca = symbolic::compile(generated);
  const symbolic::CompiledModel cb = symbolic::compile(reparsed);
  const symbolic::StateSpace sa = symbolic::explore(ca);
  const symbolic::StateSpace sb = symbolic::explore(cb);
  ASSERT_EQ(sa.state_count(), sb.state_count());
  ASSERT_EQ(sa.transition_count(), sb.transition_count());

  csl::EngineSession session_a(std::make_shared<const symbolic::StateSpace>(sa));
  csl::EngineSession session_b(std::make_shared<const symbolic::StateSpace>(sb));
  const char* property = "R{\"exposure\"}=? [ C<=1 ]";
  EXPECT_NEAR(session_a.check(property), session_b.check(property), 1e-12);
}

TEST(EndToEnd, CheckerAgreesWithAnalyzerDriver) {
  const automotive::Architecture arch =
      automotive::casestudy::architecture(2, automotive::Protection::kCmac128);
  automotive::AnalysisOptions options;
  options.nmax = 1;
  const automotive::SecurityAnalysis analysis(
      arch, automotive::casestudy::kMessage,
      automotive::SecurityCategory::kIntegrity, options);
  const automotive::AnalysisResult result = analysis.result();
  EXPECT_NEAR(result.exploitable_fraction,
              analysis.check("R{\"exposure\"}=? [ C<=1 ]"), 1e-12);
  EXPECT_NEAR(result.breach_probability,
              analysis.check("P=? [ F<=1 \"violated\" ]"), 1e-12);
  EXPECT_NEAR(result.steady_state_fraction, analysis.check("S=? [ \"violated\" ]"),
              1e-12);
}

TEST(EndToEnd, SteadyStateExceedsFirstYearFraction) {
  // The chain starts all-secure, so the first-year exposure fraction is below
  // the long-run fraction; both must be positive.
  const automotive::Architecture arch =
      automotive::casestudy::architecture(1, automotive::Protection::kUnencrypted);
  automotive::AnalysisOptions options;
  options.nmax = 1;
  const automotive::AnalysisResult result = automotive::analyze_message(
      arch, automotive::casestudy::kMessage,
      automotive::SecurityCategory::kConfidentiality, options);
  EXPECT_GT(result.steady_state_fraction, result.exploitable_fraction);
}

TEST(EndToEnd, AllCategoriesAllArchitecturesProduceFiniteResults) {
  automotive::AnalysisOptions options;
  options.nmax = 1;
  for (int which = 1; which <= 3; ++which) {
    for (const auto protection :
         {automotive::Protection::kUnencrypted, automotive::Protection::kCmac128,
          automotive::Protection::kAes128}) {
      for (const auto category : {automotive::SecurityCategory::kConfidentiality,
                                  automotive::SecurityCategory::kIntegrity,
                                  automotive::SecurityCategory::kAvailability}) {
        const automotive::AnalysisResult result = automotive::analyze_message(
            automotive::casestudy::architecture(which, protection),
            automotive::casestudy::kMessage, category, options);
        EXPECT_TRUE(std::isfinite(result.exploitable_fraction));
        EXPECT_GE(result.exploitable_fraction, 0.0);
        EXPECT_LE(result.exploitable_fraction, 1.0);
        EXPECT_GE(result.breach_probability, result.exploitable_fraction - 1e-12);
      }
    }
  }
}

}  // namespace
}  // namespace autosec
