#include "assess/cvss.hpp"

#include <gtest/gtest.h>

namespace autosec::assess {
namespace {

TEST(Cvss, Table1Weights) {
  // Exactly the paper's Table 1.
  EXPECT_DOUBLE_EQ(weight(AccessVector::kLocal), 0.395);
  EXPECT_DOUBLE_EQ(weight(AccessVector::kAdjacentNetwork), 0.646);
  EXPECT_DOUBLE_EQ(weight(AccessVector::kNetwork), 1.0);
  EXPECT_DOUBLE_EQ(weight(AccessComplexity::kHigh), 0.35);
  EXPECT_DOUBLE_EQ(weight(AccessComplexity::kMedium), 0.61);
  EXPECT_DOUBLE_EQ(weight(AccessComplexity::kLow), 0.71);
  EXPECT_DOUBLE_EQ(weight(Authentication::kMultiple), 0.45);
  EXPECT_DOUBLE_EQ(weight(Authentication::kSingle), 0.56);
  EXPECT_DOUBLE_EQ(weight(Authentication::kNone), 0.704);
}

TEST(Cvss, PaperWorkedExampleTelematics) {
  // Section 3.2: AV:N/AC:H/Au:M gives sigma = 3.15 and eta = 1.85
  // (Table 2 rounds it to 1.9).
  const CvssVector v = parse_cvss_vector("AV:N/AC:H/Au:M");
  EXPECT_NEAR(v.exploitability_score(), 3.15, 1e-12);
  EXPECT_NEAR(v.exploitability_rate(), 1.85, 1e-12);
}

struct VectorRate {
  const char* vector;
  double table2_eta;  ///< the paper's rounded value
};

// Names each case by its vector. Without this, gtest prints the raw bytes,
// which include the string literal's address and so change with every run
// under ASLR, and CTest would register the cases under unstable names.
void PrintTo(const VectorRate& v, std::ostream* os) { *os << v.vector; }

class Table2Vectors : public ::testing::TestWithParam<VectorRate> {};

TEST_P(Table2Vectors, RateMatchesTable2UpToPrintedRounding) {
  const auto& [vector, table2_eta] = GetParam();
  const CvssVector v = parse_cvss_vector(vector);
  EXPECT_NEAR(v.exploitability_rate(), table2_eta, 0.0501)
      << vector << ": exact " << v.exploitability_rate();
}

INSTANTIATE_TEST_SUITE_P(
    PaperAssessments, Table2Vectors,
    ::testing::Values(VectorRate{"AV:A/AC:H/Au:S", 1.2},   // PA / PS / GW
                      VectorRate{"AV:A/AC:L/Au:S", 3.8},   // 3G bus iface
                      VectorRate{"AV:N/AC:H/Au:M", 1.9},   // 3G uplink
                      VectorRate{"AV:L/AC:H/Au:S", 0.2}    // bus guardian
                      ));

TEST(Cvss, RateClampsAtZero) {
  // AV:L/AC:H/Au:M -> sigma = 20*0.395*0.35*0.45 = 1.244 < 1.3.
  const CvssVector v = parse_cvss_vector("AV:L/AC:H/Au:M");
  EXPECT_LT(v.exploitability_score(), 1.3);
  EXPECT_DOUBLE_EQ(v.exploitability_rate(), 0.0);
}

TEST(Cvss, ToStringCanonicalForm) {
  CvssVector v;
  v.access_vector = AccessVector::kAdjacentNetwork;
  v.access_complexity = AccessComplexity::kHigh;
  v.authentication = Authentication::kSingle;
  EXPECT_EQ(v.to_string(), "AV:A/AC:H/Au:S");
}

TEST(Cvss, ParseRoundTrip) {
  for (const char* text : {"AV:L/AC:H/Au:M", "AV:A/AC:M/Au:S", "AV:N/AC:L/Au:N"}) {
    EXPECT_EQ(parse_cvss_vector(text).to_string(), text);
  }
}

TEST(Cvss, ParseAcceptsAnyComponentOrder) {
  EXPECT_EQ(parse_cvss_vector("Au:S/AV:A/AC:H").to_string(), "AV:A/AC:H/Au:S");
}

TEST(Cvss, ParseIgnoresImpactComponents) {
  // Full NVD-style CVSS v2 base vector.
  const CvssVector v = parse_cvss_vector("AV:N/AC:L/Au:N/C:P/I:P/A:P");
  EXPECT_EQ(v.to_string(), "AV:N/AC:L/Au:N");
}

TEST(Cvss, ParseIgnoresTemporalComponents) {
  // Regression: multi-letter temporal values (E:POC, RL:OF, RC:UR) used to be
  // rejected by the one-letter check before the ignore list was consulted.
  // Full NVD-style CVSS v2 base + temporal vector:
  const CvssVector v =
      parse_cvss_vector("AV:N/AC:H/Au:M/C:P/I:P/A:C/E:POC/RL:OF/RC:UR");
  EXPECT_EQ(v.to_string(), "AV:N/AC:H/Au:M");
  EXPECT_NEAR(v.exploitability_score(), 3.15, 1e-12);  // base score unaffected
}

TEST(Cvss, ParseIgnoredComponentsAcceptAnyValue) {
  // "not defined" markers and single letters are equally fine on ignored
  // components; the round trip always lands on the canonical base vector.
  for (const char* text :
       {"AV:A/AC:L/Au:S/E:ND", "AV:A/AC:L/Au:S/RL:TF/RC:C",
        "AV:A/AC:L/Au:S/E:F/RL:W", "E:POC/AV:A/RC:UC/AC:L/RL:OF/Au:S"}) {
    EXPECT_EQ(parse_cvss_vector(text).to_string(), "AV:A/AC:L/Au:S") << text;
  }
}

TEST(Cvss, ParseExploitabilityValuesStayStrictlyOneLetter) {
  // The ignore list must not loosen AV/AC/Au.
  EXPECT_THROW(parse_cvss_vector("AV:ND/AC:H/Au:S"), std::invalid_argument);
  EXPECT_THROW(parse_cvss_vector("AV:A/AC:ND/Au:S"), std::invalid_argument);
  EXPECT_THROW(parse_cvss_vector("AV:A/AC:H/Au:ND"), std::invalid_argument);
}

TEST(Cvss, ParseRejectsMalformedInput) {
  EXPECT_THROW(parse_cvss_vector(""), std::invalid_argument);
  EXPECT_THROW(parse_cvss_vector("AV:A"), std::invalid_argument);  // missing AC, Au
  EXPECT_THROW(parse_cvss_vector("AV:X/AC:H/Au:S"), std::invalid_argument);
  EXPECT_THROW(parse_cvss_vector("AV:A/AC:Q/Au:S"), std::invalid_argument);
  EXPECT_THROW(parse_cvss_vector("AV:A/AC:H/Au:Z"), std::invalid_argument);
  EXPECT_THROW(parse_cvss_vector("AVA/AC:H/Au:S"), std::invalid_argument);
  EXPECT_THROW(parse_cvss_vector("XX:A/AC:H/Au:S"), std::invalid_argument);
  EXPECT_THROW(parse_cvss_vector("AV:AA/AC:H/Au:S"), std::invalid_argument);
}

TEST(Cvss, ScoreFormulaIsEq11) {
  // sigma = 20 * AV * AC * Au for an arbitrary combination.
  CvssVector v;
  v.access_vector = AccessVector::kNetwork;
  v.access_complexity = AccessComplexity::kLow;
  v.authentication = Authentication::kNone;
  EXPECT_NEAR(v.exploitability_score(), 20.0 * 1.0 * 0.71 * 0.704, 1e-12);
}

TEST(Cvss, MaximalVectorGivesHighestRate) {
  const CvssVector max = parse_cvss_vector("AV:N/AC:L/Au:N");
  const CvssVector hardened = parse_cvss_vector("AV:L/AC:H/Au:M");
  EXPECT_GT(max.exploitability_rate(), hardened.exploitability_rate());
  EXPECT_NEAR(max.exploitability_score(), 9.9968, 1e-4);  // CVSS v2 max 10
}

TEST(Cvss, CodesMatchTable1Letters) {
  EXPECT_EQ(code(AccessVector::kLocal), "L");
  EXPECT_EQ(code(AccessVector::kAdjacentNetwork), "A");
  EXPECT_EQ(code(AccessVector::kNetwork), "N");
  EXPECT_EQ(code(AccessComplexity::kHigh), "H");
  EXPECT_EQ(code(Authentication::kNone), "N");
}

}  // namespace
}  // namespace autosec::assess
