// Tests for the Section-5 future-work extensions: Ethernet backbones and the
// combined security + reliability analysis.
#include <gtest/gtest.h>

#include <cmath>

#include "automotive/analyzer.hpp"
#include "automotive/casestudy.hpp"
#include "symbolic/explorer.hpp"

namespace autosec::automotive {
namespace {

/// NET -> A -> BUS -> B with a configurable backbone technology.
Architecture backbone(BusKind kind) {
  Architecture arch;
  arch.name = "backbone";
  arch.buses.push_back({"NET", BusKind::kInternet, std::nullopt, std::nullopt});
  Bus bus;
  bus.name = "BUS";
  bus.kind = kind;
  if (kind == BusKind::kFlexRay) bus.guardian = GuardianSpec{1.2, 12.0};
  if (kind == BusKind::kEthernet) bus.eth_switch = SwitchSpec{1.2, 12.0};
  arch.buses.push_back(bus);
  arch.ecus.push_back({"A", 52.0, std::nullopt,
                       {{"NET", 1.9, std::nullopt}, {"BUS", 3.8, std::nullopt}},
                       std::nullopt});
  arch.ecus.push_back({"B", 4.0, std::nullopt, {{"BUS", 1.2, std::nullopt}},
                       std::nullopt});
  Message m;
  m.name = "m";
  m.sender = "A";
  m.receivers = {"B"};
  m.buses = {"BUS"};
  arch.messages = {m};
  return arch;
}

double availability_exposure(const Architecture& arch, AnalysisOptions options = {}) {
  options.nmax = 1;
  return analyze_message(arch, "m", SecurityCategory::kAvailability, options)
      .exploitable_fraction;
}

TEST(Ethernet, ValidationRequiresSwitchSpec) {
  Architecture arch = backbone(BusKind::kEthernet);
  EXPECT_NO_THROW(arch.validate());
  arch.buses[1].eth_switch.reset();
  EXPECT_THROW(arch.validate(), ArchitectureError);
}

TEST(Ethernet, SwitchOnNonEthernetRejected) {
  Architecture arch = backbone(BusKind::kCan);
  arch.buses[1].eth_switch = SwitchSpec{};
  EXPECT_THROW(arch.validate(), ArchitectureError);
}

TEST(Ethernet, BusKindName) {
  EXPECT_EQ(bus_kind_name(BusKind::kEthernet), "Ethernet");
}

TEST(Ethernet, SwitchedSegmentBeatsSharedCan) {
  // Availability on Ethernet requires the switch to fall; on CAN any attached
  // compromised ECU suffices.
  const double can = availability_exposure(backbone(BusKind::kCan));
  const double eth = availability_exposure(backbone(BusKind::kEthernet));
  EXPECT_LT(eth, can);
  EXPECT_GT(eth, 0.0);
}

TEST(Ethernet, ComparableToFlexRayWithEqualGatekeeperRates) {
  // With identical gatekeeper (guardian/switch) rates the two technologies
  // land in the same regime: FlexRay needs guardian AND a compromised node
  // simultaneously (guardian attackable unconditionally by default), the
  // switched segment needs only the switch, which in turn required a node
  // foothold to fall. Neither strictly dominates; they agree within ~20%.
  const double fr = availability_exposure(backbone(BusKind::kFlexRay));
  const double eth = availability_exposure(backbone(BusKind::kEthernet));
  EXPECT_GT(eth, fr * 0.8);
  EXPECT_LT(eth, fr * 1.25);
}

TEST(Ethernet, EndpointCompromiseStillViolatesConfidentiality) {
  // Eq. (8) applies regardless of the bus technology.
  Architecture arch = backbone(BusKind::kEthernet);
  arch.messages[0].protection = Protection::kAes128;
  AnalysisOptions options;
  options.nmax = 1;
  const SecurityAnalysis analysis(arch, "m", SecurityCategory::kConfidentiality,
                                  options);
  const auto violated = analysis.space().label_mask(kViolatedLabel);
  const auto endpoint = analysis.space().label_mask("ecu_b_exploited");
  for (size_t i = 0; i < violated.size(); ++i) {
    if (endpoint[i]) {
      EXPECT_TRUE(violated[i]);
    }
  }
}

TEST(Ethernet, SwitchConstantsExposedForSweeps) {
  Architecture arch = backbone(BusKind::kEthernet);
  AnalysisOptions weak;
  weak.nmax = 1;
  weak.constant_overrides = {{switch_eta_constant("BUS"), symbolic::Value::of(50.0)}};
  const double hardened = availability_exposure(arch);
  const double weakened = availability_exposure(arch, weak);
  EXPECT_GT(weakened, hardened);
}

// ---------------------------------------------------------------------------
// Reliability

Architecture with_failures(double failure_rate = 0.5, double repair_rate = 52.0) {
  Architecture arch = backbone(BusKind::kCan);
  arch.ecus[0].failure = FailureSpec{failure_rate, repair_rate};  // sender A
  arch.ecus[1].failure = FailureSpec{failure_rate, repair_rate};  // receiver B
  return arch;
}

TEST(Reliability, FailuresIncreaseAvailabilityExposure) {
  const double security_only = availability_exposure(backbone(BusKind::kCan));
  const double combined = availability_exposure(with_failures());
  EXPECT_GT(combined, security_only);
}

TEST(Reliability, DisabledViaOption) {
  AnalysisOptions off;
  off.include_reliability = false;
  const double without = availability_exposure(with_failures(), off);
  const double security_only = availability_exposure(backbone(BusKind::kCan));
  EXPECT_NEAR(without, security_only, 1e-12);
}

TEST(Reliability, DoesNotAffectConfidentialityOrIntegrity) {
  AnalysisOptions options;
  options.nmax = 1;
  for (const SecurityCategory category :
       {SecurityCategory::kConfidentiality, SecurityCategory::kIntegrity}) {
    const double plain =
        analyze_message(backbone(BusKind::kCan), "m", category, options)
            .exploitable_fraction;
    const double with_fail =
        analyze_message(with_failures(), "m", category, options).exploitable_fraction;
    EXPECT_NEAR(plain, with_fail, 1e-12) << category_name(category);
  }
}

TEST(Reliability, DecompositionLabelsPartitionTheExposure) {
  AnalysisOptions options;
  options.nmax = 1;
  const SecurityAnalysis analysis(with_failures(), "m",
                                  SecurityCategory::kAvailability, options);
  const double total = analysis.check("R{\"exposure\"}=? [ C<=1 ]");
  const double attack = analysis.check("R{\"exposure_attack\"}=? [ C<=1 ]");
  const double failure = analysis.check("R{\"exposure_failure\"}=? [ C<=1 ]");
  // Union bound: overlap makes the parts sum to at least the total.
  EXPECT_LE(total, attack + failure + 1e-12);
  EXPECT_GE(total, std::max(attack, failure) - 1e-12);
  EXPECT_GT(failure, 0.0);
  EXPECT_GT(attack, 0.0);
}

TEST(Reliability, FailureLabelPresent) {
  AnalysisOptions options;
  options.nmax = 1;
  const SecurityAnalysis analysis(with_failures(), "m",
                                  SecurityCategory::kAvailability, options);
  const double p_fail = analysis.check("P=? [ F<=1 \"ecu_a_failed\" ]");
  // failure rate 0.5/year: P ~ 1 - e^{-0.5} ~ 0.39.
  EXPECT_NEAR(p_fail, 1.0 - std::exp(-0.5), 0.01);
}

TEST(Reliability, NonEndpointFailuresDoNotAddState) {
  // A failing ECU that is not an endpoint of the analyzed message gets no
  // failure module (it cannot affect the message's availability).
  Architecture arch = backbone(BusKind::kCan);
  arch.ecus.push_back({"C", 4.0, std::nullopt, {{"BUS", 1.2, std::nullopt}},
                       FailureSpec{1.0, 10.0}});
  AnalysisOptions options;
  options.nmax = 1;
  const SecurityAnalysis analysis(arch, "m", SecurityCategory::kAvailability, options);
  for (const auto& v : analysis.space().model().variables) {
    EXPECT_NE(v.name, failure_variable_name("C"));
  }
}

TEST(Reliability, NegativeRatesRejected) {
  Architecture arch = with_failures(-1.0, 1.0);
  EXPECT_THROW(arch.validate(), ArchitectureError);
}

TEST(Reliability, SteadyStateFailureShare) {
  // Long-run failed share of one endpoint = fail/(fail+repair).
  Architecture arch = backbone(BusKind::kCan);
  arch.ecus[0].failure = FailureSpec{2.0, 6.0};
  AnalysisOptions options;
  options.nmax = 1;
  const SecurityAnalysis analysis(arch, "m", SecurityCategory::kAvailability, options);
  EXPECT_NEAR(analysis.check("S=? [ \"ecu_a_failed\" ]"), 0.25, 1e-9);
}

}  // namespace
}  // namespace autosec::automotive
