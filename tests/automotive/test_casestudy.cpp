#include "automotive/casestudy.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "csl/session.hpp"
#include "symbolic/explorer.hpp"

namespace autosec::automotive::casestudy {
namespace {

TEST(CaseStudy, Table2HasAllTwelveRows) {
  EXPECT_EQ(table2().size(), 12u);
}

TEST(CaseStudy, Table2VectorsReproduceTheEtas) {
  // Re-deriving each printed eta from its CVSS vector (Eqs. 11-12) must land
  // within the paper's one-decimal rounding.
  for (const Table2Row& row : table2()) {
    if (row.eta < 0.0 || std::string_view(row.cvss_vector).empty()) continue;
    const auto vector = assess::parse_cvss_vector(row.cvss_vector);
    EXPECT_NEAR(vector.exploitability_rate(), row.eta, 0.0501)
        << row.module << " / " << row.interface;
  }
}

TEST(CaseStudy, Table2AsilsReproduceThePhis) {
  for (const Table2Row& row : table2()) {
    if (std::string_view(row.asil).empty()) continue;
    EXPECT_DOUBLE_EQ(assess::patch_rate(assess::parse_asil(row.asil)), row.phi)
        << row.module;
  }
}

TEST(CaseStudy, Architecture1Topology) {
  const Architecture arch = architecture(1, Protection::kUnencrypted);
  EXPECT_EQ(arch.buses.size(), 3u);  // NET, CAN1, CAN2
  EXPECT_NE(arch.find_bus(kCan1), nullptr);
  EXPECT_EQ(arch.find_bus(kFlexRay), nullptr);
  // PA on CAN1 only; m over CAN1+CAN2.
  EXPECT_NE(arch.find_ecu(kParkAssist)->find_interface(kCan1), nullptr);
  EXPECT_EQ(arch.find_ecu(kParkAssist)->find_interface(kCan2), nullptr);
  const Message* m = arch.find_message(kMessage);
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->buses, (std::vector<std::string>{kCan1, kCan2}));
  EXPECT_EQ(m->sender, kParkAssist);
  EXPECT_EQ(m->receivers, std::vector<std::string>{kPowerSteering});
}

TEST(CaseStudy, Architecture2AddsDedicatedConnection) {
  const Architecture arch = architecture(2, Protection::kUnencrypted);
  // PA gains a CAN2 interface; m only travels CAN2.
  EXPECT_NE(arch.find_ecu(kParkAssist)->find_interface(kCan1), nullptr);
  EXPECT_NE(arch.find_ecu(kParkAssist)->find_interface(kCan2), nullptr);
  EXPECT_EQ(arch.find_message(kMessage)->buses, std::vector<std::string>{kCan2});
}

TEST(CaseStudy, Architecture3UsesFlexRay) {
  const Architecture arch = architecture(3, Protection::kUnencrypted);
  const Bus* fr = arch.find_bus(kFlexRay);
  ASSERT_NE(fr, nullptr);
  EXPECT_EQ(fr->kind, BusKind::kFlexRay);
  ASSERT_TRUE(fr->guardian.has_value());
  EXPECT_DOUBLE_EQ(fr->guardian->eta, 0.2);
  EXPECT_DOUBLE_EQ(fr->guardian->phi, 4.0);
  EXPECT_EQ(arch.find_bus(kCan1), nullptr);
  EXPECT_EQ(arch.find_message(kMessage)->buses,
            (std::vector<std::string>{kFlexRay, kCan2}));
}

TEST(CaseStudy, Table2RatesAppliedToInterfaces) {
  const Architecture arch = architecture(1, Protection::kUnencrypted);
  EXPECT_DOUBLE_EQ(arch.find_ecu(kTelematics)->find_interface(kUplink)->eta, 1.9);
  EXPECT_DOUBLE_EQ(arch.find_ecu(kTelematics)->find_interface(kCan1)->eta, 3.8);
  EXPECT_DOUBLE_EQ(arch.find_ecu(kTelematics)->phi, 52.0);
  EXPECT_DOUBLE_EQ(arch.find_ecu(kParkAssist)->phi, 12.0);
  EXPECT_DOUBLE_EQ(arch.find_ecu(kGateway)->phi, 4.0);
  EXPECT_DOUBLE_EQ(arch.find_ecu(kPowerSteering)->phi, 4.0);
  EXPECT_DOUBLE_EQ(arch.find_ecu(kGateway)->find_interface(kCan2)->eta, 1.2);
}

TEST(CaseStudy, CvssProvenanceConsistent) {
  // Every interface's stored eta equals (up to Table 2 rounding) the rate of
  // its recorded CVSS vector.
  for (int which = 1; which <= 3; ++which) {
    const Architecture arch = architecture(which, Protection::kAes128);
    for (const Ecu& ecu : arch.ecus) {
      for (const Interface& iface : ecu.interfaces) {
        ASSERT_TRUE(iface.cvss.has_value());
        EXPECT_NEAR(iface.cvss->exploitability_rate(), iface.eta, 0.0501)
            << ecu.name << "/" << iface.bus;
      }
    }
  }
}

TEST(CaseStudy, InvalidArchitectureNumberRejected) {
  EXPECT_THROW(architecture(0, Protection::kUnencrypted), std::invalid_argument);
  EXPECT_THROW(architecture(4, Protection::kUnencrypted), std::invalid_argument);
}

TEST(CaseStudy, CustomRatesPropagate) {
  Rates rates;
  rates.eta_pa = 9.9;
  rates.phi_gw = 2.0;
  const Architecture arch = architecture(1, Protection::kUnencrypted, rates);
  EXPECT_DOUBLE_EQ(arch.find_ecu(kParkAssist)->find_interface(kCan1)->eta, 9.9);
  EXPECT_DOUBLE_EQ(arch.find_ecu(kGateway)->phi, 2.0);
}

TEST(Figure3, StateSpaceIsThreeStates) {
  const symbolic::Model model = figure3_example();
  const auto space = symbolic::explore(symbolic::compile(model));
  EXPECT_EQ(space.state_count(), 3u);
  EXPECT_EQ(space.transition_count(), 5u);
}

TEST(Figure3, SteadyStateMatchesEq15) {
  const symbolic::Model model = figure3_example();
  const auto space = symbolic::explore(symbolic::compile(model));
  csl::EngineSession session(std::make_shared<const symbolic::StateSpace>(space));
  EXPECT_NEAR(session.check("S=? [ \"s0\" ]"), 0.96296, 5e-6);
  EXPECT_NEAR(session.check("S=? [ \"s1\" ]"), 0.036338, 5e-7);
  EXPECT_NEAR(session.check("S=? [ \"s2\" ]"), 0.000699, 5e-7);
}

TEST(Figure3, RewardPropertyEq16Style) {
  // R{"in_s2"}=?[C<=1]: expected cumulated time in s2 within one year —
  // positive but far below the stationary share times the horizon... within
  // the first year the chain starts secure, so the fraction is below the
  // stationary probability.
  const symbolic::Model model = figure3_example();
  const auto space = symbolic::explore(symbolic::compile(model));
  csl::EngineSession session(std::make_shared<const symbolic::StateSpace>(space));
  const double cumulated = session.check("R{\"in_s2\"}=? [ C<=1 ]");
  EXPECT_GT(cumulated, 0.0);
  EXPECT_LT(cumulated, 0.000699);
}

TEST(Figure3, ConstantOverridesChangeTheChain) {
  const symbolic::Model model = figure3_example();
  const auto space_slow = symbolic::explore(symbolic::compile(
      model, {{"eta3g", symbolic::Value::of(0.2)}}));
  const auto space_fast = symbolic::explore(symbolic::compile(
      model, {{"eta3g", symbolic::Value::of(20.0)}}));
  const double p_slow = csl::EngineSession(std::make_shared<const symbolic::StateSpace>(space_slow)).check("S=? [ \"s2\" ]");
  const double p_fast = csl::EngineSession(std::make_shared<const symbolic::StateSpace>(space_fast)).check("S=? [ \"s2\" ]");
  EXPECT_LT(p_slow, p_fast);
}

}  // namespace
}  // namespace autosec::automotive::casestudy
