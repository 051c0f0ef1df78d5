#include "automotive/transform.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "csl/session.hpp"
#include "symbolic/explorer.hpp"

namespace autosec::automotive {
namespace {

/// Lone ECU on an internet-facing bus, sending m to itself is not allowed, so
/// a second ECU receives it on the same bus.
Architecture internet_pair() {
  Architecture arch;
  arch.name = "pair";
  arch.buses.push_back({"NET", BusKind::kInternet, std::nullopt, std::nullopt});
  arch.ecus.push_back({"A", 52.0, std::nullopt, {{"NET", 2.0, std::nullopt}}, std::nullopt});
  arch.ecus.push_back({"B", 4.0, std::nullopt, {{"NET", 1.0, std::nullopt}}, std::nullopt});
  Message m;
  m.name = "m";
  m.sender = "A";
  m.receivers = {"B"};
  m.buses = {"NET"};
  arch.messages = {m};
  return arch;
}

/// Two ECUs on an isolated CAN bus (no internet anywhere): nothing is ever
/// exploitable because no bus can become exploitable first (Eq. 1's guard).
Architecture isolated_can() {
  Architecture arch;
  arch.name = "isolated";
  arch.buses.push_back({"CAN", BusKind::kCan, std::nullopt, std::nullopt});
  arch.ecus.push_back({"A", 12.0, std::nullopt, {{"CAN", 2.0, std::nullopt}}, std::nullopt});
  arch.ecus.push_back({"B", 4.0, std::nullopt, {{"CAN", 1.0, std::nullopt}}, std::nullopt});
  Message m;
  m.name = "m";
  m.sender = "A";
  m.receivers = {"B"};
  m.buses = {"CAN"};
  arch.messages = {m};
  return arch;
}

TransformOptions options_for(const char* message, SecurityCategory category,
                             int nmax = 1) {
  TransformOptions options;
  options.message = message;
  options.category = category;
  options.nmax = nmax;
  return options;
}

TEST(Transform, SanitizeIdentifier) {
  EXPECT_EQ(sanitize_identifier("CAN1"), "can1");
  EXPECT_EQ(sanitize_identifier("3G"), "3g");
  EXPECT_EQ(sanitize_identifier("Park Assist"), "park_assist");
  EXPECT_EQ(sanitize_identifier(""), "_");
}

TEST(Transform, GeneratedNamesAreStable) {
  EXPECT_EQ(interface_variable_name("3G", "CAN1"), "x_3g_can1");
  EXPECT_EQ(guardian_variable_name("FR"), "x_bg_fr");
  EXPECT_EQ(message_variable_name("m"), "x_msg_m");
  EXPECT_EQ(interface_eta_constant("PA", "CAN2"), "eta_pa_can2");
  EXPECT_EQ(ecu_phi_constant("PA"), "phi_pa");
  EXPECT_EQ(ecu_formula_name("GW"), "ecu_gw");
  EXPECT_EQ(bus_formula_name("CAN1"), "bus_can1");
}

TEST(Transform, InternetBusAlwaysExploitable) {
  // Eq. (6): the exploit command of A's NET interface is enabled from the
  // initial all-secure state, so the state space has more than one state.
  const symbolic::Model model = transform(
      internet_pair(), options_for("m", SecurityCategory::kAvailability));
  const auto space = symbolic::explore(symbolic::compile(model));
  EXPECT_GT(space.state_count(), 1u);
}

TEST(Transform, IsolatedCanBusIsUnattackable) {
  // Eq. (1) guard: no interface can be exploited unless its bus already is;
  // with no internet entry point the initial state is a fixpoint.
  const symbolic::Model model = transform(
      isolated_can(), options_for("m", SecurityCategory::kAvailability));
  const auto space = symbolic::explore(symbolic::compile(model));
  EXPECT_EQ(space.state_count(), 1u);
}

TEST(Transform, NmaxControlsVariableRangeAndStateCount) {
  for (int nmax : {1, 2, 3}) {
    const symbolic::Model model = transform(
        internet_pair(), options_for("m", SecurityCategory::kAvailability, nmax));
    const auto space = symbolic::explore(symbolic::compile(model));
    // Two independent interfaces with 0..nmax exploits each.
    EXPECT_EQ(space.state_count(), static_cast<size_t>((nmax + 1) * (nmax + 1)));
  }
}

TEST(Transform, AvailabilityHasNoMessageVariable) {
  const symbolic::Model model = transform(
      internet_pair(), options_for("m", SecurityCategory::kAvailability));
  const auto compiled = symbolic::compile(model);
  for (const auto& v : compiled.variables) {
    EXPECT_EQ(v.name.find("x_msg"), std::string::npos);
  }
}

TEST(Transform, EncryptedConfidentialityAddsMessageVariable) {
  Architecture arch = internet_pair();
  arch.messages[0].protection = Protection::kAes128;
  const symbolic::Model model =
      transform(arch, options_for("m", SecurityCategory::kConfidentiality));
  const auto compiled = symbolic::compile(model);
  bool found = false;
  for (const auto& v : compiled.variables) found = found || v.name == "x_msg_m";
  EXPECT_TRUE(found);
}

TEST(Transform, UnencryptedConfidentialityHasNoMessageVariable) {
  // eta = infinity: violation is combinational, no extra state.
  const symbolic::Model model = transform(
      internet_pair(), options_for("m", SecurityCategory::kConfidentiality));
  const auto compiled = symbolic::compile(model);
  for (const auto& v : compiled.variables) {
    EXPECT_EQ(v.name.find("x_msg"), std::string::npos);
  }
}

TEST(Transform, CmacConfidentialityBehavesLikeUnencrypted) {
  // CMAC gives integrity only; for confidentiality its eta is infinite.
  Architecture cmac = internet_pair();
  cmac.messages[0].protection = Protection::kCmac128;
  const symbolic::Model a = transform(
      internet_pair(), options_for("m", SecurityCategory::kConfidentiality));
  const symbolic::Model b =
      transform(cmac, options_for("m", SecurityCategory::kConfidentiality));
  const auto sa = symbolic::explore(symbolic::compile(a));
  const auto sb = symbolic::explore(symbolic::compile(b));
  EXPECT_EQ(sa.state_count(), sb.state_count());
  csl::EngineSession ca(std::make_shared<const symbolic::StateSpace>(sa));
  csl::EngineSession cb(std::make_shared<const symbolic::StateSpace>(sb));
  EXPECT_NEAR(ca.check("R{\"exposure\"}=? [ C<=1 ]"),
              cb.check("R{\"exposure\"}=? [ C<=1 ]"), 1e-12);
}

TEST(Transform, ViolationLabelPresent) {
  const symbolic::Model model = transform(
      internet_pair(), options_for("m", SecurityCategory::kAvailability));
  const auto compiled = symbolic::compile(model);
  EXPECT_NE(compiled.find_label(kViolatedLabel), nullptr);
  EXPECT_NE(compiled.find_rewards(kExposureReward), nullptr);
  EXPECT_NE(compiled.find_label("ecu_a_exploited"), nullptr);
  EXPECT_NE(compiled.find_label("bus_net_exploitable"), nullptr);
}

TEST(Transform, AvailabilityViolatedOnlyWhenPathBusExploitable) {
  // Eq. (7): on the internet pair, the NET bus is *always* exploitable, so
  // availability is violated in every state.
  const symbolic::Model model = transform(
      internet_pair(), options_for("m", SecurityCategory::kAvailability));
  const auto space = symbolic::explore(symbolic::compile(model));
  const auto violated = space.label_mask(kViolatedLabel);
  for (size_t i = 0; i < space.state_count(); ++i) EXPECT_TRUE(violated[i]);
}

TEST(Transform, ConfidentialityViolatedWhenEndpointExploited) {
  // Eq. (8): state with the receiver's interface exploited must be violated
  // even with AES (key material on the endpoint).
  Architecture arch = internet_pair();
  arch.messages[0].protection = Protection::kAes128;
  const symbolic::Model model =
      transform(arch, options_for("m", SecurityCategory::kConfidentiality));
  const auto space = symbolic::explore(symbolic::compile(model));
  const auto violated = space.label_mask(kViolatedLabel);
  const auto endpoint = space.label_mask("ecu_b_exploited");
  for (size_t i = 0; i < space.state_count(); ++i) {
    if (endpoint[i]) {
      EXPECT_TRUE(violated[i]) << space.state_to_string(i);
    }
  }
}

/// Chained CAN topology NET -> A -> CAN -> B used by the patch-guard tests.
Architecture chained_can() {
  Architecture arch;
  arch.buses.push_back({"NET", BusKind::kInternet, std::nullopt, std::nullopt});
  arch.buses.push_back({"CAN", BusKind::kCan, std::nullopt, std::nullopt});
  arch.ecus.push_back(
      {"A", 52.0, std::nullopt, {{"NET", 2.0, std::nullopt}, {"CAN", 3.8, std::nullopt}},
       std::nullopt});
  arch.ecus.push_back({"B", 4.0, std::nullopt, {{"CAN", 1.2, std::nullopt}}, std::nullopt});
  Message m;
  m.name = "m";
  m.sender = "A";
  m.receivers = {"B"};
  m.buses = {"CAN"};
  arch.messages = {m};
  return arch;
}

TEST(Transform, LiteralPatchGuardIsVacuousOnCanTopologies) {
  // Eq. (2)'s literal guard requires the interface's bus to be exploitable
  // while patching. On CAN (Eq. 4), an exploited interface makes its own ECU
  // -- and hence its own bus -- exploitable, so x_i > 0 implies the guard and
  // the literal and corrected semantics coincide exactly.
  const Architecture arch = chained_can();
  TransformOptions corrected = options_for("m", SecurityCategory::kAvailability);
  TransformOptions literal = corrected;
  literal.literal_patch_guard = true;
  const auto corrected_space =
      symbolic::explore(symbolic::compile(transform(arch, corrected)));
  const auto literal_space =
      symbolic::explore(symbolic::compile(transform(arch, literal)));
  const double frac_corr =
      csl::EngineSession(std::make_shared<const symbolic::StateSpace>(corrected_space)).check("R{\"exposure\"}=? [ C<=1 ]");
  const double frac_lit =
      csl::EngineSession(std::make_shared<const symbolic::StateSpace>(literal_space)).check("R{\"exposure\"}=? [ C<=1 ]");
  EXPECT_NEAR(frac_lit, frac_corr, 1e-12);
}

TEST(Transform, LiteralPatchGuardBitesOnFlexRay) {
  // On FlexRay (Eq. 5) the bus is only exploitable while the guardian is
  // also exploited, so the literal guard forbids patching an interface
  // whenever the guardian is currently secure -- exposure must rise.
  Architecture arch = chained_can();
  arch.buses[1].kind = BusKind::kFlexRay;
  arch.buses[1].guardian = GuardianSpec{2.0, 4.0};

  TransformOptions corrected = options_for("m", SecurityCategory::kAvailability);
  TransformOptions literal = corrected;
  literal.literal_patch_guard = true;
  const auto corrected_space =
      symbolic::explore(symbolic::compile(transform(arch, corrected)));
  const auto literal_space =
      symbolic::explore(symbolic::compile(transform(arch, literal)));
  const double frac_corr =
      csl::EngineSession(std::make_shared<const symbolic::StateSpace>(corrected_space)).check("R{\"exposure\"}=? [ C<=1 ]");
  const double frac_lit =
      csl::EngineSession(std::make_shared<const symbolic::StateSpace>(literal_space)).check("R{\"exposure\"}=? [ C<=1 ]");
  EXPECT_GT(frac_lit, frac_corr * 1.01);
}

TEST(Transform, GuardianFootholdOptionReducesExposure) {
  Architecture arch = chained_can();
  arch.buses[1].kind = BusKind::kFlexRay;
  arch.buses[1].guardian = GuardianSpec{0.2, 4.0};
  TransformOptions unconditional = options_for("m", SecurityCategory::kAvailability);
  TransformOptions foothold = unconditional;
  foothold.guardian_requires_foothold = true;
  const auto space_u =
      symbolic::explore(symbolic::compile(transform(arch, unconditional)));
  const auto space_f = symbolic::explore(symbolic::compile(transform(arch, foothold)));
  const double frac_u = csl::EngineSession(std::make_shared<const symbolic::StateSpace>(space_u)).check("R{\"exposure\"}=? [ C<=1 ]");
  const double frac_f = csl::EngineSession(std::make_shared<const symbolic::StateSpace>(space_f)).check("R{\"exposure\"}=? [ C<=1 ]");
  EXPECT_LT(frac_f, frac_u);
}


TEST(Transform, FlexRayRequiresGuardianExploit) {
  // Replace the CAN with FlexRay: bus exploitability needs the guardian too
  // (Eq. 5), so exposure must drop.
  Architecture can_arch;
  can_arch.buses.push_back({"NET", BusKind::kInternet, std::nullopt, std::nullopt});
  can_arch.buses.push_back({"BUS", BusKind::kCan, std::nullopt, std::nullopt});
  can_arch.ecus.push_back(
      {"A", 52.0, std::nullopt, {{"NET", 2.0, std::nullopt}, {"BUS", 3.8, std::nullopt}},
       std::nullopt});
  can_arch.ecus.push_back({"B", 4.0, std::nullopt, {{"BUS", 1.2, std::nullopt}}, std::nullopt});
  Message m;
  m.name = "m";
  m.sender = "A";
  m.receivers = {"B"};
  m.buses = {"BUS"};
  can_arch.messages = {m};

  Architecture fr_arch = can_arch;
  fr_arch.buses[1].kind = BusKind::kFlexRay;
  fr_arch.buses[1].guardian = GuardianSpec{0.2, 4.0};

  const auto can_space = symbolic::explore(
      symbolic::compile(transform(can_arch, options_for("m", SecurityCategory::kAvailability))));
  const auto fr_space = symbolic::explore(
      symbolic::compile(transform(fr_arch, options_for("m", SecurityCategory::kAvailability))));
  const double can_frac =
      csl::EngineSession(std::make_shared<const symbolic::StateSpace>(can_space)).check("R{\"exposure\"}=? [ C<=1 ]");
  const double fr_frac = csl::EngineSession(std::make_shared<const symbolic::StateSpace>(fr_space)).check("R{\"exposure\"}=? [ C<=1 ]");
  EXPECT_LT(fr_frac, can_frac);
  EXPECT_GT(fr_frac, 0.0);
  // The guardian adds a state variable.
  EXPECT_GT(fr_space.state_count(), can_space.state_count());
}

TEST(Transform, UnknownMessageRejected) {
  EXPECT_THROW(
      transform(internet_pair(), options_for("ghost", SecurityCategory::kAvailability)),
      ArchitectureError);
}

TEST(Transform, InvalidNmaxRejected) {
  EXPECT_THROW(
      transform(internet_pair(), options_for("m", SecurityCategory::kAvailability, 0)),
      ArchitectureError);
}

TEST(Transform, NameCollisionDetected) {
  Architecture arch = internet_pair();
  arch.ecus[0].name = "A B";
  arch.ecus[1].name = "A_B";  // both sanitize to a_b
  arch.messages[0].sender = "A B";
  arch.messages[0].receivers = {"A_B"};
  EXPECT_THROW(transform(arch, options_for("m", SecurityCategory::kAvailability)),
               ArchitectureError);
}

TEST(Transform, RatesExposedAsConstants) {
  const symbolic::Model model = transform(
      internet_pair(), options_for("m", SecurityCategory::kAvailability));
  // Overriding a rate constant must change the compiled command rate.
  const auto compiled = symbolic::compile(
      model, {{interface_eta_constant("A", "NET"), symbolic::Value::of(77.0)}});
  bool found = false;
  for (const auto& [name, value] : compiled.constant_values) {
    if (name == "eta_a_net") {
      found = true;
      EXPECT_DOUBLE_EQ(value.as_number(), 77.0);
    }
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace autosec::automotive
