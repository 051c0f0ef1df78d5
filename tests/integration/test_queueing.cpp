// Independent mathematical anchors for the whole symbolic->engine stack:
// classic queueing models written in the PRISM subset, checked against their
// closed-form solutions. These exercise paths the automotive models do not
// (larger fan-out per state, expression-valued rates).
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>

#include "csl/session.hpp"
#include "symbolic/explorer.hpp"
#include "symbolic/parser.hpp"

namespace autosec {
namespace {

double factorial(int n) {
  double acc = 1.0;
  for (int i = 2; i <= n; ++i) acc *= i;
  return acc;
}

/// M/M/1/K queue: arrivals lambda, service mu, capacity K.
/// pi_i = rho^i (1-rho) / (1-rho^{K+1}).
class Mm1kQueue : public ::testing::TestWithParam<std::tuple<double, double, int>> {};

TEST_P(Mm1kQueue, SteadyStateMatchesClosedForm) {
  const auto [lambda, mu, capacity] = GetParam();
  const std::string source = "ctmc\n"
      "const double lambda = " + std::to_string(lambda) + ";\n"
      "const double mu = " + std::to_string(mu) + ";\n"
      "const int K = " + std::to_string(capacity) + ";\n"
      "module queue\n"
      "  n : [0..K] init 0;\n"
      "  [] n < K -> lambda : (n'=n+1);\n"
      "  [] n > 0 -> mu : (n'=n-1);\n"
      "endmodule\n"
      "label \"full\" = n = K;\n"
      "label \"empty\" = n = 0;\n"
      "rewards \"length\"\n  true : n;\nendrewards\n";
  const symbolic::StateSpace space =
      symbolic::explore(symbolic::compile(symbolic::parse_model(source)));
  ASSERT_EQ(space.state_count(), static_cast<size_t>(capacity + 1));
  csl::EngineSession session(std::make_shared<const symbolic::StateSpace>(space));

  const double rho = lambda / mu;
  auto pi = [&](int i) {
    if (std::abs(rho - 1.0) < 1e-12) return 1.0 / (capacity + 1);
    return std::pow(rho, i) * (1.0 - rho) / (1.0 - std::pow(rho, capacity + 1));
  };
  EXPECT_NEAR(session.check("S=? [ \"full\" ]"), pi(capacity), 1e-9);
  EXPECT_NEAR(session.check("S=? [ \"empty\" ]"), pi(0), 1e-9);

  double expected_length = 0.0;
  for (int i = 0; i <= capacity; ++i) expected_length += i * pi(i);
  EXPECT_NEAR(session.check("R{\"length\"}=? [ S ]"), expected_length, 1e-8);
}

INSTANTIATE_TEST_SUITE_P(
    LoadGrid, Mm1kQueue,
    ::testing::Values(std::make_tuple(1.0, 2.0, 5), std::make_tuple(3.0, 2.0, 8),
                      std::make_tuple(2.0, 2.0, 4), std::make_tuple(0.5, 5.0, 10)));

/// Erlang-B: M/M/c/c loss system; blocking probability
/// B = (a^c / c!) / sum_{k=0}^{c} a^k / k!  with a = lambda/mu.
class ErlangLoss : public ::testing::TestWithParam<std::tuple<double, double, int>> {};

TEST_P(ErlangLoss, BlockingProbabilityMatchesErlangB) {
  const auto [lambda, mu, servers] = GetParam();
  // Rate n -> n-1 is n*mu: an expression-valued rate.
  const std::string source = "ctmc\n"
      "const double lambda = " + std::to_string(lambda) + ";\n"
      "const double mu = " + std::to_string(mu) + ";\n"
      "const int C = " + std::to_string(servers) + ";\n"
      "module loss\n"
      "  n : [0..C] init 0;\n"
      "  [] n < C -> lambda : (n'=n+1);\n"
      "  [] n > 0 -> n*mu : (n'=n-1);\n"
      "endmodule\n"
      "label \"blocked\" = n = C;\n";
  const symbolic::StateSpace space =
      symbolic::explore(symbolic::compile(symbolic::parse_model(source)));
  csl::EngineSession session(std::make_shared<const symbolic::StateSpace>(space));

  const double a = lambda / mu;
  double denominator = 0.0;
  for (int k = 0; k <= servers; ++k) denominator += std::pow(a, k) / factorial(k);
  const double erlang_b = std::pow(a, servers) / factorial(servers) / denominator;
  EXPECT_NEAR(session.check("S=? [ \"blocked\" ]"), erlang_b, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    TrafficGrid, ErlangLoss,
    ::testing::Values(std::make_tuple(2.0, 1.0, 3), std::make_tuple(5.0, 1.0, 5),
                      std::make_tuple(1.0, 2.0, 4), std::make_tuple(10.0, 2.0, 8)));

/// Machine-repairman: M machines failing at rate f each, one repairman fixing
/// at rate r. Birth-death with state-dependent birth rate (M-n)*f.
TEST(MachineRepairman, UtilizationMatchesBirthDeathSolution) {
  const int machines = 4;
  const double f = 0.5, r = 3.0;
  const std::string source = "ctmc\n"
      "module repair\n"
      "  broken : [0..4] init 0;\n"
      "  [] broken < 4 -> (4-broken)*" + std::to_string(f) + " : (broken'=broken+1);\n"
      "  [] broken > 0 -> " + std::to_string(r) + " : (broken'=broken-1);\n"
      "endmodule\n"
      "label \"idle\" = broken = 0;\n";
  const symbolic::StateSpace space =
      symbolic::explore(symbolic::compile(symbolic::parse_model(source)));
  csl::EngineSession session(std::make_shared<const symbolic::StateSpace>(space));

  // Birth-death stationary: pi_n ∝ prod_{k=0}^{n-1} (M-k) f / r.
  std::vector<double> pi(machines + 1, 1.0);
  for (int n = 1; n <= machines; ++n) {
    pi[n] = pi[n - 1] * (machines - (n - 1)) * f / r;
  }
  double total = 0.0;
  for (double p : pi) total += p;
  EXPECT_NEAR(session.check("S=? [ \"idle\" ]"), pi[0] / total, 1e-9);
  // Repairman busy = 1 - pi_0.
  EXPECT_NEAR(session.check("S=? [ broken > 0 ]"), 1.0 - pi[0] / total, 1e-9);
}

/// Transient anchor: the M/M/1/K queue's expected length accumulated over a
/// short horizon from empty must be below the stationary value times t.
TEST(QueueTransient, CumulativeLengthBelowStationaryBound) {
  const symbolic::StateSpace space = symbolic::explore(symbolic::compile(
      symbolic::parse_model(R"(ctmc
module queue
  n : [0..6] init 0;
  [] n < 6 -> 2.0 : (n'=n+1);
  [] n > 0 -> 3.0 : (n'=n-1);
endmodule
rewards "length"
  true : n;
endrewards
)")));
  csl::EngineSession session(std::make_shared<const symbolic::StateSpace>(space));
  const double horizon = 0.8;
  const double cumulative = session.check("R{\"length\"}=? [ C<=0.8 ]");
  const double stationary = session.check("R{\"length\"}=? [ S ]");
  EXPECT_GT(cumulative, 0.0);
  EXPECT_LT(cumulative, stationary * horizon);
}

}  // namespace
}  // namespace autosec
