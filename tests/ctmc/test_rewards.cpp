#include "ctmc/rewards.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "ctmc/poisson.hpp"
#include "ctmc_test_helpers.hpp"
#include "util/cancel.hpp"
#include "util/failure.hpp"
#include "util/metrics.hpp"

namespace autosec::ctmc {
namespace {

using testing::start_in;
using testing::two_state;
using testing::two_state_occupancy1;
using testing::two_state_p1;

TEST(CumulativeReward, TwoStateOccupancyMatchesClosedForm) {
  const double a = 1.9, b = 52.0;  // telematics-like rates
  const Ctmc chain = two_state(a, b);
  const std::vector<double> reward = {0.0, 1.0};
  for (double T : {0.1, 0.5, 1.0, 2.0}) {
    const double expected = two_state_occupancy1(a, b, T);
    const double actual = expected_cumulative_reward(chain, start_in(2, 0), reward, T);
    EXPECT_NEAR(actual, expected, 1e-10) << "T=" << T;
  }
}

TEST(CumulativeReward, ConstantRewardAccumulatesLinearly) {
  const Ctmc chain = two_state(2.0, 3.0);
  const std::vector<double> reward = {5.0, 5.0};
  const double value = expected_cumulative_reward(chain, start_in(2, 0), reward, 2.0);
  EXPECT_NEAR(value, 10.0, 1e-9);
}

TEST(CumulativeReward, LargeHorizonExercisesTruncationTail) {
  // At large q·t the Fox–Glynn window starts at left > 0: every Poisson index
  // below `left` has weight 0 but still contributes full survivor mass
  // (1 − PoisCDF(k) = 1) to the cumulative sum. A bug in that tail handling
  // is invisible to the small-q·t tests where left == 0.
  const double a = 40.0, b = 10.0;
  const Ctmc chain = two_state(a, b);
  const double t = 60.0;

  // Premise check: this horizon really has a truncated left tail.
  const double qt = chain.default_uniformization_rate() * t;
  const PoissonWeights window = poisson_weights(qt, 1e-12);
  ASSERT_GT(window.left, 0u);

  // Closed form from p0(s) = pi0 + (1 - pi0) e^{-(a+b)s} started in state 0:
  // E[∫r] = r0 ∫p0 + r1 (t - ∫p0).
  const std::vector<double> reward = {2.0, 5.0};
  const double rate_sum = a + b;
  const double pi0 = b / rate_sum;
  const double int_p0 =
      pi0 * t + (1.0 - pi0) * (1.0 - std::exp(-rate_sum * t)) / rate_sum;
  const double expected = reward[0] * int_p0 + reward[1] * (t - int_p0);

  const double actual = expected_cumulative_reward(chain, start_in(2, 0), reward, t);
  EXPECT_NEAR(actual, expected, 1e-8 * expected);
}

TEST(CumulativeReward, ZeroHorizonIsZero) {
  const Ctmc chain = two_state(1.0, 1.0);
  EXPECT_DOUBLE_EQ(
      expected_cumulative_reward(chain, start_in(2, 0), {1.0, 1.0}, 0.0), 0.0);
}

TEST(CumulativeReward, FrozenChainAccumulatesInitialReward) {
  linalg::CsrBuilder builder(2, 2);
  const Ctmc chain(std::move(builder).build());
  const double value =
      expected_cumulative_reward(chain, start_in(2, 1), {3.0, 7.0}, 2.0);
  EXPECT_DOUBLE_EQ(value, 14.0);
}

TEST(CumulativeReward, RejectsBadArguments) {
  const Ctmc chain = two_state(1.0, 1.0);
  EXPECT_THROW(expected_cumulative_reward(chain, start_in(2, 0), {1.0}, 1.0),
               std::invalid_argument);
  EXPECT_THROW(
      expected_cumulative_reward(chain, start_in(2, 0), {1.0, 1.0}, -1.0),
      std::invalid_argument);
  // A shared pass rejects a bad member even behind a good one.
  const Uniformized uniformized = uniformize(chain);
  const std::vector<double> good = {0.0, 1.0};
  const std::vector<double> short_rewards = {1.0};
  const std::vector<CumulativeRewardMember> mismatched = {{good, 1.0},
                                                          {short_rewards, 1.0}};
  EXPECT_THROW(expected_cumulative_rewards(uniformized, start_in(2, 0), mismatched),
               std::invalid_argument);
  const std::vector<CumulativeRewardMember> negative = {{good, 1.0}, {good, -1.0}};
  EXPECT_THROW(expected_cumulative_rewards(uniformized, start_in(2, 0), negative),
               std::invalid_argument);
}

TEST(InstantaneousReward, MatchesTransientDistribution) {
  const double a = 2.0, b = 6.0, t = 0.4;
  const Ctmc chain = two_state(a, b);
  const double value =
      expected_instantaneous_reward(chain, start_in(2, 0), {0.0, 10.0}, t);
  EXPECT_NEAR(value, 10.0 * two_state_p1(a, b, t), 1e-10);
}

TEST(SteadyStateReward, TwoStateLongRunAverage) {
  const double a = 2.0, b = 6.0;
  const Ctmc chain = two_state(a, b);
  const double value = steady_state_reward(chain, start_in(2, 0), {1.0, 5.0});
  EXPECT_NEAR(value, 1.0 * 0.75 + 5.0 * 0.25, 1e-9);
}

TEST(ExpectedTimeFraction, PaperStyleExposureMetric) {
  // Fraction of a 1-year horizon spent "exploited" for a 2-state chain.
  const double a = 1.9, b = 52.0;
  const Ctmc chain = two_state(a, b);
  const double fraction =
      expected_time_fraction(chain, start_in(2, 0), {false, true}, 1.0);
  EXPECT_NEAR(fraction, two_state_occupancy1(a, b, 1.0), 1e-10);
  EXPECT_GT(fraction, 0.0);
  EXPECT_LT(fraction, a / (a + b));  // below the stationary share within year 1
}

TEST(ExpectedTimeFraction, FullMaskIsOne) {
  const Ctmc chain = two_state(1.0, 2.0);
  EXPECT_NEAR(expected_time_fraction(chain, start_in(2, 0), {true, true}, 3.0), 1.0,
              1e-10);
}

TEST(ExpectedTimeFraction, RequiresPositiveHorizon) {
  const Ctmc chain = two_state(1.0, 2.0);
  EXPECT_THROW(expected_time_fraction(chain, start_in(2, 0), {true, true}, 0.0),
               std::invalid_argument);
}

TEST(CumulativeReward, Figure3ExposureConsistentWithLongRun) {
  // Over a long horizon the time fraction in s2 approaches the stationary
  // probability 0.000699 (Eq. 15).
  const Ctmc chain = testing::figure3_chain();
  const double fraction =
      expected_time_fraction(chain, start_in(3, 0), {false, false, true}, 200.0);
  EXPECT_NEAR(fraction, 0.000699, 2e-5);
}

uint64_t bits(double value) { return std::bit_cast<uint64_t>(value); }

uint64_t counter(const char* name) {
  return util::metrics::registry().counter_value(name);
}

TEST(CumulativeRewardPass, EveryMemberEqualsItsOneMemberCallBitForBit) {
  // The repair chain (break 2, fix 6) mixes within a time unit, so at
  // C<=100 steady-state detection collapses the tail; at C<=0.1 and C<=0.25
  // it never fires. Members at three horizons, one of them t = 0.
  const Uniformized uniformized = uniformize(two_state(2.0, 6.0));
  const std::vector<double> initial = start_in(2, 0);
  const std::vector<double> downtime = {0.0, 1.0};
  const std::vector<double> weighted = {1.0, 5.0};
  const std::vector<CumulativeRewardMember> members = {
      {downtime, 100.0}, {weighted, 0.1}, {downtime, 0.0}, {weighted, 0.25}};

  util::metrics::registry().set_enabled(true);
  util::metrics::registry().reset();
  std::vector<double> single;
  std::vector<uint64_t> truncations;
  std::vector<uint64_t> products;
  for (const CumulativeRewardMember& member : members) {
    const uint64_t truncations_before = counter("solve.steady_state_truncations");
    const uint64_t products_before = counter("ctmc.matrix_vector_products");
    single.push_back(expected_cumulative_reward(
        uniformized, initial,
        std::vector<double>(member.state_rewards.begin(), member.state_rewards.end()),
        member.t));
    truncations.push_back(counter("solve.steady_state_truncations") - truncations_before);
    products.push_back(counter("ctmc.matrix_vector_products") - products_before);
  }
  const uint64_t products_before = counter("ctmc.matrix_vector_products");
  const std::vector<double> shared =
      expected_cumulative_rewards(uniformized, initial, members);
  const uint64_t shared_products = counter("ctmc.matrix_vector_products") - products_before;
  const uint64_t passes = counter("ctmc.cumulative_reward_passes");
  util::metrics::registry().set_enabled(false);

  EXPECT_EQ(truncations[0], 1u) << "C<=100 must exercise steady-state detection";
  EXPECT_EQ(truncations[1], 0u);
  EXPECT_EQ(truncations[3], 0u);
  ASSERT_EQ(shared.size(), members.size());
  for (size_t m = 0; m < members.size(); ++m) {
    EXPECT_EQ(bits(shared[m]), bits(single[m])) << "member " << m;
  }
  EXPECT_EQ(bits(shared[2]), bits(0.0));
  // One walk: the pass costs exactly the products of its longest member.
  EXPECT_EQ(shared_products, *std::max_element(products.begin(), products.end()));
  EXPECT_EQ(passes, members.size() + 1);
}

TEST(CumulativeRewardPass, NoMembersOrOnlyZeroHorizonsTakeNoStep) {
  const Uniformized uniformized = uniformize(two_state(2.0, 6.0));
  const std::vector<double> downtime = {0.0, 1.0};
  EXPECT_TRUE(expected_cumulative_rewards(uniformized, start_in(2, 0), {}).empty());
  const std::vector<CumulativeRewardMember> members = {{downtime, 0.0}, {downtime, 0.0}};
  util::metrics::registry().set_enabled(true);
  util::metrics::registry().reset();
  const std::vector<double> values =
      expected_cumulative_rewards(uniformized, start_in(2, 0), members);
  EXPECT_EQ(counter("ctmc.matrix_vector_products"), 0u);
  util::metrics::registry().set_enabled(false);
  EXPECT_EQ(values, std::vector<double>({0.0, 0.0}));
}

TEST(CumulativeReward, PollsTheCancelHookEveryStep) {
  // q·t = 12.24 here, so the solve takes about 35 steps: a hook that turns
  // true on its 5th poll must stop it there.
  const Uniformized uniformized = uniformize(two_state(2.0, 6.0));
  size_t polls = 0;
  TransientOptions options;
  options.cancelled = [&polls] { return ++polls == 5; };
  EXPECT_THROW(
      expected_cumulative_reward(uniformized, start_in(2, 0), {0.0, 1.0}, 2.0, options),
      util::Cancelled);
  EXPECT_EQ(polls, 5u);
}

TEST(CumulativeReward, NonFiniteValueIsANumericalError) {
  const Uniformized uniformized = uniformize(two_state(2.0, 6.0));
  const std::vector<double> poisoned = {0.0, std::numeric_limits<double>::infinity()};
  try {
    expected_cumulative_reward(uniformized, start_in(2, 0), poisoned, 1.0);
    ADD_FAILURE() << "a non-finite expected reward was returned";
  } catch (const util::EngineFailure& failure) {
    EXPECT_EQ(failure.code(), util::FailureCode::kNumericalError);
    EXPECT_EQ(failure.stage(), "cumulative_reward");
  }
}

class OccupancySweep : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(OccupancySweep, MatchesClosedFormAcrossRates) {
  const auto [eta, phi] = GetParam();
  const Ctmc chain = two_state(eta, phi);
  const double actual =
      expected_time_fraction(chain, start_in(2, 0), {false, true}, 1.0);
  EXPECT_NEAR(actual, two_state_occupancy1(eta, phi, 1.0), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    PaperRateGrid, OccupancySweep,
    ::testing::Combine(::testing::Values(0.1, 1.2, 1.9, 3.8, 12.0),
                       ::testing::Values(0.1, 4.0, 12.0, 52.0, 8760.0)));

}  // namespace
}  // namespace autosec::ctmc
