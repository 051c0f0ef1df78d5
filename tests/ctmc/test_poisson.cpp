#include "ctmc/poisson.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace autosec::ctmc {
namespace {

double exact_pmf(double lambda, size_t k) {
  return std::exp(-lambda + static_cast<double>(k) * std::log(lambda) -
                  std::lgamma(static_cast<double>(k) + 1.0));
}

TEST(Poisson, ZeroLambdaIsPointMass) {
  const PoissonWeights w = poisson_weights(0.0);
  EXPECT_EQ(w.left, 0u);
  EXPECT_EQ(w.right, 0u);
  ASSERT_EQ(w.weights.size(), 1u);
  EXPECT_DOUBLE_EQ(w.weights[0], 1.0);
}

TEST(Poisson, WeightsSumToOne) {
  for (double lambda : {0.1, 1.0, 5.0, 52.0, 104.0, 1000.0}) {
    const PoissonWeights w = poisson_weights(lambda);
    double total = 0.0;
    for (double v : w.weights) total += v;
    EXPECT_NEAR(total, 1.0, 1e-12) << "lambda=" << lambda;
  }
}

TEST(Poisson, CapturedMassMeetsEpsilon) {
  const double epsilon = 1e-10;
  for (double lambda : {0.5, 3.0, 77.0, 5000.0}) {
    const PoissonWeights w = poisson_weights(lambda, epsilon);
    EXPECT_GE(w.captured_mass, 1.0 - epsilon) << "lambda=" << lambda;
  }
}

TEST(Poisson, MatchesExactPmfAfterUndoingNormalization) {
  const double lambda = 12.7;
  const PoissonWeights w = poisson_weights(lambda, 1e-13);
  for (size_t k = w.left; k <= w.right; ++k) {
    const double reconstructed = w.weight(k) * w.captured_mass;
    EXPECT_NEAR(reconstructed, exact_pmf(lambda, k), 1e-12) << "k=" << k;
  }
}

TEST(Poisson, ModeIsInsideWindow) {
  for (double lambda : {0.3, 4.0, 100.0}) {
    const PoissonWeights w = poisson_weights(lambda);
    const auto mode = static_cast<size_t>(std::floor(lambda));
    EXPECT_LE(w.left, mode);
    EXPECT_GE(w.right, mode);
  }
}

TEST(Poisson, SmallLambdaIncludesZero) {
  const PoissonWeights w = poisson_weights(0.01);
  EXPECT_EQ(w.left, 0u);
  EXPECT_NEAR(w.weight(0) * w.captured_mass, std::exp(-0.01), 1e-12);
}

TEST(Poisson, LargeLambdaWindowIsNarrow) {
  // The retained window should scale like O(sqrt(lambda)), far below lambda.
  const double lambda = 1e6;
  const PoissonWeights w = poisson_weights(lambda);
  EXPECT_LT(static_cast<double>(w.right - w.left), 60.0 * std::sqrt(lambda));
  EXPECT_GT(w.left, 0u);
}

TEST(Poisson, CdfMonotoneAndReachesOne) {
  const PoissonWeights w = poisson_weights(7.3);
  double previous = -1.0;
  for (size_t k = w.left; k <= w.right; ++k) {
    const double value = w.cdf(k);
    EXPECT_GE(value, previous);
    previous = value;
  }
  EXPECT_NEAR(w.cdf(w.right), 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(w.cdf(w.left > 0 ? w.left - 1 : 0) , w.left > 0 ? 0.0 : w.cdf(0));
}

TEST(Poisson, WeightOutsideWindowIsZero) {
  const PoissonWeights w = poisson_weights(50.0);
  if (w.left > 0) {
    EXPECT_DOUBLE_EQ(w.weight(w.left - 1), 0.0);
  }
  EXPECT_DOUBLE_EQ(w.weight(w.right + 1), 0.0);
}

TEST(Poisson, RejectsBadArguments) {
  EXPECT_THROW(poisson_weights(-1.0), std::invalid_argument);
  EXPECT_THROW(poisson_weights(1.0, 0.0), std::invalid_argument);
  EXPECT_THROW(poisson_weights(1.0, 1.0), std::invalid_argument);
}

class PoissonSweep : public ::testing::TestWithParam<double> {};

TEST_P(PoissonSweep, MeanOfTruncatedDistributionApproachesLambda) {
  const double lambda = GetParam();
  const PoissonWeights w = poisson_weights(lambda, 1e-12);
  double mean = 0.0;
  for (size_t k = w.left; k <= w.right; ++k) mean += static_cast<double>(k) * w.weight(k);
  // Relative tolerance: truncation + normalization effects.
  EXPECT_NEAR(mean, lambda, 1e-6 * std::max(1.0, lambda));
}

INSTANTIATE_TEST_SUITE_P(Lambdas, PoissonSweep,
                         ::testing::Values(0.05, 0.5, 1.0, 2.0, 8.0, 52.0, 104.0,
                                           1000.0, 8760.0));

}  // namespace
}  // namespace autosec::ctmc
