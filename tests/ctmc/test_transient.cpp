#include "ctmc/transient.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <new>

#include "ctmc_test_helpers.hpp"
#include "linalg/vector_ops.hpp"
#include "util/failure.hpp"
#include "util/fault.hpp"
#include "util/metrics.hpp"

namespace autosec::ctmc {
namespace {

using testing::start_in;
using testing::two_state;
using testing::two_state_p1;

TEST(Transient, TwoStateMatchesClosedForm) {
  const double a = 2.0, b = 6.0;
  const Ctmc chain = two_state(a, b);
  for (double t : {0.01, 0.1, 0.5, 1.0, 3.0}) {
    const auto dist = transient_distribution(chain, start_in(2, 0), t);
    EXPECT_NEAR(dist[1], two_state_p1(a, b, t), 1e-10) << "t=" << t;
    EXPECT_NEAR(dist[0] + dist[1], 1.0, 1e-12);
  }
}

TEST(Transient, TimeZeroReturnsInitial) {
  const Ctmc chain = two_state(1.0, 1.0);
  const auto dist = transient_distribution(chain, start_in(2, 1), 0.0);
  EXPECT_DOUBLE_EQ(dist[0], 0.0);
  EXPECT_DOUBLE_EQ(dist[1], 1.0);
}

TEST(Transient, PureDecayIsExponential) {
  // 0 --a--> 1 (absorbing): P(still in 0 at t) = e^{-a t}.
  const double a = 3.0;
  const Ctmc chain = two_state(a, 0.0);
  const auto dist = transient_distribution(chain, start_in(2, 0), 0.7);
  EXPECT_NEAR(dist[0], std::exp(-a * 0.7), 1e-11);
}

TEST(Transient, DistributionStaysNormalizedOnFigure3Chain) {
  const Ctmc chain = testing::figure3_chain();
  for (double t : {0.001, 0.02, 0.2, 1.0, 10.0}) {
    const auto dist = transient_distribution(chain, start_in(3, 0), t);
    EXPECT_NEAR(linalg::sum(dist), 1.0, 1e-11) << "t=" << t;
    for (double p : dist) EXPECT_GE(p, -1e-14);
  }
}

TEST(Transient, LongHorizonApproachesStationary) {
  // Eq. (15): pi = (0.96296, 0.036338, 0.000699).
  const Ctmc chain = testing::figure3_chain();
  const auto dist = transient_distribution(chain, start_in(3, 2), 50.0);
  EXPECT_NEAR(dist[0], 0.96296, 1e-4);
  EXPECT_NEAR(dist[1], 0.036338, 1e-5);
  EXPECT_NEAR(dist[2], 0.000699, 1e-6);
}

TEST(Transient, FrozenChainStaysPut) {
  linalg::CsrBuilder builder(2, 2);
  const Ctmc chain(std::move(builder).build());  // no transitions at all
  const auto dist = transient_distribution(chain, start_in(2, 1), 5.0);
  EXPECT_DOUBLE_EQ(dist[1], 1.0);
}

TEST(Transient, RejectsBadInputs) {
  const Ctmc chain = two_state(1.0, 1.0);
  EXPECT_THROW(transient_distribution(chain, {1.0}, 1.0), std::invalid_argument);
  EXPECT_THROW(transient_distribution(chain, {0.9, 0.2}, 1.0), std::invalid_argument);
  EXPECT_THROW(transient_distribution(chain, start_in(2, 0), -1.0),
               std::invalid_argument);
  EXPECT_THROW(transient_distribution(chain, {-0.5, 1.5}, 1.0), std::invalid_argument);
}

TEST(Transient, SubdistributionsEvolveLinearly) {
  // Multi-phase CSL algorithms feed restricted (sum < 1) distributions back
  // in; the result must be the linear restriction of the full evolution.
  const Ctmc chain = two_state(2.0, 6.0);
  const auto full = transient_distribution(chain, {1.0, 0.0}, 0.5);
  const auto half = transient_distribution(chain, {0.5, 0.0}, 0.5);
  EXPECT_NEAR(half[0], full[0] / 2.0, 1e-12);
  EXPECT_NEAR(half[1], full[1] / 2.0, 1e-12);
}

TEST(Transient, ExplicitUniformizationRateGivesSameAnswer) {
  const Ctmc chain = testing::figure3_chain();
  TransientOptions options;
  options.uniformization_rate = 500.0;  // far above max exit rate 104
  const auto a = transient_distribution(chain, start_in(3, 0), 0.3);
  const auto b = transient_distribution(chain, start_in(3, 0), 0.3, options);
  for (size_t i = 0; i < 3; ++i) EXPECT_NEAR(a[i], b[i], 1e-10);
}

TEST(TransientProbability, SumsTargetStates) {
  const Ctmc chain = testing::figure3_chain();
  const double p = transient_probability(chain, start_in(3, 0), {false, true, true}, 0.5);
  const auto dist = transient_distribution(chain, start_in(3, 0), 0.5);
  EXPECT_NEAR(p, dist[1] + dist[2], 1e-12);
}

TEST(BoundedReachability, PureBirthMatchesExponential) {
  const double a = 2.0;
  const Ctmc chain = two_state(a, 5.0);
  // Reaching state 1 within t only depends on the first jump: 1 - e^{-a t}.
  const double p =
      bounded_reachability(chain, start_in(2, 0), {true, true}, {false, true}, 0.4);
  EXPECT_NEAR(p, 1.0 - std::exp(-a * 0.4), 1e-10);
}

TEST(BoundedReachability, TargetAtTimeZeroCountsImmediately) {
  const Ctmc chain = two_state(1.0, 1.0);
  const double p =
      bounded_reachability(chain, start_in(2, 1), {true, true}, {false, true}, 0.0);
  EXPECT_DOUBLE_EQ(p, 1.0);
}

TEST(BoundedReachability, ForbiddenRegionBlocksPath) {
  // 0 -> 1 -> 2; forbid state 1: state 2 is unreachable.
  linalg::CsrBuilder builder(3, 3);
  builder.add(0, 1, 5.0);
  builder.add(1, 2, 5.0);
  const Ctmc chain(std::move(builder).build());
  const double p = bounded_reachability(chain, start_in(3, 0), {true, false, true},
                                        {false, false, true}, 10.0);
  EXPECT_NEAR(p, 0.0, 1e-12);
}

TEST(BoundedReachability, UntilWithReachableTarget) {
  // Same chain, nothing forbidden: P(reach 2 by t) = Erlang(2, 5) CDF.
  linalg::CsrBuilder builder(3, 3);
  builder.add(0, 1, 5.0);
  builder.add(1, 2, 5.0);
  const Ctmc chain(std::move(builder).build());
  const double t = 0.6;
  const double expected = 1.0 - std::exp(-5.0 * t) * (1.0 + 5.0 * t);
  const double p = bounded_reachability(chain, start_in(3, 0), {true, true, true},
                                        {false, false, true}, t);
  EXPECT_NEAR(p, expected, 1e-10);
}

TEST(BoundedReachability, MaskSizeChecked) {
  const Ctmc chain = two_state(1.0, 1.0);
  EXPECT_THROW(bounded_reachability(chain, start_in(2, 0), {true}, {true, false}, 1.0),
               std::invalid_argument);
}

TEST(Transient, NonFiniteInitialMassIsATypedNumericalError) {
  // Regression: `p < 0.0` is false for NaN, so NaN/Inf used to sail through
  // the input check and poison the solve. Now rejected up front, typed.
  const Ctmc chain = two_state(1.0, 1.0);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {nan, inf, -inf}) {
    try {
      transient_distribution(chain, {bad, 0.5}, 1.0);
      FAIL() << "non-finite probability accepted: " << bad;
    } catch (const util::EngineFailure& failure) {
      EXPECT_EQ(failure.code(), util::FailureCode::kNumericalError);
    }
  }
}

TEST(Transient, BlockedLayoutIsBitIdenticalToCsr) {
  const Ctmc chain = testing::figure3_chain();
  TransientOptions csr;
  csr.layout = linalg::MatrixLayout::kCsr;
  TransientOptions blocked;
  blocked.layout = linalg::MatrixLayout::kBlocked;
  for (double t : {0.05, 0.5, 2.0}) {
    const auto a = transient_distribution(chain, start_in(3, 0), t, csr);
    const auto b = transient_distribution(chain, start_in(3, 0), t, blocked);
    for (size_t i = 0; i < 3; ++i) EXPECT_EQ(a[i], b[i]) << "t=" << t;
  }
}

/// Heap bytes of a CSR matrix (values + columns + row offsets).
size_t csr_bytes(size_t nonzeros, size_t rows) {
  return nonzeros * (sizeof(double) + sizeof(uint32_t)) + (rows + 1) * sizeof(uint32_t);
}

/// Ring chain: state i moves to i+1 .. i+fanout (mod n) at distinct rates.
Ctmc ring_chain(size_t n, size_t fanout) {
  linalg::CsrBuilder builder(n, n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t k = 1; k <= fanout; ++k) builder.add(i, (i + k) % n, 0.5 * k + 0.01 * i);
  }
  return Ctmc{std::move(builder).build()};
}

/// What uniformize allocates for the fused build: Pᵀ at its nnz(R) + n
/// bound, plus the n-entry counting-sort cursor.
size_t fused_build_bytes(const Ctmc& chain) {
  const size_t n = chain.state_count();
  return csr_bytes(chain.rates().nonzeros() + n, n) + n * sizeof(uint32_t);
}

size_t kept_transpose_bytes(const Ctmc& chain) {
  const size_t n = chain.state_count();
  return csr_bytes(
      chain.uniformized_transposed(chain.default_uniformization_rate()).nonzeros(), n);
}

TEST(Transient, UniformizeBudgetChargesOnlyTheFusedBuild) {
  // 50 states stay below the blocked-layout threshold: CSR only.
  const Ctmc chain = ring_chain(50, 2);
  const size_t footprint = fused_build_bytes(chain);
  // The old up-front charge assumed P and Pᵀ alive together plus a SELL copy
  // whenever the layout was not pinned to CSR; a ceiling between the real
  // footprint and that estimate must now succeed.
  const size_t n = chain.state_count();
  const size_t bound = csr_bytes(chain.rates().nonzeros() + n, n);
  ASSERT_LT(footprint, 3 * bound + 2 * n * sizeof(uint32_t));

  TransientOptions options;
  options.budget = std::make_shared<util::ResourceBudget>(0, footprint);
  const Uniformized stage = uniformize(chain, options);
  EXPECT_FALSE(stage.blocked.has_value());
  EXPECT_EQ(options.budget->peak_bytes(), footprint);
  EXPECT_EQ(options.budget->charged_bytes(), kept_transpose_bytes(chain));
}

TEST(Transient, UniformizeBudgetBelowTheFootprintFailsBeforeAllocating) {
  const Ctmc chain = ring_chain(50, 2);
  TransientOptions options;
  options.budget =
      std::make_shared<util::ResourceBudget>(0, fused_build_bytes(chain) - 1);
  // With the allocation fault armed too, the typed budget failure must win:
  // the charge precedes the build.
  util::fault::arm_site("uniformize.alloc");
  try {
    uniformize(chain, options);
    ADD_FAILURE() << "uniformize fit under a ceiling below its footprint";
  } catch (const util::EngineFailure& failure) {
    EXPECT_EQ(failure.code(), util::FailureCode::kMemoryBudgetExceeded);
    EXPECT_EQ(failure.stage(), "uniformize");
  } catch (const std::bad_alloc&) {
    ADD_FAILURE() << "the allocation ran before the budget charge";
  }
  util::fault::disarm_all();
}

TEST(Transient, UniformizeBudgetChargesTheExactSellCopy) {
  // 200 states x 4 entries per row resolve to the blocked layout.
  const Ctmc chain = ring_chain(200, 3);
  const linalg::CsrMatrix transposed =
      chain.uniformized_transposed(chain.default_uniformization_rate());
  ASSERT_EQ(linalg::resolve_layout(linalg::MatrixLayout::kAuto, transposed),
            linalg::MatrixLayout::kBlocked);
  const size_t kept =
      kept_transpose_bytes(chain) + linalg::SellMatrix::bytes_for(transposed);
  ASSERT_GT(kept, fused_build_bytes(chain));

  TransientOptions options;
  options.budget = std::make_shared<util::ResourceBudget>(0, kept);
  const Uniformized stage = uniformize(chain, options);
  ASSERT_TRUE(stage.blocked.has_value());
  EXPECT_EQ(options.budget->charged_bytes(), kept);

  options.budget = std::make_shared<util::ResourceBudget>(0, kept - 1);
  try {
    uniformize(chain, options);
    ADD_FAILURE() << "the SELL copy fit under a ceiling below its size";
  } catch (const util::EngineFailure& failure) {
    EXPECT_EQ(failure.code(), util::FailureCode::kMemoryBudgetExceeded);
    EXPECT_EQ(failure.stage(), "uniformize");
  }
}

TEST(Transient, SteadyStateDetectionTruncatesLongHorizons) {
  // The figure-3 chain mixes in ~1 time unit; at t=50 the Poisson horizon is
  // thousands of steps while the iterate stops moving after a few hundred.
  const Ctmc chain = testing::figure3_chain();
  TransientOptions detect;
  detect.steady_state_detection = true;
  TransientOptions exhaustive;
  exhaustive.steady_state_detection = false;

  util::metrics::registry().set_enabled(true);
  const uint64_t products_before =
      util::metrics::registry().counter_value("ctmc.matrix_vector_products");
  const auto truncated = transient_distribution(chain, start_in(3, 2), 50.0, detect);
  const uint64_t products_truncated =
      util::metrics::registry().counter_value("ctmc.matrix_vector_products") -
      products_before;
  const auto full = transient_distribution(chain, start_in(3, 2), 50.0, exhaustive);
  const uint64_t products_full =
      util::metrics::registry().counter_value("ctmc.matrix_vector_products") -
      products_before - products_truncated;
  util::metrics::registry().set_enabled(false);

  // Same answer within the detection bound, for far fewer products.
  for (size_t i = 0; i < 3; ++i) EXPECT_NEAR(truncated[i], full[i], 1e-9);
  EXPECT_LT(products_truncated, products_full / 2);
}

TEST(Transient, DetectionKeepsShortHorizonsExact) {
  // On a short horizon the criterion never fires — results stay bit-identical
  // to the exhaustive sum.
  const Ctmc chain = two_state(2.0, 6.0);
  TransientOptions detect;
  TransientOptions exhaustive;
  exhaustive.steady_state_detection = false;
  const auto a = transient_distribution(chain, {1.0, 0.0}, 0.2, detect);
  const auto b = transient_distribution(chain, {1.0, 0.0}, 0.2, exhaustive);
  EXPECT_EQ(a[0], b[0]);
  EXPECT_EQ(a[1], b[1]);
}

class TransientGrid : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(TransientGrid, ClosedFormAcrossRatesAndTimes) {
  const auto [a, t] = GetParam();
  const double b = 9.5 - a;
  const Ctmc chain = two_state(a, b);
  const auto dist = transient_distribution(chain, start_in(2, 0), t);
  EXPECT_NEAR(dist[1], two_state_p1(a, b, t), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    RateTimeGrid, TransientGrid,
    ::testing::Combine(::testing::Values(0.5, 2.0, 5.0, 9.0),
                       ::testing::Values(0.05, 0.3, 1.0, 4.0)));

}  // namespace
}  // namespace autosec::ctmc
