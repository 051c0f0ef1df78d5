#include "ctmc/ctmc.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <random>

#include "ctmc/transient.hpp"
#include "ctmc_test_helpers.hpp"

namespace autosec::ctmc {
namespace {

using testing::two_state;

TEST(Ctmc, ExitRates) {
  const Ctmc chain = testing::figure3_chain();
  EXPECT_DOUBLE_EQ(chain.exit_rate(0), 2.0);
  EXPECT_DOUBLE_EQ(chain.exit_rate(1), 54.0);
  EXPECT_DOUBLE_EQ(chain.exit_rate(2), 104.0);
  EXPECT_DOUBLE_EQ(chain.max_exit_rate(), 104.0);
}

TEST(Ctmc, GeneratorMatchesPaperEq14) {
  // Eq. (14): Q = [[-2, 2, 0], [52, -54, 2], [52, 52, -104]].
  const Ctmc chain = testing::figure3_chain();
  const linalg::CsrMatrix Q = chain.generator();
  EXPECT_DOUBLE_EQ(Q.at(0, 0), -2.0);
  EXPECT_DOUBLE_EQ(Q.at(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(Q.at(0, 2), 0.0);
  EXPECT_DOUBLE_EQ(Q.at(1, 0), 52.0);
  EXPECT_DOUBLE_EQ(Q.at(1, 1), -54.0);
  EXPECT_DOUBLE_EQ(Q.at(1, 2), 2.0);
  EXPECT_DOUBLE_EQ(Q.at(2, 0), 52.0);
  EXPECT_DOUBLE_EQ(Q.at(2, 1), 52.0);
  EXPECT_DOUBLE_EQ(Q.at(2, 2), -104.0);
  // Generator rows sum to zero.
  for (size_t r = 0; r < 3; ++r) EXPECT_NEAR(Q.row_sum(r), 0.0, 1e-12);
}

TEST(Ctmc, RejectsSelfLoop) {
  linalg::CsrBuilder builder(1, 1);
  builder.add(0, 0, 1.0);
  EXPECT_THROW(Ctmc(std::move(builder).build()), std::invalid_argument);
}

TEST(Ctmc, RejectsNegativeRate) {
  linalg::CsrBuilder builder(2, 2);
  builder.add(0, 1, -1.0);
  EXPECT_THROW(Ctmc(std::move(builder).build()), std::invalid_argument);
}

TEST(Ctmc, RejectsNonSquare) {
  linalg::CsrBuilder builder(2, 3);
  builder.add(0, 2, 1.0);
  EXPECT_THROW(Ctmc(std::move(builder).build()), std::invalid_argument);
}

TEST(Ctmc, UniformizedRowsAreStochastic) {
  const Ctmc chain = testing::figure3_chain();
  const double q = chain.default_uniformization_rate();
  const linalg::CsrMatrix P = chain.uniformized_transposed(q).transposed();
  for (size_t r = 0; r < P.rows(); ++r) EXPECT_NEAR(P.row_sum(r), 1.0, 1e-12);
  // Self-loop compensates the exit rate gap.
  EXPECT_NEAR(P.at(0, 0), 1.0 - 2.0 / q, 1e-12);
}

TEST(Ctmc, UniformizedRejectsTooSmallRate) {
  const Ctmc chain = two_state(3.0, 1.0);
  EXPECT_THROW(chain.uniformized_transposed(2.0), std::invalid_argument);
}

TEST(Ctmc, UniformizedAbsorbingStateGetsFullSelfLoop) {
  linalg::CsrBuilder builder(2, 2);
  builder.add(0, 1, 1.0);  // state 1 is absorbing
  const Ctmc chain(std::move(builder).build());
  const linalg::CsrMatrix P = chain.uniformized_transposed(2.0).transposed();
  EXPECT_DOUBLE_EQ(P.at(1, 1), 1.0);
  EXPECT_NEAR(P.row_sum(0), 1.0, 1e-12);
}

/// `chain` with the `absorbing` states' rows left out, built entry by entry:
/// the reference a masked build must reproduce bit for bit.
Ctmc hand_built_absorbing(const Ctmc& chain, const std::vector<bool>& absorbing) {
  const size_t n = chain.state_count();
  linalg::CsrBuilder builder(n, n);
  for (size_t i = 0; i < n; ++i) {
    if (absorbing[i]) continue;
    const auto cols = chain.rates().row_columns(i);
    const auto vals = chain.rates().row_values(i);
    for (size_t k = 0; k < cols.size(); ++k) builder.add(i, cols[k], vals[k]);
  }
  return Ctmc(std::move(builder).build());
}

void expect_same_bits(const linalg::CsrMatrix& a, const linalg::CsrMatrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.nonzeros(), b.nonzeros());
  EXPECT_TRUE(std::ranges::equal(a.row_offsets(), b.row_offsets()));
  EXPECT_TRUE(std::ranges::equal(a.columns(), b.columns()));
  for (size_t r = 0; r < a.rows(); ++r) {
    const auto va = a.row_values(r);
    const auto vb = b.row_values(r);
    for (size_t k = 0; k < va.size(); ++k) {
      EXPECT_EQ(std::bit_cast<uint64_t>(va[k]), std::bit_cast<uint64_t>(vb[k]))
          << "row " << r << " entry " << k;
    }
  }
}

TEST(Ctmc, MaskedUniformizationMatchesAHandBuiltAbsorbingChain) {
  // The paper's chain and a denser 60-state one, under masks that stop
  // nothing, one state, a third of the states and every state.
  std::mt19937 rng(29);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  linalg::CsrBuilder builder(60, 60);
  for (size_t i = 0; i < 60; ++i) {
    for (size_t j = 0; j < 60; ++j) {
      if (i != j && coin(rng) < 0.1) builder.add(i, j, 0.01 + 40.0 * coin(rng));
    }
  }
  const std::vector<Ctmc> chains = {testing::figure3_chain(),
                                    Ctmc(std::move(builder).build())};
  for (const Ctmc& chain : chains) {
    const size_t n = chain.state_count();
    std::vector<std::vector<bool>> masks = {std::vector<bool>(n, false),
                                            std::vector<bool>(n, true)};
    masks.emplace_back(n, false).at(1) = true;
    auto& third = masks.emplace_back(n, false);
    for (size_t i = 0; i < n; i += 3) third[i] = true;
    for (const std::vector<bool>& mask : masks) {
      const Ctmc reference = hand_built_absorbing(chain, mask);
      EXPECT_EQ(chain.max_exit_rate(mask), reference.max_exit_rate());
      const double q = chain.default_uniformization_rate(mask);
      EXPECT_EQ(std::bit_cast<uint64_t>(q),
                std::bit_cast<uint64_t>(reference.default_uniformization_rate()));
      expect_same_bits(chain.uniformized_transposed(q, mask),
                       reference.uniformized_transposed(q));
      const Uniformized masked = uniformize(chain, {}, mask);
      const Uniformized copied = uniformize(reference);
      EXPECT_EQ(std::bit_cast<uint64_t>(masked.q), std::bit_cast<uint64_t>(copied.q));
      expect_same_bits(masked.transposed, copied.transposed);
    }
  }
}

TEST(Ctmc, MaskedStateKeepsNoOutgoingRate) {
  const Ctmc chain = testing::figure3_chain();
  const std::vector<bool> mask = {false, true, false};
  EXPECT_DOUBLE_EQ(chain.max_exit_rate(mask), 104.0);
  EXPECT_DOUBLE_EQ(chain.max_exit_rate({false, false, true}), 54.0);
  const double q = chain.default_uniformization_rate(mask);
  const linalg::CsrMatrix Pt = chain.uniformized_transposed(q, mask);
  // Pᵀ(c, r) = P(r, c): state 1 only loops on itself, while state 2 still
  // moves into it.
  EXPECT_DOUBLE_EQ(Pt.at(1, 1), 1.0);
  EXPECT_DOUBLE_EQ(Pt.at(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(Pt.at(2, 1), 0.0);
  EXPECT_DOUBLE_EQ(Pt.at(1, 2), 52.0 / q);
  EXPECT_DOUBLE_EQ(Pt.at(0, 0), 1.0 - 2.0 / q);
}

TEST(Ctmc, AbsorbingMaskSizeChecked) {
  const Ctmc chain = two_state(1.0, 1.0);
  EXPECT_THROW(chain.max_exit_rate({true}), std::invalid_argument);
  EXPECT_THROW(chain.default_uniformization_rate({true}), std::invalid_argument);
  EXPECT_THROW(chain.uniformized_transposed(4.0, {true, false, false}),
               std::invalid_argument);
  EXPECT_THROW(uniformize(chain, {}, {true}), std::invalid_argument);
  TransientOptions fixed_rate;
  fixed_rate.uniformization_rate = 4.0;
  EXPECT_THROW(uniformize(chain, fixed_rate, {true}), std::invalid_argument);
}

TEST(Ctmc, DefaultUniformizationRateAboveMaxExit) {
  const Ctmc chain = two_state(3.0, 7.0);
  EXPECT_GT(chain.default_uniformization_rate(), chain.max_exit_rate());
}

TEST(Ctmc, AllAbsorbingChainHasPositiveDefaultRate) {
  linalg::CsrBuilder builder(2, 2);
  const Ctmc chain(std::move(builder).build());
  EXPECT_GT(chain.default_uniformization_rate(), 0.0);
}

}  // namespace
}  // namespace autosec::ctmc
