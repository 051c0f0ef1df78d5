#include "ctmc/restricted.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <random>

#include "ctmc/scc.hpp"
#include "ctmc_test_helpers.hpp"
#include "linalg/dense.hpp"
#include "util/cancel.hpp"
#include "util/failure.hpp"
#include "util/fault.hpp"

namespace autosec::ctmc {
namespace {

/// A reducible 40-state chain: random edges, with states 0 and 1 absorbing.
Ctmc random_reducible_chain(uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  linalg::CsrBuilder builder(40, 40);
  for (size_t i = 2; i < 40; ++i) {
    builder.add(i, (i + 1) % 40, 0.5 + coin(rng));
    for (size_t j = 0; j < 40; ++j) {
      if (i != j && j != (i + 1) % 40 && coin(rng) < 0.12) {
        builder.add(i, j, 0.01 + 30.0 * coin(rng));
      }
    }
  }
  return Ctmc(std::move(builder).build());
}

TEST(RestrictedSystem, OneStepIsTheEmbeddedChain) {
  const Ctmc chain = testing::figure3_chain();
  const RestrictedSystem system(chain, {false, true, true}, {}, "test");
  EXPECT_EQ(system.states(), (std::vector<uint32_t>{1, 2}));
  const std::vector<double> b = system.one_step([](uint32_t j) { return j == 0; });
  ASSERT_EQ(b.size(), 2u);
  EXPECT_EQ(std::bit_cast<uint64_t>(b[0]), std::bit_cast<uint64_t>(52.0 / 54.0));
  EXPECT_EQ(std::bit_cast<uint64_t>(b[1]), std::bit_cast<uint64_t>(52.0 / 104.0));
  // Two members with two block entries between them (1 -> 2 and 2 -> 1).
  EXPECT_EQ(system.block_bytes(), linalg::CsrMatrix::bytes_for(2, 2));
}

TEST(RestrictedSystem, SolveAgreesWithTheDenseOracle) {
  // Unbounded reachability of {0}, with and without states forbidden: the
  // engine's restricted solve against (I − A)⁻¹ b solved densely over the
  // same uncertain states, A built here straight from R / E.
  for (const uint32_t seed : {3u, 17u, 2029u}) {
    const Ctmc chain = random_reducible_chain(seed);
    const size_t n = chain.state_count();
    std::vector<bool> target(n, false);
    target[0] = true;
    std::vector<bool> forbidden(n, false);
    for (size_t i = 5; i < n; i += 7) forbidden[i] = true;
    for (const std::vector<bool>& stopped : {std::vector<bool>{}, forbidden}) {
      const ReachabilityClassification classes =
          classify_reachability(chain.rates(), target, stopped);
      std::vector<bool> uncertain(n, false);
      for (size_t i = 0; i < n; ++i) {
        uncertain[i] = classes.possible[i] && !classes.certain[i];
      }
      const RestrictedSystem system(chain, uncertain, {}, "test");
      const size_t m = system.states().size();
      ASSERT_GT(m, 5u) << "seed " << seed;
      const std::vector<double> b =
          system.one_step([&](uint32_t j) { return classes.certain[j]; });
      const RestrictedSystem::Solution solved = system.solve(b);
      EXPECT_EQ(solved.fallbacks, 0u);

      std::vector<size_t> local_of(n, n);
      for (size_t k = 0; k < m; ++k) local_of[system.states()[k]] = k;
      linalg::DenseMatrix dense(m, m);
      std::vector<double> rhs(m, 0.0);
      for (size_t k = 0; k < m; ++k) {
        const uint32_t i = system.states()[k];
        dense.at(k, k) = 1.0;
        const auto cols = chain.rates().row_columns(i);
        const auto vals = chain.rates().row_values(i);
        for (size_t e = 0; e < cols.size(); ++e) {
          const double p = vals[e] / chain.exit_rate(i);
          if (classes.certain[cols[e]]) rhs[k] += p;
          if (local_of[cols[e]] < n) dense.at(k, local_of[cols[e]]) -= p;
        }
      }
      const std::vector<double> oracle = linalg::dense_solve(dense, rhs);
      for (size_t k = 0; k < m; ++k) {
        EXPECT_NEAR(solved.x[k], oracle[k], 1e-10) << "seed " << seed << " state "
                                                    << system.states()[k];
      }
    }
  }
}

TEST(RestrictedSystem, ChargesTheBlockWhileItLives) {
  const Ctmc chain = random_reducible_chain(3);
  std::vector<bool> members(chain.state_count(), true);
  members[0] = members[1] = false;  // the absorbing states
  SteadyStateOptions options;
  options.budget = std::make_shared<util::ResourceBudget>();
  options.budget->charge_bytes(1000, "test");
  {
    const RestrictedSystem system(chain, members, options, "test");
    size_t entries = 0;
    for (size_t i = 2; i < chain.state_count(); ++i) {
      for (const uint32_t c : chain.rates().row_columns(i)) entries += c >= 2;
    }
    EXPECT_EQ(system.block_bytes(), linalg::CsrMatrix::bytes_for(entries, 38));
    EXPECT_EQ(options.budget->charged_bytes(), 1000 + system.block_bytes());
  }
  EXPECT_EQ(options.budget->charged_bytes(), 1000u);

  // A ceiling below the block stops the build as a typed failure.
  options.budget = std::make_shared<util::ResourceBudget>(0, 64);
  try {
    const RestrictedSystem system(chain, members, options, "test");
    ADD_FAILURE() << "the block was built over its ceiling";
  } catch (const util::EngineFailure& failure) {
    EXPECT_EQ(failure.code(), util::FailureCode::kMemoryBudgetExceeded);
  }
}

TEST(RestrictedSystem, FailuresAreTypedInOnePlace) {
  const Ctmc chain = testing::figure3_chain();
  const std::vector<bool> members = {false, true, true};
  const auto into_zero = [](uint32_t j) { return j == 0; };

  // One rung down: the answer stands and the fallback is counted.
  util::fault::disarm_all();
  util::fault::arm("krylov.breakdown");
  {
    const RestrictedSystem system(chain, members, {}, "test");
    const RestrictedSystem::Solution solved = system.solve(system.one_step(into_zero));
    EXPECT_EQ(solved.fallbacks, 1u);
    EXPECT_NEAR(solved.x[0], 1.0, 1e-12);
  }

  // Every rung down: solver_diverged under the system's stage.
  util::fault::arm("krylov.breakdown,gauss_seidel.diverge,power.diverge");
  try {
    const RestrictedSystem system(chain, members, {}, "test");
    system.solve(system.one_step(into_zero));
    ADD_FAILURE() << "a solve with every rung faulted returned";
  } catch (const util::EngineFailure& failure) {
    EXPECT_EQ(failure.code(), util::FailureCode::kSolverDiverged);
    EXPECT_EQ(failure.stage(), "test");
  }
  util::fault::disarm_all();

  // A cancelled solve unwinds as util::Cancelled.
  SteadyStateOptions cancelled;
  cancelled.solver.cancelled = [] { return true; };
  const RestrictedSystem system(chain, members, cancelled, "test");
  EXPECT_THROW(system.solve(system.one_step(into_zero)), util::Cancelled);
}

}  // namespace
}  // namespace autosec::ctmc
