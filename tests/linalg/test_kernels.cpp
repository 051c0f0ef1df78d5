// Property tests for the hardware-speed solve kernels: the SELL-C-σ blocked
// layout must be bit-identical to the CSR reference at any thread count, and
// the multicolor Gauss-Seidel sweep must agree with the direct sweep within
// the documented tolerance (and be thread-count invariant itself).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

#include "linalg/coloring.hpp"
#include "linalg/csr_matrix.hpp"
#include "linalg/gauss_seidel.hpp"
#include "linalg/sell_matrix.hpp"
#include "util/parallel.hpp"

namespace autosec::linalg {
namespace {

/// Seeded random sparse matrix with irregular row lengths, including empty
/// rows (every kernel must predicate on true length, not chunk width).
CsrMatrix random_matrix(uint64_t seed, size_t rows, size_t cols,
                        double density) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> value(-2.0, 2.0);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  CsrBuilder builder(rows, cols);
  for (size_t r = 0; r < rows; ++r) {
    if (coin(rng) < 0.15) continue;  // empty row
    for (size_t c = 0; c < cols; ++c) {
      if (coin(rng) < density) builder.add(r, c, value(rng));
    }
  }
  return std::move(builder).build();
}

std::vector<double> random_vector(uint64_t seed, size_t n) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> value(-1.0, 1.0);
  std::vector<double> v(n);
  for (double& x : v) x = value(rng);
  return v;
}

/// Substochastic matrix (row sums < 1) so Gauss-Seidel fixpoint sweeps
/// contract; non-negative entries, irregular pattern.
CsrMatrix random_substochastic(uint64_t seed, size_t n, double density) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> value(0.0, 1.0);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  CsrBuilder builder(n, n);
  for (size_t r = 0; r < n; ++r) {
    std::vector<std::pair<size_t, double>> entries;
    double sum = 0.0;
    for (size_t c = 0; c < n; ++c) {
      if (coin(rng) < density) {
        const double v = value(rng);
        entries.emplace_back(c, v);
        sum += v;
      }
    }
    // Scale the row to a sum of 0.9 so the fixpoint iteration contracts.
    const double scale = sum > 0.0 ? 0.9 / sum : 0.0;
    for (const auto& [c, v] : entries) builder.add(r, c, v * scale);
  }
  return std::move(builder).build();
}

class ThreadCountGuard {
 public:
  ~ThreadCountGuard() { util::set_thread_count(0); }
};

TEST(SellMatrix, BitIdenticalToCsrAcrossThreadCounts) {
  ThreadCountGuard guard;
  // Sizes straddle the chunk (8) and sort-window (64) boundaries.
  for (const size_t n : {1u, 5u, 8u, 9u, 63u, 64u, 65u, 200u}) {
    const CsrMatrix A = random_matrix(1000 + n, n, n, 0.2);
    const SellMatrix sell(A);
    EXPECT_EQ(sell.rows(), A.rows());
    EXPECT_EQ(sell.nonzeros(), A.nonzeros());

    const std::vector<double> x = random_vector(7 * n + 1, n);
    std::vector<double> reference(n, 0.0);
    util::set_thread_count(1);
    A.right_multiply(x, reference);

    for (const size_t threads : {1u, 4u, 8u}) {
      util::set_thread_count(threads);
      std::vector<double> y(n, -1.0);
      sell.right_multiply(x, y);
      for (size_t i = 0; i < n; ++i) {
        // Bitwise: the contract is exact equality, not closeness.
        EXPECT_EQ(y[i], reference[i]) << "n=" << n << " threads=" << threads
                                      << " row=" << i;
      }
    }
  }
}

TEST(SellMatrix, EmptyMatrixAndSingleState) {
  const CsrMatrix empty(1, 1, {0, 0}, {}, {});
  const SellMatrix sell(empty);
  std::vector<double> y(1, 5.0);
  sell.right_multiply(std::vector<double>{3.0}, y);
  EXPECT_EQ(y[0], 0.0);

  CsrBuilder builder(1, 1);
  builder.add(0, 0, 0.25);
  const SellMatrix single(std::move(builder).build());
  single.right_multiply(std::vector<double>{4.0}, y);
  EXPECT_EQ(y[0], 1.0);
}

TEST(SellMatrix, BytesForMatchesThePackedFootprint) {
  // The uniformize budget charges bytes_for() before packing, so it must be
  // the exact footprint — chunk padding included — not an estimate.
  for (const size_t n : {1u, 7u, 8u, 63u, 64u, 65u, 200u}) {
    const CsrMatrix A = random_matrix(2000 + n, n, n, 0.15);
    const SellMatrix sell(A);
    EXPECT_EQ(SellMatrix::bytes_for(A), sell.bytes()) << "n=" << n;
    EXPECT_GE(sell.padded_entries(), A.nonzeros());
  }
}

TEST(SellMatrix, ResolveLayoutIsAFunctionOfTheMatrixAlone) {
  const CsrMatrix small = random_matrix(3, 8, 8, 0.5);
  EXPECT_EQ(resolve_layout(MatrixLayout::kAuto, small), MatrixLayout::kCsr);
  EXPECT_EQ(resolve_layout(MatrixLayout::kBlocked, small), MatrixLayout::kBlocked);
  const CsrMatrix large = random_matrix(4, 128, 128, 0.4);
  ASSERT_GE(large.nonzeros(), 512u);
  EXPECT_EQ(resolve_layout(MatrixLayout::kAuto, large), MatrixLayout::kBlocked);
  EXPECT_EQ(resolve_layout(MatrixLayout::kCsr, large), MatrixLayout::kCsr);
}

TEST(Coloring, NoAdjacentRowsShareAColor) {
  for (const uint64_t seed : {11u, 12u, 13u}) {
    const CsrMatrix A = random_matrix(seed, 60, 60, 0.1);
    const ColorSchedule schedule = greedy_coloring(A);
    ASSERT_EQ(schedule.color_of.size(), A.rows());
    ASSERT_EQ(schedule.order.size(), A.rows());
    ASSERT_EQ(schedule.color_offsets.size(), schedule.color_count + 1);
    // Every row appears exactly once in the order.
    std::vector<bool> seen(A.rows(), false);
    for (const uint32_t row : schedule.order) {
      EXPECT_FALSE(seen[row]);
      seen[row] = true;
    }
    // Neighbors in the symmetrized pattern get distinct colors.
    const SymmetricAdjacency adjacency = symmetric_adjacency(A);
    for (size_t i = 0; i < A.rows(); ++i) {
      for (uint32_t k = adjacency.offsets[i]; k < adjacency.offsets[i + 1]; ++k) {
        EXPECT_NE(schedule.color_of[i], schedule.color_of[adjacency.neighbors[k]])
            << "rows " << i << " and " << adjacency.neighbors[k];
      }
    }
  }
}

TEST(ColoredGaussSeidel, AgreesWithDirectSweepWithinTolerance) {
  for (const uint64_t seed : {21u, 22u, 23u}) {
    const CsrMatrix A = random_substochastic(seed, 50, 0.1);
    const std::vector<double> b = random_vector(seed + 100, 50);

    IterativeOptions direct;
    direct.method = FixpointMethod::kGaussSeidel;
    direct.ordering = GsOrdering::kDirect;
    IterativeOptions colored = direct;
    colored.ordering = GsOrdering::kColored;

    const IterativeResult ref = solve_fixpoint(A, b, direct);
    const IterativeResult alt = solve_fixpoint(A, b, colored);
    ASSERT_TRUE(ref.converged);
    ASSERT_TRUE(alt.converged);
    for (size_t i = 0; i < ref.x.size(); ++i) {
      EXPECT_NEAR(alt.x[i], ref.x[i], 1e-10) << "row " << i;
    }
  }
}

TEST(ColoredGaussSeidel, BitIdenticalAcrossThreadCounts) {
  ThreadCountGuard guard;
  const CsrMatrix A = random_substochastic(31, 80, 0.08);
  const std::vector<double> b = random_vector(32, 80);
  IterativeOptions colored;
  colored.method = FixpointMethod::kGaussSeidel;
  colored.ordering = GsOrdering::kColored;

  util::set_thread_count(1);
  const IterativeResult serial = solve_fixpoint(A, b, colored);
  ASSERT_TRUE(serial.converged);
  for (const size_t threads : {4u, 8u}) {
    util::set_thread_count(threads);
    const IterativeResult parallel = solve_fixpoint(A, b, colored);
    ASSERT_TRUE(parallel.converged);
    EXPECT_EQ(parallel.iterations, serial.iterations);
    for (size_t i = 0; i < serial.x.size(); ++i) {
      EXPECT_EQ(parallel.x[i], serial.x[i]) << "threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace autosec::linalg
