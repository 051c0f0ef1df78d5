// Property tests for the hardware-speed product kernels: both SELL-C-σ
// loops (scalar and AVX-512) must be bit-identical to the CSR reference at
// any thread count, and only products from kParallelProductNonzeros up may
// open a pool job.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "linalg/csr_matrix.hpp"
#include "linalg/sell_matrix.hpp"
#include "util/metrics.hpp"
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

/// Seeded random matrix of `rows` rows, each with 0..max_len entries at
/// uniform columns (duplicates sum), so large sizes stay cheap to build.
CsrMatrix random_rows(uint64_t seed, size_t rows, size_t cols, size_t max_len) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> value(-2.0, 2.0);
  std::uniform_int_distribution<size_t> length(0, max_len);
  std::uniform_int_distribution<size_t> column(0, cols - 1);
  CsrBuilder builder(rows, cols);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t k = length(rng); k > 0; --k) builder.add(r, column(rng), value(rng));
  }
  return std::move(builder).build();
}

/// One input of the SELL loops, named for the failure messages.
struct KernelCase {
  std::string name;
  CsrMatrix matrix;
  std::vector<double> x;
};

/// Every shape the chunk loops handle differently: sizes across the chunk
/// (8) and sort-window (64) boundaries, a size past kParallelProductNonzeros
/// that splits across pool lanes, empty rows and whole empty chunks, one
/// long row among short ones, and NaN or ±Inf at x[0] — the column every
/// padding entry names.
std::vector<KernelCase> kernel_cases() {
  std::vector<KernelCase> cases;
  for (const size_t n : {1u, 7u, 8u, 9u, 63u, 64u, 65u, 1000u}) {
    const double density = n <= 65 ? 0.2 : 0.02;
    cases.push_back({"random n=" + std::to_string(n),
                     random_matrix(1000 + n, n, n, density), random_vector(7 * n + 1, n)});
  }
  // About 96k nonzeros in 1,000 chunks: at 4 lanes the product opens a pool
  // job and splits into several pool chunks.
  cases.push_back({"random n=8000", random_rows(8000, 8000, 8000, 24),
                   random_vector(8001, 8000)});

  // Two rows in three empty: whole chunks of every window hold no entry.
  CsrBuilder sparse(200, 200);
  for (size_t r = 0; r < 200; r += 3) {
    sparse.add(r, (r * 7) % 200, 0.5);
    sparse.add(r, (r * 13 + 1) % 200, -0.25);
  }
  cases.push_back({"empty rows", std::move(sparse).build(), random_vector(11, 200)});
  cases.push_back({"no entries", CsrMatrix(20, 20, std::vector<uint32_t>(21, 0), {}, {}),
                   random_vector(12, 20)});

  // Row 5 holds 60 entries and every other row one, so the long row's chunk
  // runs 59 steps with a single active lane.
  CsrBuilder skewed(64, 64);
  for (size_t r = 0; r < 64; ++r) {
    if (r == 5) {
      for (size_t c = 1; c <= 60; ++c) skewed.add(r, c, 1.0 / static_cast<double>(c));
    } else {
      skewed.add(r, (r + 3) % 64, 0.75);
    }
  }
  cases.push_back({"one long row", std::move(skewed).build(), random_vector(13, 64)});

  const CsrMatrix mixed = random_rows(14, 300, 300, 12);
  for (const double poison : {std::numeric_limits<double>::quiet_NaN(),
                              std::numeric_limits<double>::infinity(),
                              -std::numeric_limits<double>::infinity()}) {
    std::vector<double> x = random_vector(15, 300);
    x[0] = poison;
    x[1] = -0.0;
    cases.push_back({"x[0]=" + std::to_string(poison), mixed, std::move(x)});
  }
  return cases;
}

/// One of SellMatrix's product entry points.
using SellLoop = void (SellMatrix::*)(std::span<const double>, std::span<double>) const;

bool same_bits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

class ThreadCountGuard {
 public:
  ~ThreadCountGuard() { util::set_thread_count(0); }
};

/// Runs `loop` over every kernel case at 1, 4 and 8 threads and expects each
/// entry's bits (NaN payloads and zero signs included) to equal CSR's.
void expect_bit_identical_to_csr(SellLoop loop) {
  ThreadCountGuard guard;
  size_t parallel_cases = 0;
  for (const KernelCase& input : kernel_cases()) {
    const CsrMatrix& A = input.matrix;
    parallel_cases += A.nonzeros() >= kParallelProductNonzeros ? 1 : 0;
    const SellMatrix sell(A);
    EXPECT_EQ(sell.rows(), A.rows());
    EXPECT_EQ(sell.nonzeros(), A.nonzeros());
    std::vector<double> reference(A.rows(), 0.0);
    util::set_thread_count(1);
    A.right_multiply(input.x, reference);
    if (!std::isfinite(input.x[0])) {
      // A non-finite x[0] belongs in exactly the rows that read column 0
      // (the first column of a row, if it is there at all).
      size_t readers = 0;
      for (size_t r = 0; r < A.rows(); ++r) {
        const auto cols = A.row_columns(r);
        const bool reads_zero = !cols.empty() && cols.front() == 0;
        readers += reads_zero ? 1 : 0;
        EXPECT_NE(std::isfinite(reference[r]), reads_zero) << input.name << " row=" << r;
      }
      EXPECT_GT(readers, 0u) << input.name;
    }

    for (const size_t threads : {1u, 4u, 8u}) {
      util::set_thread_count(threads);
      std::vector<double> y(A.rows(), -1.0);
      (sell.*loop)(input.x, y);
      for (size_t i = 0; i < y.size(); ++i) {
        // Bitwise: the contract is exact equality, not closeness.
        EXPECT_PRED2(same_bits, y[i], reference[i])
            << input.name << " threads=" << threads << " row=" << i;
      }
    }
  }
  EXPECT_GT(parallel_cases, 0u) << "no case reaches the row-parallel product";
}

TEST(SellMatrix, BitIdenticalToCsrAcrossThreadCounts) {
  // The loop the engine runs: AVX-512 where the CPU has it, scalar elsewhere.
  expect_bit_identical_to_csr(&SellMatrix::right_multiply);
}

TEST(SellMatrix, ScalarLoopBitIdenticalToCsr) {
  expect_bit_identical_to_csr(&SellMatrix::right_multiply_scalar);
}

TEST(SellMatrix, Avx512LoopBitIdenticalToCsr) {
  if (SellMatrix::simd_lanes() != SellMatrix::kChunkRows) {
    GTEST_SKIP() << "this CPU lacks AVX-512F: the scalar loop is its only SELL path";
  }
  expect_bit_identical_to_csr(&SellMatrix::right_multiply_avx512);
}

TEST(SellMatrix, ChoosesTheLoopFromTheCpuAndRecordsIt) {
#if defined(__x86_64__)
  __builtin_cpu_init();
  const bool avx512f = __builtin_cpu_supports("avx512f");
#else
  const bool avx512f = false;
#endif
  EXPECT_EQ(SellMatrix::simd_lanes(), avx512f ? SellMatrix::kChunkRows : 1u);

  util::metrics::Registry& metrics = util::metrics::registry();
  metrics.reset();
  metrics.set_enabled(true);
  const SellMatrix sell(random_matrix(5, 16, 16, 0.3));
  metrics.set_enabled(false);
  EXPECT_EQ(metrics.gauge_value("linalg.sell_simd_lanes"),
            static_cast<double>(SellMatrix::simd_lanes()));
  metrics.reset();

  if (!avx512f) {
    const std::vector<double> x(16, 1.0);
    std::vector<double> y(16, 0.0);
    EXPECT_THROW(sell.right_multiply_avx512(x, y), std::logic_error);
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

TEST(ParallelProduct, OnlyProductsFromTheConstantUpOpenAPoolJob) {
  ThreadCountGuard guard;
  util::set_thread_count(4);
  util::metrics::Registry& metrics = util::metrics::registry();
  const CsrMatrix below = random_rows(21, 4000, 4000, 24);
  const CsrMatrix above = random_rows(22, 8000, 8000, 24);
  ASSERT_LT(below.nonzeros(), kParallelProductNonzeros);
  ASSERT_GE(above.nonzeros(), kParallelProductNonzeros);
  for (const CsrMatrix* A : {&below, &above}) {
    const uint64_t expected = A == &above ? 1 : 0;
    const SellMatrix sell(*A);
    const std::vector<double> x = random_vector(23, A->cols());
    std::vector<double> y(A->rows(), 0.0);
    metrics.reset();
    metrics.set_enabled(true);
    A->right_multiply(x, y);
    const uint64_t csr_jobs = metrics.counter_value("pool.jobs");
    sell.right_multiply(x, y);
    const uint64_t sell_jobs = metrics.counter_value("pool.jobs") - csr_jobs;
    metrics.set_enabled(false);
    EXPECT_EQ(csr_jobs, expected) << A->nonzeros() << " nonzeros";
    EXPECT_EQ(sell_jobs, expected) << A->nonzeros() << " nonzeros";
  }
  metrics.reset();
}

}  // namespace
}  // namespace autosec::linalg
