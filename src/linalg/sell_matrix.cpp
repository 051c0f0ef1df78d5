#include "linalg/sell_matrix.hpp"

#include <algorithm>
#include <climits>
#include <functional>
#include <numeric>
#include <stdexcept>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "util/metrics.hpp"
#include "util/parallel.hpp"

namespace autosec::linalg {

namespace {

constexpr size_t kChunkRows = SellMatrix::kChunkRows;

/// The packed arrays one product reads. The chunk loops are free functions
/// over this view so the AVX-512 one can carry its own target attribute.
struct Packed {
  const uint32_t* chunk_offsets;
  const uint32_t* row_lengths;
  const uint32_t* row_ids;
  const uint32_t* columns;
  const double* values;
  size_t rows;
};

void scalar_chunks(const Packed& m, const double* x, double* y, size_t begin,
                   size_t end) {
  for (size_t c = begin; c < end; ++c) {
    const size_t base = m.chunk_offsets[c];
    const size_t width = (m.chunk_offsets[c + 1] - base) / kChunkRows;
    const size_t lane_count = std::min(kChunkRows, m.rows - c * kChunkRows);
    double acc[kChunkRows] = {0.0};
    const uint32_t* lens = m.row_lengths + c * kChunkRows;
    // The σ-window sort leaves every chunk's lane lengths non-increasing
    // (kChunkRows divides kSortWindow, so chunks never straddle a window).
    // Lanes still holding entries at step j therefore form a prefix, and
    // the per-lane predicate collapses to a branchless `l < active` bound.
    // Each lane still accumulates its row's entries in ascending column
    // order — exactly the CSR sum, bit for bit.
    size_t active = lane_count;
    for (size_t j = 0; j < width; ++j) {
      while (active > 0 && lens[active - 1] <= j) --active;
      const uint32_t* cols = m.columns + base + j * kChunkRows;
      const double* vals = m.values + base + j * kChunkRows;
      if (active == kChunkRows) {
        // Fixed trip count: the compiler unrolls the full-chunk case.
        for (size_t l = 0; l < kChunkRows; ++l) acc[l] += vals[l] * x[cols[l]];
      } else {
        for (size_t l = 0; l < active; ++l) acc[l] += vals[l] * x[cols[l]];
      }
    }
    const uint32_t* ids = m.row_ids + c * kChunkRows;
    for (size_t l = 0; l < lane_count; ++l) y[ids[l]] = acc[l];
  }
}

#if defined(__x86_64__)
/// The scalar loop with the eight lanes of a chunk in one zmm accumulator.
/// Per column step: a gather of x, a multiply, then a separate add, masked to
/// the lanes whose rows still have entries in both the gather and the add. An
/// unmasked lane would add 0·x[0] to a finished row, which turns a NaN or Inf
/// at x[0] into NaN and can flip a −0.0 sum. Built without FP contraction,
/// every lane rounds its product and its sum exactly as the scalar loop does.
__attribute__((target("avx512f"))) void avx512_chunks(const Packed& m,
                                                      const double* x, double* y,
                                                      size_t begin, size_t end) {
  for (size_t c = begin; c < end; ++c) {
    const size_t base = m.chunk_offsets[c];
    const size_t width = (m.chunk_offsets[c + 1] - base) / kChunkRows;
    const size_t lane_count = std::min(kChunkRows, m.rows - c * kChunkRows);
    // Lane l is active at step j while j < its row length: one compare per
    // step against the lengths, loaded once per chunk (masked, so the last
    // chunk reads no length past the last row). Branch-free, unlike the
    // scalar loop's prefix walk, whose exits mispredict.
    const __m512i lens = _mm512_maskz_loadu_epi32(
        static_cast<__mmask16>((1u << lane_count) - 1u), m.row_lengths + c * kChunkRows);
    __m512d acc = _mm512_setzero_pd();
    for (size_t j = 0; j < width; ++j) {
      const __mmask8 lanes = static_cast<__mmask8>(
          _mm512_cmpgt_epu32_mask(lens, _mm512_set1_epi32(static_cast<int>(j))));
      const __m256i cols = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(m.columns + base + j * kChunkRows));
      const __m512d vals = _mm512_loadu_pd(m.values + base + j * kChunkRows);
      const __m512d xs =
          _mm512_mask_i32gather_pd(_mm512_setzero_pd(), lanes, cols, x, sizeof(double));
      acc = _mm512_mask_add_pd(acc, lanes, acc, _mm512_mul_pd(vals, xs));
    }
    alignas(64) double sums[kChunkRows];
    _mm512_store_pd(sums, acc);
    const uint32_t* ids = m.row_ids + c * kChunkRows;
    for (size_t l = 0; l < lane_count; ++l) y[ids[l]] = sums[l];
  }
}
#endif

bool cpu_has_avx512f() {
#if defined(__x86_64__)
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx512f");
#else
  return false;
#endif
}

}  // namespace

MatrixLayout resolve_layout(MatrixLayout requested, const CsrMatrix& matrix) {
  if (requested != MatrixLayout::kAuto) return requested;
  // Small matrices stay CSR: the packed copy costs more than the handful of
  // products it would accelerate. Thresholds are properties of the matrix
  // alone, so the resolution is identical at every thread count.
  return (matrix.rows() >= 64 && matrix.nonzeros() >= 512) ? MatrixLayout::kBlocked
                                                           : MatrixLayout::kCsr;
}

SellMatrix::SellMatrix(const CsrMatrix& source)
    : row_count_(source.rows()),
      column_count_(source.cols()),
      nonzeros_(source.nonzeros()) {
  const size_t n = row_count_;
  row_ids_.resize(n);
  row_lengths_.resize(n);
  std::iota(row_ids_.begin(), row_ids_.end(), 0u);
  // Sort rows by descending length within each σ window; stable, so equal
  // lengths keep their natural order and the layout is deterministic.
  for (size_t begin = 0; begin < n; begin += kSortWindow) {
    const size_t end = std::min(n, begin + kSortWindow);
    std::stable_sort(row_ids_.begin() + begin, row_ids_.begin() + end,
                     [&](uint32_t a, uint32_t b) {
                       return source.row_columns(a).size() > source.row_columns(b).size();
                     });
  }
  for (size_t p = 0; p < n; ++p) {
    row_lengths_[p] = static_cast<uint32_t>(source.row_columns(row_ids_[p]).size());
  }

  const size_t chunks = (n + kChunkRows - 1) / kChunkRows;
  chunk_offsets_.assign(chunks + 1, 0);
  size_t total = 0;
  for (size_t c = 0; c < chunks; ++c) {
    chunk_offsets_[c] = static_cast<uint32_t>(total);
    uint32_t width = 0;
    const size_t lane_end = std::min(n, (c + 1) * kChunkRows);
    for (size_t p = c * kChunkRows; p < lane_end; ++p) {
      width = std::max(width, row_lengths_[p]);
    }
    total += static_cast<size_t>(width) * kChunkRows;
  }
  chunk_offsets_[chunks] = static_cast<uint32_t>(total);
  if (total > static_cast<size_t>(UINT32_MAX)) {
    throw std::length_error("SellMatrix: padded entry count exceeds uint32 offsets");
  }
  if (column_count_ > static_cast<size_t>(INT_MAX)) {
    // The AVX-512 gather reads its indices as signed 32-bit integers.
    throw std::length_error("SellMatrix: column count exceeds int32 gather indices");
  }

  // Padding lanes keep column 0 / value 0; the kernel predicates on the true
  // row length and never reads them.
  columns_.assign(total, 0);
  values_.assign(total, 0.0);
  for (size_t c = 0; c < chunks; ++c) {
    const size_t base = chunk_offsets_[c];
    const size_t lane_end = std::min(n, (c + 1) * kChunkRows);
    for (size_t p = c * kChunkRows; p < lane_end; ++p) {
      const size_t lane = p - c * kChunkRows;
      const auto cols = source.row_columns(row_ids_[p]);
      const auto vals = source.row_values(row_ids_[p]);
      for (size_t j = 0; j < cols.size(); ++j) {
        columns_[base + j * kChunkRows + lane] = cols[j];
        values_[base + j * kChunkRows + lane] = vals[j];
      }
    }
  }
  // Names the loop every product of this matrix runs, so a metrics file
  // says which kernel its product rate came from.
  util::metrics::registry().gauge("linalg.sell_simd_lanes",
                                  static_cast<double>(simd_lanes()));
}

size_t SellMatrix::bytes_for(const CsrMatrix& source) {
  const size_t n = source.rows();
  // Rows sort by descending length within each σ window, so chunk k of a
  // window is exactly as wide as the window's (k·C)-th longest row.
  size_t padded = 0;
  std::vector<size_t> lengths;
  for (size_t begin = 0; begin < n; begin += kSortWindow) {
    const size_t end = std::min(n, begin + kSortWindow);
    lengths.clear();
    for (size_t r = begin; r < end; ++r) lengths.push_back(source.row_columns(r).size());
    std::sort(lengths.begin(), lengths.end(), std::greater<>());
    for (size_t k = 0; k < lengths.size(); k += kChunkRows) {
      padded += lengths[k] * kChunkRows;
    }
  }
  const size_t chunks = (n + kChunkRows - 1) / kChunkRows;
  return padded * (sizeof(double) + sizeof(uint32_t)) + n * 2 * sizeof(uint32_t) +
         (chunks + 1) * sizeof(uint32_t);
}

size_t SellMatrix::simd_lanes() {
  // Asked once per process: both loops give the same bits, so the choice
  // never shows in a result, only in the time a product takes.
  static const size_t lanes = cpu_has_avx512f() ? kChunkRows : 1;
  return lanes;
}

template <class ChunkLoop>
void SellMatrix::multiply(std::span<const double> x, std::span<double> y,
                          ChunkLoop chunk_loop) const {
  if (x.size() != column_count_ || y.size() != row_count_) {
    throw std::invalid_argument("SellMatrix::right_multiply: dimension mismatch");
  }
  const Packed packed{chunk_offsets_.data(), row_lengths_.data(), row_ids_.data(),
                      columns_.data(),       values_.data(),      row_count_};
  const size_t chunks = chunk_offsets_.empty() ? 0 : chunk_offsets_.size() - 1;
  if (nonzeros_ < kParallelProductNonzeros) {
    chunk_loop(packed, x.data(), y.data(), 0, chunks);
    return;
  }
  // Chunk-disjoint writes (each row belongs to exactly one chunk lane), same
  // grain as the CSR kernel in rows: 1024 rows = 128 chunks per task.
  util::parallel_for(0, chunks, 128, [&](size_t begin, size_t end) {
    chunk_loop(packed, x.data(), y.data(), begin, end);
  });
}

void SellMatrix::right_multiply(std::span<const double> x, std::span<double> y) const {
  if (simd_lanes() == kChunkRows) {
    right_multiply_avx512(x, y);
  } else {
    right_multiply_scalar(x, y);
  }
}

void SellMatrix::right_multiply_scalar(std::span<const double> x,
                                       std::span<double> y) const {
  multiply(x, y, scalar_chunks);
}

void SellMatrix::right_multiply_avx512(std::span<const double> x,
                                       std::span<double> y) const {
#if defined(__x86_64__)
  if (simd_lanes() == kChunkRows) {
    multiply(x, y, avx512_chunks);
    return;
  }
#endif
  throw std::logic_error("SellMatrix::right_multiply_avx512: this CPU lacks AVX-512F");
}

}  // namespace autosec::linalg
