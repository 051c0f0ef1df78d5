#include "linalg/sell_matrix.hpp"

#include <algorithm>
#include <functional>
#include <numeric>
#include <stdexcept>

#include "util/parallel.hpp"

namespace autosec::linalg {

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

void SellMatrix::right_multiply(std::span<const double> x, std::span<double> y) const {
  if (x.size() != column_count_ || y.size() != row_count_) {
    throw std::invalid_argument("SellMatrix::right_multiply: dimension mismatch");
  }
  const size_t chunks = chunk_offsets_.empty() ? 0 : chunk_offsets_.size() - 1;
  // Chunk-disjoint writes (each row belongs to exactly one chunk lane), same
  // grain as the CSR kernel in rows: 1024 rows = 128 chunks per task.
  util::parallel_for(0, chunks, 128, [&](size_t begin, size_t end) {
    for (size_t c = begin; c < end; ++c) {
      const size_t base = chunk_offsets_[c];
      const size_t width = (chunk_offsets_[c + 1] - base) / kChunkRows;
      const size_t lane_count = std::min(kChunkRows, row_count_ - c * kChunkRows);
      double acc[kChunkRows] = {0.0};
      const uint32_t* lens = row_lengths_.data() + c * kChunkRows;
      // The σ-window sort leaves every chunk's lane lengths non-increasing
      // (kChunkRows divides kSortWindow, so chunks never straddle a window).
      // Lanes still holding entries at step j therefore form a prefix, and
      // the per-lane predicate collapses to a branchless `l < active` bound.
      // Each lane still accumulates its row's entries in ascending column
      // order — exactly the CSR sum, bit for bit.
      size_t active = lane_count;
      for (size_t j = 0; j < width; ++j) {
        while (active > 0 && lens[active - 1] <= j) --active;
        const uint32_t* cols = columns_.data() + base + j * kChunkRows;
        const double* vals = values_.data() + base + j * kChunkRows;
        if (active == kChunkRows) {
          // Fixed trip count: the compiler unrolls the full-chunk case.
          for (size_t l = 0; l < kChunkRows; ++l) acc[l] += vals[l] * x[cols[l]];
        } else {
          for (size_t l = 0; l < active; ++l) acc[l] += vals[l] * x[cols[l]];
        }
      }
      const uint32_t* ids = row_ids_.data() + c * kChunkRows;
      for (size_t l = 0; l < lane_count; ++l) y[ids[l]] = acc[l];
    }
  });
}

}  // namespace autosec::linalg
