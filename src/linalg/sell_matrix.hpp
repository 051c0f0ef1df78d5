// SELL-C-σ (sliced ELLPACK) layout for the uniformization hot loop. The
// matrix is cut into chunks of C=8 rows; within a sorting window of σ=64 rows
// the rows are ordered by descending length, so the lanes of a chunk carry
// near-equal work and the per-chunk entries can be stored column-major
// ("lane-interleaved") — the memory-bandwidth-friendly form of CSR SpMV on
// wide SIMD units (see Kreutzer et al., "A unified sparse matrix data format
// for efficient general sparse matrix-vector multiplication").
//
// Bit-exactness contract: right_multiply performs, for every row, exactly the
// same sequence of multiplies and adds as CsrMatrix::right_multiply — the
// row's entries in ascending column order, each product rounded, then added
// into one accumulator. Lanes are predicated on the true row length (padding
// entries are never touched, so a 0·Inf = NaN can never leak in), and each
// row is written by exactly one thread. Results are therefore bit-identical
// to the CSR kernel at any thread count, which is what lets the engine switch
// layouts per matrix without breaking the determinism contract.
//
// Two loops keep that contract. The process picks one once, from its CPU:
// the AVX-512 loop (one zmm accumulator per chunk, a masked gather of x, a
// multiply and a separate masked add per column step) where AVX-512F is
// present, and the scalar loop everywhere else. The library is built with
// -ffp-contract=off so the compiler never fuses that multiply and add into
// an FMA, which would round once instead of twice and break the contract.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "linalg/csr_matrix.hpp"

namespace autosec::linalg {

/// Storage layout of the uniformized matrix behind Uniformized::step. The
/// engine always runs kAuto, which resolves per matrix (a pure function of
/// its shape, never of the thread count); the explicit values are the
/// library-level hooks the kernel tests and differential families use to pin
/// the CSR reference or the blocked kernel.
enum class MatrixLayout {
  kAuto,     ///< blocked for matrices big enough to pay for the packing
  kCsr,      ///< plain CSR rows — the reference kernel
  kBlocked,  ///< SELL-C-σ chunks
};

/// Resolve kAuto against a concrete matrix. Deliberately a function of the
/// matrix alone: resolving on thread count would make results depend on the
/// pool size and break the bit-exact parallel determinism family.
MatrixLayout resolve_layout(MatrixLayout requested, const CsrMatrix& matrix);

/// Immutable SELL-C-σ copy of a CsrMatrix, built once at uniformize time.
class SellMatrix {
 public:
  /// Chunk height: 8 doubles = one AVX-512 register, so the AVX-512 loop
  /// keeps a whole chunk's accumulators in one zmm.
  static constexpr size_t kChunkRows = 8;
  /// Length-sorting window (σ), a multiple of the chunk height.
  static constexpr size_t kSortWindow = 64;

  explicit SellMatrix(const CsrMatrix& source);

  size_t rows() const { return row_count_; }
  size_t cols() const { return column_count_; }
  size_t nonzeros() const { return nonzeros_; }
  /// Stored entries including chunk padding (>= nonzeros()).
  size_t padded_entries() const { return values_.size(); }

  /// Heap footprint of the packed arrays, for ResourceBudget accounting.
  size_t bytes() const {
    return values_.size() * (sizeof(double) + sizeof(uint32_t)) +
           row_ids_.size() * 2 * sizeof(uint32_t) +
           chunk_offsets_.size() * sizeof(uint32_t);
  }

  /// bytes() of SellMatrix(source), computed from the row lengths alone
  /// (chunk padding included) — so a budget can be charged before packing.
  static size_t bytes_for(const CsrMatrix& source);

  /// y = M · x, bit-identical to CsrMatrix::right_multiply at any thread
  /// count (see the header comment for the contract), through the loop this
  /// process chose from its CPU (see simd_lanes()).
  void right_multiply(std::span<const double> x, std::span<double> y) const;

  /// The two loops right_multiply chooses between, callable directly so the
  /// kernel tests can compare each with CSR on an AVX-512 host. The AVX-512
  /// loop throws std::logic_error where simd_lanes() is 1.
  void right_multiply_scalar(std::span<const double> x, std::span<double> y) const;
  void right_multiply_avx512(std::span<const double> x, std::span<double> y) const;

  /// Rows per step of the loop right_multiply runs: kChunkRows for the
  /// AVX-512 loop (x86-64 with AVX-512F), 1 for the scalar loop. Decided at
  /// the first call and fixed for the life of the process.
  static size_t simd_lanes();

 private:
  /// Checks the dimensions, then runs `chunk_loop` over every chunk, on the
  /// engine pool from kParallelProductNonzeros up; instantiated only in
  /// sell_matrix.cpp.
  template <class ChunkLoop>
  void multiply(std::span<const double> x, std::span<double> y,
                ChunkLoop chunk_loop) const;

  size_t row_count_ = 0;
  size_t column_count_ = 0;
  size_t nonzeros_ = 0;
  /// Rows in window-sorted order: position p holds source row row_ids_[p]
  /// with row_lengths_[p] true entries.
  std::vector<uint32_t> row_ids_;
  std::vector<uint32_t> row_lengths_;
  /// chunk_offsets_[c] is the base index of chunk c in columns_/values_;
  /// entry j of lane l lives at base + j * kChunkRows + l.
  std::vector<uint32_t> chunk_offsets_;
  std::vector<uint32_t> columns_;
  std::vector<double> values_;
};

}  // namespace autosec::linalg
