// Compressed-sparse-row matrix used to store CTMC generator and
// uniformized-probability matrices. Explicit-state probabilistic model
// checking is dominated by repeated vector-matrix products x' = x * M, so the
// layout and kernels are optimized for left multiplication.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace autosec::linalg {

/// Products (CsrMatrix and SellMatrix right_multiply) over fewer nonzeros
/// than this run serially on the calling thread; below it a pool job costs
/// more than the rows it would share out (docs/engine.md "Solver kernels"
/// has the measurements). Like resolve_layout, a function of the matrix
/// alone: every row is summed the same way on either path, so products are
/// bit-identical whichever runs.
inline constexpr size_t kParallelProductNonzeros = 65536;

/// One (column, value) entry of a CSR row.
struct Entry {
  uint32_t column = 0;
  double value = 0.0;
  friend bool operator==(const Entry&, const Entry&) = default;
};

/// Immutable CSR matrix. Construct via CsrBuilder or from triplets.
class CsrMatrix {
 public:
  CsrMatrix() = default;

  /// Build from per-row entry lists. `columns` entries must be < column_count
  /// and strictly ascending within each row (both validated).
  CsrMatrix(size_t row_count, size_t column_count,
            std::vector<uint32_t> row_offsets, std::vector<uint32_t> columns,
            std::vector<double> values);

  size_t rows() const { return row_count_; }
  size_t cols() const { return column_count_; }
  size_t nonzeros() const { return columns_.size(); }

  /// Entries of row `r` as a span (columns strictly ascending).
  std::span<const uint32_t> row_columns(size_t r) const;
  std::span<const double> row_values(size_t r) const;

  /// The whole structure: rows()+1 row offsets, and every entry's column.
  std::span<const uint32_t> row_offsets() const { return row_offsets_; }
  std::span<const uint32_t> columns() const { return columns_; }

  /// Value at (r, c); zero when no entry exists. Binary search of the row.
  double at(size_t r, size_t c) const;

  /// y = x * M (left multiplication, row vector x of length rows()).
  /// Scatter-form kernel: stays serial — parallel callers should multiply by
  /// the transposed matrix with right_multiply (gather form), which computes
  /// the same sums in the same order and parallelizes row-wise.
  void left_multiply(std::span<const double> x, std::span<double> y) const;

  /// y = M * x (right multiplication, column vector x of length cols()).
  /// Gather-form kernel, row-parallel over the engine thread pool from
  /// kParallelProductNonzeros up: every row is summed by exactly one thread
  /// in column order, so the result is bit-identical at any thread count.
  void right_multiply(std::span<const double> x, std::span<double> y) const;

  /// Sum of entries of row r.
  double row_sum(size_t r) const;

  /// Transposed copy (used by Gauss-Seidel solving x M = b by rows of M^T).
  CsrMatrix transposed() const;

  /// Human-readable dump for tests/debugging (dense, row per line).
  std::string to_dense_string(int precision = 6) const;

 private:
  size_t row_count_ = 0;
  size_t column_count_ = 0;
  std::vector<uint32_t> row_offsets_;  // size rows()+1
  std::vector<uint32_t> columns_;
  std::vector<double> values_;
};

/// Incremental builder: entries may be added for any row in any order, and
/// within a row they may arrive unordered; duplicates are summed in column
/// order after a std::sort on the column alone. The explorer's row merge
/// makes the same comparisons and additions, so the same entry sequence gives
/// the same bits either way.
class CsrBuilder {
 public:
  CsrBuilder(size_t row_count, size_t column_count);

  /// Add `value` at (row, column). Rows may be touched in any order.
  void add(size_t row, size_t column, double value);

  /// Finalize into a CsrMatrix with sorted, deduplicated rows.
  CsrMatrix build() &&;

  size_t rows() const { return row_count_; }
  size_t cols() const { return column_count_; }

 private:
  size_t row_count_;
  size_t column_count_;
  std::vector<std::vector<Entry>> row_entries_;
};

}  // namespace autosec::linalg
