#include "linalg/csr_matrix.hpp"

#include <algorithm>
#include <cassert>
#include <sstream>
#include <stdexcept>

#include "util/parallel.hpp"

namespace autosec::linalg {

CsrMatrix::CsrMatrix(size_t row_count, size_t column_count,
                     std::vector<uint32_t> row_offsets, std::vector<uint32_t> columns,
                     std::vector<double> values)
    : row_count_(row_count),
      column_count_(column_count),
      row_offsets_(std::move(row_offsets)),
      columns_(std::move(columns)),
      values_(std::move(values)) {
  if (row_offsets_.size() != row_count_ + 1) {
    throw std::invalid_argument("CsrMatrix: row_offsets must have rows+1 entries");
  }
  if (columns_.size() != values_.size()) {
    throw std::invalid_argument("CsrMatrix: columns/values size mismatch");
  }
  if (row_offsets_.back() != columns_.size()) {
    throw std::invalid_argument("CsrMatrix: last offset must equal nnz");
  }
  for (uint32_t c : columns_) {
    if (c >= column_count_) throw std::invalid_argument("CsrMatrix: column out of range");
  }
  // Rows must be strictly ascending in column (CsrBuilder guarantees this;
  // raw construction must too): at() binary-searches rows, and the kernels'
  // bit-exactness contract is defined over the ascending-column sum order.
  for (size_t r = 0; r < row_count_; ++r) {
    for (uint32_t k = row_offsets_[r] + 1; k < row_offsets_[r + 1]; ++k) {
      if (columns_[k] <= columns_[k - 1]) {
        throw std::invalid_argument(
            "CsrMatrix: row columns must be strictly ascending");
      }
    }
  }
}

std::span<const uint32_t> CsrMatrix::row_columns(size_t r) const {
  assert(r < row_count_);
  return {columns_.data() + row_offsets_[r],
          static_cast<size_t>(row_offsets_[r + 1] - row_offsets_[r])};
}

std::span<const double> CsrMatrix::row_values(size_t r) const {
  assert(r < row_count_);
  return {values_.data() + row_offsets_[r],
          static_cast<size_t>(row_offsets_[r + 1] - row_offsets_[r])};
}

double CsrMatrix::at(size_t r, size_t c) const {
  const auto cols = row_columns(r);
  // Rows are strictly ascending (validated at construction), so the lookup
  // is a binary search rather than a linear scan.
  const auto it = std::lower_bound(cols.begin(), cols.end(), static_cast<uint32_t>(c));
  if (it == cols.end() || *it != c) return 0.0;
  return row_values(r)[static_cast<size_t>(it - cols.begin())];
}

void CsrMatrix::left_multiply(std::span<const double> x, std::span<double> y) const {
  if (x.size() != row_count_ || y.size() != column_count_) {
    throw std::invalid_argument("left_multiply: dimension mismatch");
  }
  std::fill(y.begin(), y.end(), 0.0);
  for (size_t r = 0; r < row_count_; ++r) {
    const double xr = x[r];
    if (xr == 0.0) continue;
    const auto cols = row_columns(r);
    const auto vals = row_values(r);
    for (size_t i = 0; i < cols.size(); ++i) y[cols[i]] += xr * vals[i];
  }
}

void CsrMatrix::right_multiply(std::span<const double> x, std::span<double> y) const {
  if (x.size() != column_count_ || y.size() != row_count_) {
    throw std::invalid_argument("right_multiply: dimension mismatch");
  }
  // Row-disjoint writes: chunks touch y[begin..end) only, so the result is
  // independent of the chunking.
  const auto rows = [&](size_t begin, size_t end) {
    for (size_t r = begin; r < end; ++r) {
      const auto cols = row_columns(r);
      const auto vals = row_values(r);
      double acc = 0.0;
      for (size_t i = 0; i < cols.size(); ++i) acc += vals[i] * x[cols[i]];
      y[r] = acc;
    }
  };
  if (nonzeros() < kParallelProductNonzeros) {
    rows(0, row_count_);
  } else {
    util::parallel_for(0, row_count_, 1024, rows);
  }
}

double CsrMatrix::row_sum(size_t r) const {
  double acc = 0.0;
  for (double v : row_values(r)) acc += v;
  return acc;
}

CsrMatrix CsrMatrix::transposed() const {
  // Counting-sort transpose: one pass to histogram the column in-degrees, one
  // scatter pass in ascending row order — so every result row ends up with
  // strictly ascending columns, with no per-row intermediate allocations.
  std::vector<uint32_t> offsets(column_count_ + 1, 0);
  for (const uint32_t c : columns_) ++offsets[c + 1];
  for (size_t c = 0; c < column_count_; ++c) offsets[c + 1] += offsets[c];
  std::vector<uint32_t> cols(columns_.size());
  std::vector<double> vals(columns_.size());
  std::vector<uint32_t> cursor(offsets.begin(), offsets.end() - 1);
  for (size_t r = 0; r < row_count_; ++r) {
    for (uint32_t k = row_offsets_[r]; k < row_offsets_[r + 1]; ++k) {
      const uint32_t pos = cursor[columns_[k]]++;
      cols[pos] = static_cast<uint32_t>(r);
      vals[pos] = values_[k];
    }
  }
  return CsrMatrix(column_count_, row_count_, std::move(offsets), std::move(cols),
                   std::move(vals));
}

std::string CsrMatrix::to_dense_string(int precision) const {
  std::ostringstream os;
  os.precision(precision);
  for (size_t r = 0; r < row_count_; ++r) {
    for (size_t c = 0; c < column_count_; ++c) {
      os << at(r, c);
      if (c + 1 < column_count_) os << ' ';
    }
    os << '\n';
  }
  return os.str();
}

namespace {

/// Sort one row's entries by column and sum the entries that share a column
/// (in sorted order), in place.
void sort_and_merge_row(std::vector<Entry>& entries) {
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) { return a.column < b.column; });
  size_t write = 0;
  for (size_t read = 0; read < entries.size(); ++read) {
    if (write > 0 && entries[write - 1].column == entries[read].column) {
      entries[write - 1].value += entries[read].value;
    } else {
      entries[write++] = entries[read];
    }
  }
  entries.resize(write);
}

}  // namespace

CsrBuilder::CsrBuilder(size_t row_count, size_t column_count)
    : row_count_(row_count), column_count_(column_count), row_entries_(row_count) {}

void CsrBuilder::add(size_t row, size_t column, double value) {
  if (row >= row_count_ || column >= column_count_) {
    throw std::out_of_range("CsrBuilder::add: index out of range");
  }
  row_entries_[row].push_back({static_cast<uint32_t>(column), value});
}

CsrMatrix CsrBuilder::build() && {
  std::vector<uint32_t> offsets(row_count_ + 1, 0);
  size_t nnz = 0;
  for (auto& entries : row_entries_) {
    sort_and_merge_row(entries);
    nnz += entries.size();
  }
  std::vector<uint32_t> columns;
  std::vector<double> values;
  columns.reserve(nnz);
  values.reserve(nnz);
  for (size_t r = 0; r < row_count_; ++r) {
    offsets[r] = static_cast<uint32_t>(columns.size());
    for (const Entry& e : row_entries_[r]) {
      columns.push_back(e.column);
      values.push_back(e.value);
    }
  }
  offsets[row_count_] = static_cast<uint32_t>(columns.size());
  return CsrMatrix(row_count_, column_count_, std::move(offsets), std::move(columns),
                   std::move(values));
}

}  // namespace autosec::linalg
