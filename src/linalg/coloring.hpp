// Greedy graph coloring of a sparse matrix's symmetrized pattern, the
// schedule behind multicolor Gauss-Seidel: rows sharing a color have no
// matrix entry between them (A_ij = 0 and A_ji = 0), so updating a whole
// color class in parallel reads only values written by *other* colors — the
// sweep is order-independent within a color and therefore produces identical
// results at any thread count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "linalg/csr_matrix.hpp"

namespace autosec::linalg {

/// Rows grouped by color; within a color, rows are ascending.
struct ColorSchedule {
  uint32_t color_count = 0;
  std::vector<uint32_t> color_of;       ///< color of each row
  std::vector<uint32_t> order;          ///< rows, grouped by color
  std::vector<uint32_t> color_offsets;  ///< color_count+1 offsets into order
};

/// Adjacency of the symmetrized pattern of `matrix` (neighbors of i are all
/// j != i with A_ij != 0 or A_ji != 0), in CSR form — the conflict graph the
/// coloring works on.
struct SymmetricAdjacency {
  std::vector<uint32_t> offsets;  ///< size rows+1
  std::vector<uint32_t> neighbors;
};

SymmetricAdjacency symmetric_adjacency(const CsrMatrix& matrix);

/// First-fit greedy coloring over the symmetrized pattern, rows in natural
/// order — deterministic, at most max_degree+1 colors.
ColorSchedule greedy_coloring(const CsrMatrix& matrix);

}  // namespace autosec::linalg
