// Network-oblivious matrix transposition (all-to-all permutation pattern).
//
// n = m² elements of an m x m matrix, one per VP of M(n) in row-major
// order; the output at VP i·m + j is A(j, i). Rather than a single flat
// 0-superstep permutation (primitives.hpp::transpose), the schedule is the
// recursive block decomposition, which exposes the permutation's locality
// to folding:
//
//   depth d (one superstep, label d) — every diagonal block of side m/2^d
//     swaps its two off-diagonal quadrants: element (i, j) moves straight
//     to (j, i) at the unique depth d where the row and column indices
//     first split, d = shared_msb(i, j, log m).
//
// Each off-diagonal element moves exactly once, diagonal elements never
// move, and depth-d traffic stays inside the block's row range — an
// aligned cluster of n/2^d VPs, hence label d. Folding onto p <= m
// processors (each holding m/p whole rows) gives the exact degrees
// h_d(p) = n/(p·2^{d+1}), so
//
//   H_T(n, p, σ) = (n/p)·(1 - 1/p) + σ·log p          for p <= √n,
//
// matching the trivial bandwidth lower bound (n/p)(1 - 1/p) + σ — every
// processor must ship all its elements except the (m/p)² whose row and
// column band coincide — within 1x on the bandwidth term (predict:: and
// lb::transpose; the closed form stays exact on sub-row folds too, with
// the per-row moving run clipped to the cluster window). The decomposition
// is wise without dummy traffic — α ≥ 1/2 over the whole-row fold range,
// degrading gracefully beyond — because coarsening the fold thickens every
// level's crossing set proportionally.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "bsp/backend.hpp"
#include "bsp/trace.hpp"
#include "util/bits.hpp"
#include "util/matrix.hpp"

namespace nobl {

/// The transpose program on any Backend with bk.v() == m²: recursive block
/// decomposition, one superstep per depth. Returns the transposed matrix
/// (host-mirrored, so valid under every backend).
template <typename T, typename Backend>
Matrix<T> transpose_program(Backend& bk, const Matrix<T>& a) {
  const std::uint64_t m = a.rows();
  if (m * m != bk.v() || a.cols() != m) {
    throw std::invalid_argument("transpose_program: matrix must be square "
                                "with m * m = bk.v()");
  }
  const unsigned log_m = log2_exact(m);

  std::vector<T> values(a.data());
  if (m == 1) {
    bk.superstep(0, [](auto&) {});
    Matrix<T> out(1, 1);
    out(0, 0) = values[0];
    return out;
  }

  for (unsigned d = 0; d < log_m; ++d) {
    std::vector<T> next(values);
    bk.superstep(d, [&](auto& vp) {
      const std::uint64_t i = vp.id() / m;
      const std::uint64_t j = vp.id() % m;
      // (i, j) moves at depth d iff i and j agree on their top d bits (same
      // diagonal block) but split at bit d (off-diagonal quadrant).
      if ((i ^ j) >> (log_m - d) != 0) return;   // different diagonal block
      if (((i ^ j) >> (log_m - d - 1)) == 0) return;  // same quadrant
      const std::uint64_t dst = j * m + i;
      vp.send(dst, values[vp.id()]);
      next[dst] = values[vp.id()];  // swap targets are disjoint: VP-safe
    });
    values.swap(next);
  }

  Matrix<T> out(m, m);
  out.data() = std::move(values);
  return out;
}

}  // namespace nobl
