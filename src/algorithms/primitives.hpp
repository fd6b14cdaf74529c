// Communication primitives on the specification model M(v).
//
// These are the substrate the Section-4 algorithms are assembled from:
// segmented tree reductions and prefix sums (the prefix-like computations of
// Section 5's ascend-descend protocol), and superstep permutations (matrix
// transposition for the FFT, Columnsort's diagonalizing permutation and
// cyclic shifts).
//
// All primitives operate on host-side per-VP state (one value per VP) and
// issue supersteps with the finest legal labels: a communication between the
// two halves of an aligned segment of size 2^s on M(2^a) carries label a-s,
// the level of the smallest cluster containing both endpoints.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <stdexcept>
#include <vector>

#include "bsp/backend.hpp"
#include "util/bits.hpp"

namespace nobl {

namespace detail {

inline void require_segment(std::uint64_t v, std::uint64_t seg) {
  if (!is_pow2(seg) || seg == 0 || seg > v) {
    throw std::invalid_argument("primitives: segment must be a power of two "
                                "no larger than the machine");
  }
}

}  // namespace detail

/// Reduce with `op` independently within every aligned segment of `seg` VPs;
/// afterwards values[base] of each segment holds the segment reduction.
/// Tree upsweep: log seg supersteps, degree 1 each.
template <typename Backend, typename T, typename Op>
void reduce_segments(Backend& machine, std::span<T> values,
                     std::uint64_t seg, Op op) {
  const std::uint64_t v = machine.v();
  detail::require_segment(v, seg);
  if (values.size() != v) {
    throw std::invalid_argument("reduce_segments: one value per VP required");
  }
  const unsigned log_v = machine.log_v();
  const unsigned log_seg = log2_exact(seg);
  // Pass t merges blocks of size 2^t into blocks of size 2^{t+1}.
  for (unsigned t = 0; t < log_seg; ++t) {
    const std::uint64_t block = std::uint64_t{1} << t;
    const unsigned label = log_v - (t + 1);
    machine.superstep(label, [&](auto& vp) {
      const std::uint64_t r = vp.id();
      if ((r & (2 * block - 1)) == block) {  // right-block leader
        vp.send(r - block, values[r]);
      }
    });
    // Fold the delivered partial into the left-block leader. (Reading the
    // inbox requires one more superstep boundary; we merge it into the next
    // pass's superstep by folding eagerly on the host, which is equivalent
    // because the simulator delivers at the barrier.)
    for (std::uint64_t base = 0; base < v; base += 2 * block) {
      values[base] = op(values[base], values[base + block]);
    }
  }
}

/// Exclusive prefix sums (Blelloch scan) with `op` and identity `id`,
/// independently within every aligned segment of `seg` VPs. 2·log seg
/// supersteps of degree <= 2.
template <typename Backend, typename T, typename Op>
void exclusive_scan_segments(Backend& machine, std::span<T> values,
                             std::uint64_t seg, Op op, T id) {
  const std::uint64_t v = machine.v();
  detail::require_segment(v, seg);
  if (values.size() != v) {
    throw std::invalid_argument("exclusive_scan_segments: one value per VP");
  }
  const unsigned log_v = machine.log_v();
  const unsigned log_seg = log2_exact(seg);

  // Upsweep: totals[t][base] = reduction of the block [base, base + 2^t),
  // kept per level because the downsweep needs every left-half total.
  std::vector<std::vector<T>> totals(log_seg + 1);
  totals[0].assign(values.begin(), values.end());
  for (unsigned t = 0; t < log_seg; ++t) {
    const std::uint64_t block = std::uint64_t{1} << t;
    const unsigned label = log_v - (t + 1);
    machine.superstep(label, [&](auto& vp) {
      const std::uint64_t r = vp.id();
      if ((r & (2 * block - 1)) == block) vp.send(r - block, totals[t][r]);
    });
    totals[t + 1].resize(v);
    for (std::uint64_t base = 0; base < v; base += 2 * block) {
      totals[t + 1][base] = op(totals[t][base], totals[t][base + block]);
    }
  }

  // Downsweep: prefix[base] = reduction of everything in the segment before
  // the block rooted at base. Right children receive prefix + left total.
  std::vector<T> prefix(v, id);
  for (unsigned t = log_seg; t-- > 0;) {
    const std::uint64_t block = std::uint64_t{1} << t;
    const unsigned label = log_v - (t + 1);
    machine.superstep(label, [&](auto& vp) {
      const std::uint64_t r = vp.id();
      if ((r & (2 * block - 1)) == 0) {
        vp.send(r + block, op(prefix[r], totals[t][r]));
      }
    });
    for (std::uint64_t base = 0; base < v; base += 2 * block) {
      prefix[base + block] = op(prefix[base], totals[t][base]);
    }
  }
  std::copy(prefix.begin(), prefix.end(), values.begin());
}

/// Apply an arbitrary permutation in a single 0-superstep: VP r sends its
/// value to perm(r). perm must be a bijection on [0, v).
template <typename Backend, typename T, typename Perm>
void permute(Backend& machine, std::span<T> values, Perm perm) {
  const std::uint64_t v = machine.v();
  if (values.size() != v) {
    throw std::invalid_argument("permute: one value per VP required");
  }
  // Validate the bijection before the superstep: the body then only writes
  // the disjoint targets perm(r), which is safe under the parallel engine.
  std::vector<bool> hit(v, false);
  for (std::uint64_t r = 0; r < v; ++r) {
    const std::uint64_t dst = perm(r);
    if (dst >= v) throw std::invalid_argument("permute: target out of range");
    if (hit[dst]) throw std::invalid_argument("permute: not a bijection");
    hit[dst] = true;
  }
  std::vector<T> next(v);
  machine.superstep(0, [&](auto& vp) {
    const std::uint64_t dst = perm(vp.id());
    vp.send(dst, values[vp.id()]);
    next[dst] = values[vp.id()];
  });
  std::copy(next.begin(), next.end(), values.begin());
}

/// r x s matrix transposition of v = r·s values held one per VP in row-major
/// order: value at VP (i·s + j) moves to VP (j·r + i). Used by the FFT
/// (Section 4.2) and Columnsort phase 2.
template <typename Backend, typename T>
void transpose(Backend& machine, std::span<T> values, std::uint64_t rows,
               std::uint64_t cols) {
  if (rows * cols != machine.v()) {
    throw std::invalid_argument("transpose: shape mismatch");
  }
  permute(machine, values, [rows, cols](std::uint64_t r) {
    const std::uint64_t i = r / cols;
    const std::uint64_t j = r % cols;
    return j * rows + i;
  });
}

/// Cyclic shift by `offset`: value at VP r moves to VP (r + offset) mod v
/// (Columnsort phases 6 and 8).
template <typename Backend, typename T>
void cyclic_shift(Backend& machine, std::span<T> values,
                  std::uint64_t offset) {
  const std::uint64_t v = machine.v();
  permute(machine, values,
          [v, offset](std::uint64_t r) { return (r + offset) % v; });
}

// ---------------------------------------------------------------------------
// Registered primitive kernels. The three programs below are the primitives
// promoted to first-class AlgoRegistry entries: each has an exact closed-form
// communication complexity at every fold (predict::reduce / gather / shift),
// which makes them the calibration kernels of the backend sweeps — any
// backend or accounting drift shows up as a ratio != 1.
// ---------------------------------------------------------------------------

/// Tree reduction of the whole machine (the upsweep half of scan):
/// H = log p · (1 + σ), exact at every fold. Value-generic over any
/// additive V. Returns the total.
template <typename Backend, typename V = std::uint64_t>
V reduce_program(Backend& bk, const std::vector<V>& values) {
  if (values.size() != bk.v()) {
    throw std::invalid_argument("reduce_program: one value per VP required");
  }
  if (bk.v() == 1) {
    bk.superstep(0, [](auto&) {});
    return values[0];
  }
  std::vector<V> work = values;
  reduce_segments(bk, std::span<V>(work), bk.v(),
                  [](const V& a, const V& b) { return V(a + b); });
  return work[0];
}

/// Flat gather: every VP ships its value to VP 0 in one 0-superstep —
/// the maximally unbalanced pattern, H = n·(1 − 1/p) + σ exact (the
/// counterpoint motivating §4.5's trees). Returns the gathered values.
template <typename Backend, typename V = std::uint64_t>
std::vector<V> gather_program(Backend& bk, const std::vector<V>& values) {
  if (values.size() != bk.v()) {
    throw std::invalid_argument("gather_program: one value per VP required");
  }
  bk.superstep(0, [&](auto& vp) {
    if (vp.id() != 0) vp.send(0, values[vp.id()]);
  });
  return values;
}

/// Cyclic shift by v/2: the maximally balanced all-cross permutation — every
/// value changes processor at every fold, H = n/p + σ exact. Returns the
/// shifted values.
template <typename Backend, typename V = std::uint64_t>
std::vector<V> shift_program(Backend& bk, const std::vector<V>& values) {
  if (values.size() != bk.v()) {
    throw std::invalid_argument("shift_program: one value per VP required");
  }
  if (bk.v() == 1) {
    bk.superstep(0, [](auto&) {});
    return values;
  }
  std::vector<V> work = values;
  cyclic_shift(bk, std::span<V>(work), bk.v() / 2);
  return work;
}

}  // namespace nobl
