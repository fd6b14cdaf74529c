// Network-oblivious sorting (Section 4.3): recursive Columnsort.
//
// n keys, one per VP of M(n), in column-major order: an r x s matrix whose
// columns are contiguous segments of r VPs. Leighton's eight phases:
//
//   1,3,5,7 — sort every column recursively (phase 5 sorts adjacent columns
//             in opposite directions, as prescribed by the paper);
//   2       — "transpose": the key at column-major position q moves to
//             column-major position (q mod s)·r + q div s;
//   4       — diagonalizing permutation (the inverse of phase 2);
//   6       — forward cyclic shift by r/2;
//   8       — the inverse shift.
//
// Cyclic-shift adaptation (the paper's footnote 6): the keys that wrap in
// phase 6 land in the first r/2 slots of column 0 and must be treated as
// *smaller* than the rest of that column, so that phase 8 returns them to the
// tail in order. Rather than a modified comparator (which cannot be pushed
// through the recursive column sorts), we use the columnsort boundary lemma:
// after phases 1-5 every key is within r/2 of its final position, so the
// wrapped keys (final ranks >= L - r/2) and the other column-0 keys (final
// ranks < r <= L - r) are value-separated. A plain phase-7 sort therefore
// gathers the wrapped keys in the column's second half, and one half-column
// rotation restores the order the modified comparator would have produced.
//
// Shape choice: the paper sets r = n^{2/3} (so r = s² exactly); Leighton's
// correctness proof requires r >= 2(s-1)², which equality does not grant.
// We pick s = 2^⌊(log L − 1)/3⌋ — the largest power of two with 2s³ <= L,
// hence 2s² <= r — preserving s = Θ(L^{1/3}) and every bound of Theorem 4.8
// while actually sorting (see DESIGN.md). Segments of at most 8 keys are
// sorted directly by an all-to-all exchange.
#pragma once

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "bsp/backend.hpp"
#include "bsp/trace.hpp"
#include "util/bits.hpp"
#include "util/dep.hpp"

namespace nobl {

/// The recursive Columnsort program on any Backend with bk.v() == |keys|.
/// Fully host-mirrored; returns the sorted keys. Value-generic: the base
/// case sorts payload segments through dep::sort_values, a payload-internal
/// permutation, so the audit layer's tracked instantiation proves the
/// schedule input-independent.
template <typename Backend, typename V = std::uint64_t>
std::vector<V> sort_program(Backend& bk, const std::vector<V>& keys,
                            bool wiseness_dummies = true) {
  const std::uint64_t n = keys.size();
  if (n != bk.v()) {
    throw std::invalid_argument("sort_program: one key per VP required");
  }
  const unsigned log_n = bk.log_v();
  std::vector<V> values = keys;

  if (n == 1) {
    bk.superstep(0, [](auto&) {});
    return values;
  }

  auto add_dummies = [&](auto& vp, std::uint64_t seg) {
    if (!wiseness_dummies || seg < 2) return;
    if (vp.id() < seg / 2) vp.send_dummy(vp.id() + seg / 2, 1);
  };

  // One superstep permuting values within every aligned segment of `seg` VPs.
  auto segment_permute = [&](std::uint64_t seg, auto local_perm) {
    const unsigned label = log_n - log2_exact(seg);
    std::vector<V> next(n);
    bk.superstep(label, [&](auto& vp) {
      const std::uint64_t base = vp.id() & ~(seg - 1);
      const std::uint64_t dst = base + local_perm(vp.id() - base);
      vp.send(dst, values[vp.id()]);
      next[dst] = values[vp.id()];
      add_dummies(vp, seg);
    });
    values.swap(next);
  };

  // Direct sort of every aligned segment of <= 8 VPs: one all-to-all
  // superstep; each VP keeps the key matching its local rank. The host
  // mirror of the per-segment sort runs after the barrier — superstep
  // bodies must not mutate state their co-active siblings read.
  auto sort_base = [&](std::uint64_t seg) {
    const unsigned label = log_n - log2_exact(seg);
    bk.superstep(label, [&](auto& vp) {
      const std::uint64_t base = vp.id() & ~(seg - 1);
      for (std::uint64_t o = 0; o < seg; ++o) {
        if (base + o != vp.id()) vp.send(base + o, values[vp.id()]);
      }
    });
    // Host mirror of what every segment member computes from its inbox.
    for (std::uint64_t base = 0; base < n; base += seg) {
      dep::sort_values(values.begin() + base, values.begin() + base + seg);
    }
  };

  // Recursive Columnsort over every aligned segment of L VPs in lockstep.
  auto sort_rec = [&](auto&& self, std::uint64_t L) -> void {
    if (L <= 8) {
      sort_base(L);
      return;
    }
    const unsigned log_L = log2_exact(L);
    const std::uint64_t s = std::uint64_t{1} << ((log_L - 1) / 3);
    const std::uint64_t r = L / s;

    // Phase 1: sort columns (contiguous r-segments).
    self(self, r);

    // Phase 2: transpose.
    segment_permute(L, [r, s](std::uint64_t q) { return (q % s) * r + q / s; });

    // Phase 3: sort columns.
    self(self, r);

    // Phase 4: diagonalizing permutation (inverse of phase 2).
    segment_permute(L, [r, s](std::uint64_t q) { return (q % r) * s + q / r; });

    // Phase 5: sort columns. (Leighton's original sorts every phase
    // ascending; the paper's parenthetical alternating-direction phase 5
    // belongs to the variant *without* the shift phases and breaks on
    // adversarial inputs when combined with phases 6-8 — see DESIGN.md.)
    self(self, r);

    // Phase 6: forward cyclic shift by r/2.
    segment_permute(L, [r, L](std::uint64_t q) { return (q + r / 2) % L; });

    // Phase 7: sort columns, then rotate column 0 by half a column so the
    // wrapped keys (now value-sorted into the second half) lead the column,
    // exactly as the footnote's modified comparison would have placed them.
    self(self, r);
    segment_permute(L, [r](std::uint64_t q) {
      return q < r ? (q + r / 2) % r : q;
    });

    // Phase 8: inverse cyclic shift.
    segment_permute(L, [r, L](std::uint64_t q) { return (q + L - r / 2) % L; });
  };

  sort_rec(sort_rec, n);
  return values;
}

}  // namespace nobl
