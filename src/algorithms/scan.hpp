// Network-oblivious parallel prefix-scan (tree reduction pattern).
//
// n values, one per VP of M(n); the output at VP r is the inclusive prefix
// sum x_0 + ... + x_r (uint64 arithmetic, wrap-around semantics). The
// schedule is the classic two-sweep (Blelloch) tree:
//
//   upsweep   — log n rounds; round t merges aligned blocks of 2^t values,
//               the right block's leader sending its partial to the left
//               leader (label log n - t - 1, degree exactly 1);
//   downsweep — log n rounds in reverse; a block leader pushes the prefix
//               of everything left of its right half to that half's leader
//               (same labels, degree exactly 1).
//
// Every label i < log n therefore carries exactly two degree-1 supersteps,
// which makes the communication complexity *exact* under folding:
//
//   H_scan(n, p, σ) = 2·log p·(1 + σ)        (predict::scan, ratio ≡ 1).
//
// Like the broadcast of Section 4.5 — scan is its converse: a reduction
// tree feeding a scatter tree — the fixed fanout cannot adapt to σ, so the
// algorithm is Θ(1)-optimal against the gather/scatter lower bound
// Ω(max{2,σ}·log_{max{2,σ}} p) only for σ = O(1), and its wiseness α(p) is
// Θ(1/p): folding onto fewer processors cannot densify a tree whose total
// traffic is Θ(p) at every fold. This is the tree-pattern counterpart of
// the paper's Theorem 4.16 limitation, and the benches report the same GAP
// study for it (bench/bench_scan.cpp).
#pragma once

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "bsp/backend.hpp"
#include "bsp/trace.hpp"
#include "util/bits.hpp"

namespace nobl {

/// The scan program: inclusive prefix sums of n = bk.v() = |values| values,
/// emitted onto any Backend (the schedule is fully host-mirrored, so every
/// backend sees the identical superstep/send sequence). Value-generic over
/// any additive V (plain machine values or the audit layer's tracked
/// wrapper). Returns the output.
template <typename Backend, typename V = std::uint64_t>
std::vector<V> scan_program(Backend& bk, const std::vector<V>& values) {
  const std::uint64_t n = values.size();
  if (n != bk.v()) {
    throw std::invalid_argument("scan_program: one value per VP required");
  }
  const unsigned log_n = bk.log_v();

  if (n == 1) {
    bk.superstep(0, [](auto&) {});
    return values;
  }

  // Upsweep. totals[t][b] = sum of block b of size 2^t, stored compacted
  // (n/2^t entries per level, O(n) overall) because the downsweep needs
  // every left-half total. Superstep bodies only send; the host mirrors
  // the fold after each barrier (bodies must not write state co-active
  // VPs read).
  std::vector<std::vector<V>> totals(log_n + 1);
  totals[0] = values;
  for (unsigned t = 0; t < log_n; ++t) {
    const std::uint64_t block = std::uint64_t{1} << t;
    const unsigned label = log_n - (t + 1);
    bk.superstep(label, [&](auto& vp) {
      const std::uint64_t r = vp.id();
      if ((r & (2 * block - 1)) == block) vp.send(r - block, totals[t][r >> t]);
    });
    totals[t + 1].resize(n >> (t + 1));
    for (std::uint64_t b = 0; b < totals[t + 1].size(); ++b) {
      totals[t + 1][b] = totals[t][2 * b] + totals[t][2 * b + 1];
    }
  }

  // Downsweep. prefix[b] = sum of everything before block b at the current
  // granularity (compacted like totals); right halves receive prefix +
  // left total from their block leader.
  std::vector<V> prefix{V{}};
  for (unsigned t = log_n; t-- > 0;) {
    const std::uint64_t block = std::uint64_t{1} << t;
    const unsigned label = log_n - (t + 1);
    bk.superstep(label, [&](auto& vp) {
      const std::uint64_t r = vp.id();
      if ((r & (2 * block - 1)) == 0) {
        vp.send(r + block, prefix[r >> (t + 1)] + totals[t][r >> t]);
      }
    });
    std::vector<V> next(n >> t);
    for (std::uint64_t b = 0; b < prefix.size(); ++b) {
      next[2 * b] = prefix[b];
      next[2 * b + 1] = prefix[b] + totals[t][2 * b];
    }
    prefix.swap(next);
  }

  std::vector<V> output(n);
  for (std::uint64_t r = 0; r < n; ++r) output[r] = prefix[r] + values[r];
  return output;
}

}  // namespace nobl
