// Bitonic sorting network as a network-oblivious algorithm.
//
// Batcher's bitonic sort is the classic *oblivious* sorting network: its
// compare-exchange sequence depends only on n, so it drops into the
// specification model directly — one key per VP, one superstep per
// compare-exchange stage, label = log n − 1 − bit (the finest cluster
// containing both endpoints of the exchanged pair).
//
// It is the natural foil for Section 4.3's Columnsort:
//
//   H_bitonic(n,p,σ) = Θ((n/p)·log p·log n + σ·log p·log n)  [stage count
//     log n (log n+1)/2, the log p·log n of them crossing processors]
//   H_columnsort(n,p,σ) = O((n/p + σ)(log n / log(n/p))^{log_{3/2} 4})
//
// Columnsort wins asymptotically at every fixed p; bitonic has tiny
// constants, degree exactly 1 per superstep, and needs no recursion — the
// crossover study is in bench_sort (ablation table).
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

/// The bitonic network as a program on any Backend with bk.v() == |keys|.
/// Fully host-mirrored; returns the sorted keys. Value-generic: V is a
/// plain key in production and the audit layer's tracked wrapper under
/// obliviousness analysis (compare-exchange goes through dep::, so tracked
/// instantiations stay declassification-free).
template <typename Backend, typename V = std::uint64_t>
std::vector<V> bitonic_sort_program(Backend& bk, const std::vector<V>& keys) {
  const std::uint64_t n = keys.size();
  if (n != bk.v()) {
    throw std::invalid_argument("bitonic_sort_program: one key per VP");
  }
  const unsigned log_n = bk.log_v();
  std::vector<V> values = keys;

  if (n == 1) {
    bk.superstep(0, [](auto&) {});
    return values;
  }

  // Stage (phase, bit): exchange partners across `bit`; ascending iff the
  // (phase+1)-th bit of the VP index is 0.
  for (unsigned phase = 0; phase < log_n; ++phase) {
    for (unsigned bit = phase + 1; bit-- > 0;) {
      const std::uint64_t mask = std::uint64_t{1} << bit;
      const unsigned label = log_n - 1 - bit;
      std::vector<V> next(values);
      bk.superstep(label, [&](auto& vp) {
        const std::uint64_t partner = vp.id() ^ mask;
        vp.send(partner, values[vp.id()]);
        const bool ascending =
            (vp.id() & (std::uint64_t{1} << (phase + 1))) == 0 ||
            phase + 1 == log_n;
        const bool keep_low = (vp.id() & mask) == 0;
        const V& mine = values[vp.id()];
        const V& theirs = values[partner];
        next[vp.id()] = (keep_low == ascending) ? dep::min_value(mine, theirs)
                                                : dep::max_value(mine, theirs);
      });
      values.swap(next);
    }
  }
  return values;
}

/// Closed form for the bitonic network's communication complexity:
/// stages with bit b fold nonlocally when b >= log(n/p); each is an
/// (n/p)-relation. H = Σ_{stages crossing} (n/p + σ).
[[nodiscard]] inline double bitonic_predicted(std::uint64_t n, std::uint64_t p,
                                              double sigma) {
  if (!is_pow2(n) || !is_pow2(p) || p < 2 || p > n) {
    throw std::invalid_argument("bitonic_predicted: need 2 <= p <= n, powers "
                                "of two");
  }
  const unsigned log_n = log2_exact(n);
  const unsigned log_p = log2_exact(p);
  std::uint64_t crossing = 0;
  for (unsigned phase = 0; phase < log_n; ++phase) {
    for (unsigned bit = 0; bit <= phase; ++bit) {
      if (bit >= log_n - log_p) ++crossing;
    }
  }
  return static_cast<double>(crossing) *
         (static_cast<double>(n) / static_cast<double>(p) + sigma);
}

}  // namespace nobl
