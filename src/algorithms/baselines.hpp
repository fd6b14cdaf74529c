// Network-aware baseline traces: the competitor class C of Theorem 3.4.
//
// The optimality theorem compares a network-oblivious algorithm A against
// algorithms that may be written *for* the target machine — knowing p and σ
// (evaluation model) or p, g⃗, ℓ⃗ (execution model). For each Section-4
// problem we synthesize the communication trace of the best-known flat-BSP
// aware algorithm at exactly the lower-bound communication volume
// (Scquizzato–Silvestri 2014 / Irony et al. 2004): a minimal number of
// 0-supersteps, each a balanced h-relation of the optimal degree. These are
// the strongest honest stand-ins for "C" available without the authors'
// (nonexistent) implementations, and they make the bench tables' ratios
//
//     D_A(n, p, g⃗, ℓ⃗) / D_C(n, p, g⃗, ℓ⃗)
//
// directly comparable against Theorem 3.4's (1+α)/(αβ) guarantee.
//
// (The σ-aware broadcast of §4.5 is a *real* algorithm — see
// algorithms/broadcast.hpp; it is the one case where the paper itself
// constructs the aware competitor.)
#pragma once

#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "bsp/backend.hpp"
#include "bsp/trace.hpp"
#include "util/bits.hpp"

namespace nobl {
namespace baseline {

namespace detail {

/// The flat-round program: `rounds` 0-supersteps, each a balanced
/// `degree`-relation across the machine's top bisection.
template <typename Backend>
void flat_rounds_program(Backend& bk, std::uint64_t rounds,
                         std::uint64_t degree) {
  const std::uint64_t p = bk.v();
  for (std::uint64_t r = 0; r < rounds; ++r) {
    bk.superstep(0, [&](auto& vp) {
      vp.send_dummy(vp.id() ^ (p / 2), degree);
    });
  }
}

/// Baseline traces carry only dummy traffic, so they run on the counting
/// backend: no machine, no inboxes — just the degree stream.
inline Trace flat_rounds(std::uint64_t p, std::uint64_t rounds,
                         std::uint64_t degree) {
  if (!is_pow2(p) || p < 2) {
    throw std::invalid_argument("baseline: p must be a power of two >= 2");
  }
  CostBackend bk(p);
  flat_rounds_program(bk, rounds, degree);
  return std::move(bk).take_trace();
}

}  // namespace detail

/// Aware n-MM (3D/recursive blocked): O(1) rounds of degree Θ(n/p^{2/3}).
inline Trace matmul(std::uint64_t n, std::uint64_t p) {
  const auto degree = static_cast<std::uint64_t>(
      std::ceil(static_cast<double>(n) / std::pow(static_cast<double>(p),
                                                  2.0 / 3.0)));
  return detail::flat_rounds(p, 3, std::max<std::uint64_t>(1, degree));
}

/// Aware constant-memory n-MM (Cannon-like): O(√p) rounds of degree n/p...
/// total volume Θ(n/√p): √p rounds of degree n/p.
inline Trace matmul_space(std::uint64_t n, std::uint64_t p) {
  const auto rounds = static_cast<std::uint64_t>(
      std::ceil(std::sqrt(static_cast<double>(p))));
  const std::uint64_t degree = std::max<std::uint64_t>(1, n / p);
  return detail::flat_rounds(p, std::max<std::uint64_t>(1, rounds), degree);
}

/// Aware n-FFT: ⌈log n / log(n/p)⌉ all-to-all rounds of degree Θ(n/p).
inline Trace fft(std::uint64_t n, std::uint64_t p) {
  if (p > n) throw std::invalid_argument("baseline::fft: p <= n required");
  const auto rounds = static_cast<std::uint64_t>(std::ceil(
      paper_log2(static_cast<double>(n)) /
      paper_log2(static_cast<double>(n) / static_cast<double>(p))));
  const std::uint64_t degree = std::max<std::uint64_t>(1, n / p);
  return detail::flat_rounds(p, std::max<std::uint64_t>(1, rounds), degree);
}

/// Aware n-sort (sample sort regime, p = O(n^{1-δ})): same round structure
/// as the FFT baseline (Lemma 4.7's bound is the FFT bound).
inline Trace sort(std::uint64_t n, std::uint64_t p) { return fft(n, p); }

/// Aware (n,d)-stencil: n/b bulk steps of a blocked wavefront with block
/// depth b = p^{1/d}·(tuning): volume Θ(n^d / p^{(d-1)/d}).
inline Trace stencil(std::uint64_t n, unsigned d, std::uint64_t p) {
  if (d == 0) throw std::invalid_argument("baseline::stencil: d >= 1");
  const double pd = std::pow(static_cast<double>(p), 1.0 / d);
  const auto rounds = static_cast<std::uint64_t>(
      std::ceil(static_cast<double>(n) / pd));
  const double vol = std::pow(static_cast<double>(n), d) /
                     std::pow(static_cast<double>(p),
                              (static_cast<double>(d) - 1.0) /
                                  static_cast<double>(d));
  const auto degree = static_cast<std::uint64_t>(
      std::ceil(vol / static_cast<double>(std::max<std::uint64_t>(1, rounds))));
  return detail::flat_rounds(p, std::max<std::uint64_t>(1, rounds),
                             std::max<std::uint64_t>(1, degree));
}

}  // namespace baseline
}  // namespace nobl
