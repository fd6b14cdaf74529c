// Network-oblivious FFT (Section 4.2).
//
// The n-FFT is specified on M(n), one complex point per VP. The algorithm is
// the recursive decomposition of the FFT DAG into two sets of ~√n-input
// subDAGs: with n = n1·n2 (n1 = 2^⌈log n/2⌉, n2 = n/n1) and the input viewed
// as an n1 x n2 row-major matrix, the classic transpose / row-FFT / twiddle /
// transpose / row-FFT / transpose ("six-step") schedule computes
//
//   X[k1 + n1·k2] = Σ_{j2} ω_{n2}^{j2 k2} · ω_n^{j2 k1} ·
//                     Σ_{j1} x[j1·n2 + j2] · ω_{n1}^{j1 k1}
//
// Every row FFT acts on a contiguous sub-segment, so the recursion advances
// in lockstep across all segments of the current level: a level-i superstep
// acts within segments of n^{1/2^i} VPs and carries the paper's label
// (1 − 1/2^i)·log n. The superstep census is Θ(2^i) supersteps at level i,
// each of degree O(1), matching Theorem 4.5's recurrence
// H_FFT(n,p,σ) = 2·H_FFT(√n, p/√n, σ) + O(n/p + σ).
//
// Transposes route real complex payloads; twiddles are local computation
// folded into the following superstep.
#pragma once

#include <complex>
#include <cstdint>
#include <numbers>
#include <stdexcept>
#include <vector>

#include "bsp/backend.hpp"
#include "bsp/trace.hpp"
#include "util/bits.hpp"

namespace nobl {

/// Sequential reference DFT, O(n²): X[k] = Σ_j x[j]·e^{-2πi·jk/n}.
[[nodiscard]] inline std::vector<std::complex<double>> dft_naive(
    const std::vector<std::complex<double>>& x) {
  const std::size_t n = x.size();
  std::vector<std::complex<double>> out(n);
  for (std::size_t k = 0; k < n; ++k) {
    std::complex<double> sum = 0;
    for (std::size_t j = 0; j < n; ++j) {
      const double angle = -2.0 * std::numbers::pi *
                           static_cast<double>(j * k % n) /
                           static_cast<double>(n);
      sum += x[j] * std::polar(1.0, angle);
    }
    out[k] = sum;
  }
  return out;
}

/// The FFT program on any Backend with bk.v() == |x|: the six-step
/// recursion, fully host-mirrored (bodies route the complex payloads;
/// every value is also mirrored on the host so the schedule is identical
/// under non-delivering backends). Value-generic: V is a plain complex
/// point in production and the audit layer's tracked wrapper under
/// obliviousness analysis; the twiddle factors stay raw complex scalars.
/// Returns X[k] at index k.
template <typename Backend, typename V = std::complex<double>>
std::vector<V> fft_program(Backend& bk, const std::vector<V>& x,
                           bool wiseness_dummies = true) {
  using C = std::complex<double>;
  const std::uint64_t n = x.size();
  if (n != bk.v()) {
    throw std::invalid_argument("fft_program: one point per VP required");
  }
  const unsigned log_n = bk.log_v();
  std::vector<V> values = x;

  if (n == 1) {
    bk.superstep(0, [](auto&) {});
    return values;
  }

  auto add_dummies = [&](auto& vp, std::uint64_t seg) {
    if (!wiseness_dummies || seg < 2) return;
    if (vp.id() < seg / 2) vp.send_dummy(vp.id() + seg / 2, 1);
  };

  // One superstep applying `local_perm` within every aligned segment of
  // `seg` VPs, with an optional pre-permutation local scaling (the twiddle
  // of the preceding phase, folded in to avoid a dedicated barrier).
  auto segment_permute = [&](std::uint64_t seg, auto local_perm,
                             auto pre_scale) {
    const unsigned label = log_n - log2_exact(seg);
    std::vector<V> next(n);
    bk.superstep(label, [&](auto& vp) {
      const std::uint64_t base = vp.id() & ~(seg - 1);
      const std::uint64_t local = vp.id() - base;
      const V value = values[vp.id()] * pre_scale(local);
      const std::uint64_t dst = base + local_perm(local);
      vp.send(dst, value);
      next[dst] = value;
      add_dummies(vp, seg);
    });
    values.swap(next);
  };

  auto identity_scale = [](std::uint64_t) { return C(1.0, 0.0); };

  // Base butterfly: segments of 2 VPs exchange and compute the 2-point DFT.
  auto butterfly2 = [&]() {
    const unsigned label = log_n - 1;
    std::vector<V> next(n);
    bk.superstep(label, [&](auto& vp) {
      const std::uint64_t partner = vp.id() ^ 1;
      vp.send(partner, values[vp.id()]);
      next[vp.id()] = (vp.id() & 1) ? values[partner] - values[vp.id()]
                                    : values[vp.id()] + values[partner];
    });
    values.swap(next);
  };

  // Recursive solver: DFT of every aligned segment of `seg` VPs in lockstep.
  auto solve = [&](auto&& self, std::uint64_t seg) -> void {
    if (seg == 1) return;
    if (seg == 2) {
      butterfly2();
      return;
    }
    const unsigned log_seg = log2_exact(seg);
    const std::uint64_t s1 = std::uint64_t{1} << ((log_seg + 1) / 2);
    const std::uint64_t s2 = seg / s1;

    // Step 1: transpose s1 x s2 -> s2 x s1 within each segment.
    segment_permute(
        seg,
        [s1, s2](std::uint64_t r) {
          const std::uint64_t j1 = r / s2;
          const std::uint64_t j2 = r % s2;
          return j2 * s1 + j1;
        },
        identity_scale);

    // Step 2: s1-point FFT on each contiguous row of the s2 x s1 matrix.
    self(self, s1);

    // Steps 3+4: twiddle by ω_seg^{j2·k1}, then transpose s2 x s1 -> s1 x s2.
    segment_permute(
        seg,
        [s1, s2](std::uint64_t r) {
          const std::uint64_t j2 = r / s1;
          const std::uint64_t k1 = r % s1;
          return k1 * s2 + j2;
        },
        [seg, s1](std::uint64_t r) {
          const std::uint64_t j2 = r / s1;
          const std::uint64_t k1 = r % s1;
          const double angle = -2.0 * std::numbers::pi *
                               static_cast<double>((j2 * k1) % seg) /
                               static_cast<double>(seg);
          return std::polar(1.0, angle);
        });

    // Step 5: s2-point FFT on each contiguous row of the s1 x s2 matrix.
    self(self, s2);

    // Step 6: transpose s1 x s2 -> s2 x s1, restoring natural output order:
    // D'[k1][k2] = X[k1 + n1·k2] must land at VP k2·n1 + k1.
    segment_permute(
        seg,
        [s1, s2](std::uint64_t r) {
          const std::uint64_t k1 = r / s2;
          const std::uint64_t k2 = r % s2;
          return k2 * s1 + k1;
        },
        identity_scale);
  };

  solve(solve, n);
  return values;
}

/// Inverse DFT via the conjugation identity ifft(X) = conj(fft(conj(X)))/n —
/// the inverse transform runs the same network-oblivious schedule (and so
/// shares its trace structure and optimality properties).
template <typename Backend>
std::vector<std::complex<double>> ifft_program(
    Backend& bk, const std::vector<std::complex<double>>& x,
    bool wiseness_dummies = true) {
  std::vector<std::complex<double>> conj_in(x.size());
  for (std::size_t k = 0; k < x.size(); ++k) conj_in[k] = std::conj(x[k]);
  std::vector<std::complex<double>> output =
      fft_program(bk, conj_in, wiseness_dummies);
  const double scale = 1.0 / static_cast<double>(x.size());
  for (auto& v : output) v = std::conj(v) * scale;
  return output;
}

}  // namespace nobl
