// Broadcast (Section 4.5): the limitation of the oblivious approach.
//
// n-broadcast copies V[0] to every other entry. Theorem 4.15 proves the
// communication-complexity lower bound Ω(max{2,σ}·log_{max{2,σ}} p) and the
// paper exhibits a matching algorithm — a κ-ary broadcast tree with
// κ = 2^⌈log max{2,σ}⌉, which is *network-aware*: the fanout depends on σ.
//
// A network-oblivious algorithm must fix its fanout (and therefore its
// superstep count t) independently of σ; evaluating Eq. (7) at that fixed t
// yields Theorem 4.16's GAP bound. One program, broadcast_program, runs
// both algorithms:
//
//   κ = broadcast_aware_kappa(v, σ) — κ-ary tree, κ adapted to σ (the
//                                     optimal M(p,σ)-algorithm of §4.5);
//   fixed κ (2 is the natural choice) — the best a network-oblivious design
//                                     can commit to.
//
// Both run on M(v) and label round i with i·log κ (messages of round i stay
// inside the sender's i·log κ-cluster).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "bsp/backend.hpp"
#include "bsp/cost.hpp"
#include "bsp/trace.hpp"
#include "util/bits.hpp"

namespace nobl {

/// The κ-ary tree broadcast as a program on any Backend: in round i the
/// holders (VPs at multiples of v/κ^i) forward to the κ evenly spaced
/// representatives of their block's κ sub-blocks. Rounds stop when the
/// spacing reaches 1. Value-generic over the payload type V. Returns the
/// per-VP values (host-mirrored).
template <typename Backend, typename V = std::uint64_t>
std::vector<V> broadcast_program(Backend& bk, std::uint64_t kappa, V value) {
  const std::uint64_t v = bk.v();
  if (!is_pow2(kappa) || kappa < 2) {
    throw std::invalid_argument(
        "broadcast_program: kappa must be a power of two >= 2");
  }
  std::vector<V> values(v, V{});
  values[0] = value;
  std::vector<bool> holds(v, false);
  holds[0] = true;

  const unsigned log_kappa = log2_exact(kappa);
  unsigned round = 0;
  for (std::uint64_t spacing = v; spacing > 1;
       spacing = spacing > kappa ? spacing / kappa : 1, ++round) {
    const std::uint64_t next_spacing = spacing > kappa ? spacing / kappa : 1;
    // Holders and their targets share the top round·log κ bits: the sender's
    // block of `spacing` VPs is one (round·log κ)-cluster (clamped to legal
    // label range for the final, possibly partial, round).
    const unsigned label =
        std::min<unsigned>(round * log_kappa, bk.log_v() - 1);
    bk.superstep(label, [&](auto& vp) {
      if (!holds[vp.id()]) return;
      for (std::uint64_t child = vp.id() + next_spacing;
           child < vp.id() + spacing; child += next_spacing) {
        vp.send(child, values[vp.id()]);
      }
    });
    for (std::uint64_t holder = 0; holder < v; holder += next_spacing) {
      holds[holder] = true;
      values[holder] = value;
    }
  }
  if (round == 0) {
    bk.superstep(0, [](auto&) {});  // v = 1: trivial sync
  }
  return values;
}

/// The σ-aware optimal fanout κ = 2^⌈log₂ max{2,σ}⌉ (so the per-round cost
/// κ-1+σ balances the round count log_κ p), clamped to [2, max{2,v}]. Fed to
/// broadcast_program, it matches the Theorem 4.15 lower bound within a
/// constant factor on M(v, σ).
[[nodiscard]] inline std::uint64_t broadcast_aware_kappa(std::uint64_t v,
                                                         double sigma) {
  const double base = sigma < 2.0 ? 2.0 : sigma;
  const std::uint64_t kappa = ceil_pow2(static_cast<std::uint64_t>(base));
  return std::max<std::uint64_t>(2, std::min(kappa, v));
}

/// Measured GAP_A(n, p, σ1, σ2) of Theorem 4.16: the worst ratio, over a
/// geometric σ grid, between A's communication complexity and the best
/// achievable H(n,p,σ) = max{2,σ}·log_{max{2,σ}} p (unit constants).
[[nodiscard]] inline double broadcast_gap_measured(const Trace& trace,
                                                   unsigned log_p,
                                                   double sigma1,
                                                   double sigma2) {
  if (sigma2 < sigma1) {
    throw std::invalid_argument("broadcast_gap_measured: sigma2 < sigma1");
  }
  const double p = static_cast<double>(std::uint64_t{1} << log_p);
  double gap = 0.0;
  for (double sigma = sigma1 < 2.0 ? 2.0 : sigma1; sigma <= sigma2;
       sigma *= 2.0) {
    const double best =
        sigma * std::max(1.0, std::log2(p) / std::log2(sigma));
    const double measured = communication_complexity(trace, log_p, sigma);
    if (best > 0) gap = std::max(gap, measured / best);
    if (sigma == sigma2) break;
    if (sigma * 2.0 > sigma2) sigma = sigma2 / 2.0;  // include the endpoint
  }
  return gap;
}

}  // namespace nobl
