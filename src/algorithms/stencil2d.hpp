// (n,2)-stencil (Section 4.4.2).
//
// The paper evaluates the three-dimensional (n² space x n time) stencil DAG
// on M(n²) by partitioning it into 17 full or truncated octahedra and
// tetrahedra (Bilardi–Preparata 1997), each evaluated recursively: with
// k = 2^⌈√log n⌉, an octahedron of side m splits into 4k−3 interleaved
// stripes of at most k² polyhedra of side m/k, evaluated stripe-by-stripe by
// M(m²/k²) submachines, giving the recurrence
//
//   H_oct(n,p,σ) = (4k−3)·H_oct(n/k, p/k², σ) + O(n²/p + σ)
//
// and Theorem 4.13's H_2-stencil = O((n²/√p)·8^{√log n}).
//
// Substitution (DESIGN.md): the octahedron/tetrahedron geometry at VP
// granularity is not specified by the paper; we reproduce the *schedule* —
// 17 stages, the per-level phase counts 4k_i−3, the label ladder 2(i−1)·log k
// and per-VP degree O(1) per superstep — as a cost-faithful generator with
// explicitly routed (payload-free) boundary traffic, which is exactly the
// object Theorem 4.13 measures. Value-level 3-D stencil semantics are
// validated independently by stencil2_reference below.
#pragma once

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <vector>

#include "bsp/backend.hpp"
#include "bsp/trace.hpp"
#include "util/bits.hpp"
#include "util/matrix.hpp"

namespace nobl {

/// Update rule for the 3-D stencil: next value from the 3x3 neighborhood of
/// the previous time plane (row-major, out-of-range entries 0).
using Stencil2Fn = std::function<double(const std::array<double, 9>&)>;

/// Sequential reference: evolve an n x n plane for `steps` timesteps.
[[nodiscard]] inline Matrix<double> stencil2_reference(
    const Matrix<double>& input, const Stencil2Fn& f, std::uint64_t steps) {
  const std::size_t n = input.rows();
  if (input.cols() != n) {
    throw std::invalid_argument("stencil2_reference: square plane required");
  }
  Matrix<double> prev = input;
  Matrix<double> next(n, n, 0.0);
  for (std::uint64_t s = 0; s < steps; ++s) {
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        std::array<double, 9> hood{};
        std::size_t idx = 0;
        for (int di = -1; di <= 1; ++di) {
          for (int dj = -1; dj <= 1; ++dj) {
            const auto ii = static_cast<std::int64_t>(i) + di;
            const auto jj = static_cast<std::int64_t>(j) + dj;
            hood[idx++] = (ii < 0 || jj < 0 ||
                           ii >= static_cast<std::int64_t>(n) ||
                           jj >= static_cast<std::int64_t>(n))
                              ? 0.0
                              : prev(static_cast<std::size_t>(ii),
                                     static_cast<std::size_t>(jj));
          }
        }
        next(i, j) = f(hood);
      }
    }
    std::swap(prev, next);
  }
  return prev;
}

/// Stage count of the Bilardi–Preparata cover of the cube: the 17 full or
/// truncated octahedra/tetrahedra every (n,2)-stencil run iterates.
inline constexpr std::uint64_t kStencil2Stages = 17;

/// The (n,2)-stencil schedule program on any Backend with bk.v() == n².
/// Returns the per-level split factors (the trace lives on the backend).
template <typename Backend>
std::vector<std::uint64_t> stencil2_program(Backend& bk, std::uint64_t n,
                                            bool wiseness_dummies = true,
                                            std::uint64_t k_override = 0) {
  if (!is_pow2(n) || n < 2 || n * n != bk.v()) {
    throw std::invalid_argument(
        "stencil2_program: n must be a power of two >= 2 with n^2 VPs");
  }
  std::uint64_t k;
  if (k_override != 0) {
    if (!is_pow2(k_override) || k_override < 2) {
      throw std::invalid_argument("stencil2_program: bad k");
    }
    k = k_override;
  } else {
    const double root = std::sqrt(paper_log2(static_cast<double>(n)));
    k = std::uint64_t{1} << static_cast<unsigned>(std::ceil(root));
  }

  const std::uint64_t v = n * n;
  const unsigned log_v = bk.log_v();

  // Per-level segment sizes: divide by k² per level (mixed tail).
  std::vector<std::uint64_t> seg_sizes;   // segment evaluated at level i
  std::vector<std::uint64_t> radices;     // split factor at level i
  std::uint64_t seg = v;
  while (seg > 1) {
    const std::uint64_t radix = std::min(k * k, seg);
    seg_sizes.push_back(seg);
    radices.push_back(radix);
    seg /= radix;
  }
  const unsigned tau = static_cast<unsigned>(radices.size());

  // Recursive stage schedule: each level-i phase opens with an input
  // superstep of label 2(i−1)·log k, then recurses; leaf phases are pure
  // local evaluation, folded into their input superstep (cf. §4.4.1's
  // n_τ = 1 base case). In the input superstep every VP of the lower half
  // of the first level-(i−1) segment ships one boundary unit across the
  // sub-boundary — the paper's "each VP sends/receives O(1) messages", with
  // the max-degree trace captured by the first segment (all segments behave
  // identically, and degree is a max over processors). This makes the trace
  // (1, p)-wise by itself; `wiseness_dummies` additionally mirrors the
  // traffic in the second segment for fold-robustness at tiny machines.
  auto run_level = [&](auto&& self, unsigned level) -> void {
    const std::uint64_t span = seg_sizes[level - 1];
    const unsigned label = log_v - log2_exact(span);
    const std::uint64_t split_k =
        std::uint64_t{1} << ((log2_exact(radices[level - 1]) + 1) / 2);
    const std::uint64_t phases = 4 * split_k - 3;
    const std::uint64_t active_span =
        wiseness_dummies ? std::min(v, 2 * span) : span;
    for (std::uint64_t ph = 0; ph < phases; ++ph) {
      bk.superstep_range(label, 0, active_span, [&](auto& vp) {
        // Boundary unit into the sibling half of the VP's own segment.
        const std::uint64_t base = vp.id() & ~(span - 1);
        if (vp.id() - base < span / 2) {
          vp.send(vp.id() + span / 2, std::uint8_t{1});
        }
      });
      if (level < tau) self(self, level + 1);
    }
  };

  for (std::uint64_t stage = 0; stage < kStencil2Stages; ++stage) {
    run_level(run_level, 1);
  }
  return radices;
}

}  // namespace nobl
