// Cost models: the evaluation model M(p, σ) and the execution machine model
// D-BSP(p, g⃗, ℓ⃗) as pure functions of a recorded trace.
//
//   H_A(n, p, σ)   = Σ_{i < log p} ( F^i_A(n, p) + S^i_A(n) · σ )     (Eq. 1)
//   D_A(n, p, g⃗, ℓ⃗) = Σ_{i < log p} ( F^i_A(n, p) · g_i + S^i_A(n) · ℓ_i ) (Eq. 2)
//
// The evaluation model is the BSP with g = 1 and L = σ; the execution model
// is the D-BSP of de la Torre & Kruskal (1996) / Bilardi et al. (2007a).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bsp/trace.hpp"

namespace nobl {

/// D-BSP machine parameters: per-level inverse bandwidth g_i and latency ℓ_i,
/// for clusters at levels i = 0 .. log p - 1 (level 0 = whole machine).
struct DbspParams {
  std::string name;       ///< human-readable topology label
  std::vector<double> g;  ///< size log p; g_0 is the whole machine's gap
  std::vector<double> ell;

  [[nodiscard]] unsigned log_p() const noexcept {
    return static_cast<unsigned>(g.size());
  }
  [[nodiscard]] std::uint64_t p() const noexcept {
    return std::uint64_t{1} << log_p();
  }

  /// Throws std::invalid_argument unless ell.size() == g.size(). Called by
  /// every accessor that indexes both vectors in lockstep.
  void validate() const;

  /// Theorem 3.4's structural hypotheses: g_i and ℓ_i/g_i non-increasing.
  /// Throws std::invalid_argument on a g/ell size mismatch.
  [[nodiscard]] bool monotone() const;

  /// max_i ℓ_i / g_i — the quantity bounded by the theorem's σ^M condition.
  /// Throws std::invalid_argument on a g/ell size mismatch.
  [[nodiscard]] double max_ell_over_g() const;
};

/// Communication complexity on M(2^log_p, σ), Eq. (1).
[[nodiscard]] double communication_complexity(const Trace& trace,
                                              unsigned log_p, double sigma);

/// Communication time on a D-BSP, Eq. (2). params.log_p() must not exceed
/// trace.log_v().
[[nodiscard]] double communication_time(const Trace& trace,
                                        const DbspParams& params);

/// Per-level additive contributions to Eq. (2): out[i] = F^i g_i + S^i ℓ_i.
[[nodiscard]] std::vector<double> communication_time_by_level(
    const Trace& trace, const DbspParams& params);

}  // namespace nobl
