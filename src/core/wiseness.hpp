// Wiseness (Definition 3.2) and fullness (Definition 5.2), measured exactly
// from a trace.
//
// (α, p)-wise:  Σ_{i<j} F^i(n,2^j) >= α · (p/2^j) · Σ_{i<j} F^i(n,p)
// (γ, p)-full:  Σ_{i<j} F^i(n,2^j) >= γ · (p/2^j) · Σ_{i<j} S^i(n)
//
// for every 1 <= j <= log p. The measured α(p) / γ(p) is the largest constant
// for which the definition holds, i.e. the minimum over j of the respective
// ratio; folds where the right-hand side vanishes impose no constraint.
#pragma once

#include <cstdint>

#include "bsp/trace.hpp"

namespace nobl {

/// Largest α such that the trace is (α, 2^log_p)-wise. Lemma 3.1 guarantees
/// the result is <= 1 (up to vacuous folds, for which we report 1).
[[nodiscard]] double wiseness_alpha(const Trace& trace, unsigned log_p);

/// Largest γ such that the trace is (γ, 2^log_p)-full.
[[nodiscard]] double fullness_gamma(const Trace& trace, unsigned log_p);

/// True iff Lemma 3.1 holds for every fold j <= log_p (it must, for traces
/// produced by the simulator; exposed for property tests on synthetic traces).
[[nodiscard]] bool folding_inequality_holds(const Trace& trace,
                                            unsigned log_p);

}  // namespace nobl
