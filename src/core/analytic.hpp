// The analytic backend: the dispatch behind `--backend analytic`.
//
// The paper's central claim — H_A(n, p, σ) is a static property of the
// communication pattern, not of any particular execution — means a cost
// query needs only a kernel's degree trace, never its payloads. The
// registry routes BackendKind::kAnalytic here, and the dispatch has two
// paths:
//
//   1. Closed form. Kernels whose predicted H is *exact* (reduce, gather,
//      shift, scan, transpose, broadcast) carry a trace synthesizer
//      (AlgoEntry::analytic) that reconstructs the full per-fold degree
//      trace symbolically in O(supersteps · log v). It synthesizes the
//      integer *trace*, not a double H value: downstream H cells then flow
//      through the identical communication_complexity() arithmetic and
//      stay bit-identical to every executed backend (the `nobl check`
//      conformance invariant).
//
//   2. Cost. Every other kernel runs under the payload-free cost
//      interpreter (bsp/cost.hpp), which already derives the executed
//      trace bit for bit and is the fastest executing backend.
//
// Both paths produce traces bit-identical to simulate/cost/record;
// tests/core/test_analytic.cpp holds the differential checks.
#pragma once

#include <cstdint>

#include "bsp/trace.hpp"

namespace nobl {

struct AlgoEntry;

namespace analytic {

// Exact closed-form trace synthesizers, one per exact-H kernel. Each
// reconstructs, for an admissible n, the same superstep sequence (labels,
// per-fold degrees, message totals) the executed program emits — pinned
// bit-for-bit by tests/core/test_analytic.cpp.

/// Tree reduction: log n supersteps, round t labeled log n − t − 1 with
/// n/2^{t+1} messages and degree 1 on every crossing fold.
[[nodiscard]] Trace reduce_trace(std::uint64_t n);

/// Two-sweep prefix scan: reduce's upsweep followed by the mirrored
/// downsweep (labels ascend back up, message counts 1, 2, …, n/2).
[[nodiscard]] Trace scan_trace(std::uint64_t n);

/// Flat gather at VP 0: one 0-superstep, h(2^j) = n − n/2^j.
[[nodiscard]] Trace gather_trace(std::uint64_t n);

/// Cyclic n/2-shift: one 0-superstep crossing every fold, h(2^j) = n/2^j.
[[nodiscard]] Trace shift_trace(std::uint64_t n);

/// Binary-tree broadcast (fanout 2, the registered kernel): log n rounds,
/// round i labeled i with 2^i messages and degree 1 on crossing folds.
[[nodiscard]] Trace broadcast_trace(std::uint64_t n);

/// Recursive block transposition of an m × m matrix (n = m²): depth d
/// moves n/2^{d+1} elements; h_d(2^j) = n/(2^j · 2^{d+1}) for d < j ≤
/// log m, clamped to min(n/2^j, m/2^{d+1}) on the sub-row folds j > log m.
[[nodiscard]] Trace transpose_trace(std::uint64_t n);

}  // namespace analytic

/// The analytic dispatch for one (kernel, n) query: `entry.analytic(n)`
/// when the kernel has a closed form, else `entry.runner(n, kCost)`.
/// Admissibility is the caller's (the registry wrapper's) responsibility.
[[nodiscard]] Trace analytic_trace(const AlgoEntry& entry, std::uint64_t n);

/// A stateless shim over analytic_trace(). It is kept only because the
/// layer profiler (perfbench/layers.cpp) calls instance(), trace_for() and
/// clear(), and that harness changes only together with the benchmark.
class AnalyticBackend {
 public:
  [[nodiscard]] static AnalyticBackend& instance();

  /// Forwards to analytic_trace().
  [[nodiscard]] Trace trace_for(const AlgoEntry& entry, std::uint64_t n);

  /// No-op: the dispatch holds no state.
  void clear() {}
};

}  // namespace nobl
