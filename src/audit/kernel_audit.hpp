// Registry-wide obliviousness audit: one verdict per kernel.
//
// For every AlgoEntry the auditor performs two independent static passes:
//
//   1. Taint classification — the entry's taint hook (AlgoEntry::taint)
//      instantiates the kernel's program with Tainted payloads
//      (audit/taint.hpp) on the runner's workload and drives it once under
//      AuditBackend (audit/backend.hpp), which never executes a message.
//      The registry derives hook and runner from one kernel definition, so
//      the audit sees the program the runner runs. The result is a
//      per-superstep map of where input values influence the communication
//      structure (tainted destinations, tainted dummy counts,
//      declassifications). The verdict is cross-checked against the
//      registry's `input_independent` annotation: samplesort must flag,
//      the other kernels must come back clean — a disagreement in either
//      direction fails `nobl audit` and the pinned registry test.
//
//   2. Schedule lint — the kernel's recorded Schedule (BackendKind::kRecord
//      at the same size) is checked against the structural invariants of
//      the D-BSP specification model: per-label cluster containment,
//      dummy-traffic discipline, local-fold degree structure, and the
//      registry's predict::/lb:: formulas (exact for exact_h kernels, an
//      envelope otherwise) — audit/schedule_lint.hpp.
//
// Default audit size: the kernel's first smoke size, the same size the CI
// smoke campaign exercises.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "audit/backend.hpp"
#include "audit/schedule_lint.hpp"
#include "core/registry.hpp"

namespace nobl::audit {

/// The audit outcome for one kernel at one size.
struct KernelVerdict {
  std::string name;
  std::uint64_t n = 0;  ///< audited size (registry size semantics)
  AuditReport report;   ///< the taint classification, per superstep
  /// True iff the taint pass saw input influence on the communication
  /// structure (== !report.oblivious()).
  bool data_dependent = false;
  /// The registry's static annotation for cross-checking.
  bool registry_input_independent = true;
  /// True iff verdict and annotation agree: data-dependent kernels must be
  /// annotated input_independent = false and vice versa.
  bool matches_registry = false;
  /// Structural lint of the recorded schedule (empty == clean).
  ScheduleLintReport lint;

  /// The kernel passes the audit: verdict matches the annotation and the
  /// recorded schedule lints clean.
  [[nodiscard]] bool passed() const noexcept {
    return matches_registry && lint.clean();
  }
};

/// Audit one registry kernel. n = 0 selects the entry's first smoke size.
/// Throws std::invalid_argument for inadmissible sizes (same gate as the
/// registry runner).
[[nodiscard]] KernelVerdict audit_kernel(const AlgoEntry& entry,
                                         std::uint64_t n = 0);

/// Audit every registered kernel at its default size, in registry order.
[[nodiscard]] std::vector<KernelVerdict> audit_registry();

}  // namespace nobl::audit
