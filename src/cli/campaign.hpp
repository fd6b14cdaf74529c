// Campaigns: programmable experiment sweeps over the algorithm registry.
//
// A campaign names a set of algorithms (each with a size sweep), a backend
// matrix (simulate / cost / record / analytic / distributed, see
// bsp/backend.hpp, core/analytic.hpp and dist/backend.hpp), an engine matrix,
// a fold range and a σ grid. `run_campaign` executes every (algorithm, n,
// backend, engine) cell once and evaluates the full metric surface from the
// recorded trace:
//
//   * H measured vs predicted vs lower bound at every fold × σ,
//   * wiseness α / fullness γ at every fold (Defs. 3.2 / 5.2),
//   * the Theorem 3.4 certification (α, γ, β_min, guarantee) at the top
//     fold.
//
// Cells are independent, so the runner executes them on lanes: half the
// CPUs this process may run on (one lane when the spec has a distributed
// backend, whose cells fork). Results, visitor calls and failures arrive in
// cell order whatever the lane count. Every reported metric is a pure
// function of a cell's trace, so a cell's trace is dropped as soon as its
// RunResult is evaluated: the runner holds at most one live trace per lane,
// plus those of finished cells waiting in the reorder buffer for a
// visitor. Callers that need the trace itself (the Lemma 3.1 folding
// column of `nobl certify`, `nobl trace --export`) see it through a
// CellVisitor while it is still alive.
//
// Results render as text tables or as schema-versioned JSON that
// `nobl check` (and CI) can validate and threshold. Specs are either
// builtin (`builtin_campaign`) or parsed from a small line-oriented file
// format (`parse_campaign_spec`); parse errors carry line/column positions.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "bsp/backend.hpp"
#include "bsp/execution.hpp"
#include "bsp/trace.hpp"
#include "core/optimality.hpp"
#include "core/registry.hpp"
#include "util/json.hpp"

namespace nobl {

/// Version stamped into every result document; `nobl check` rejects
/// documents with a different major version.
inline constexpr int kResultSchemaVersion = 1;

/// One algorithm plus the input sizes to sweep.
struct AlgoSweep {
  std::string algorithm;
  std::vector<std::uint64_t> sizes;
};

struct CampaignSpec {
  std::string name;
  std::vector<AlgoSweep> sweeps;
  std::vector<ExecutionPolicy> engines = {ExecutionPolicy::sequential()};
  /// Backends to run every sweep under. Non-simulating backends ignore the
  /// engine matrix (their driver is always sequential), so they execute
  /// once per (algorithm, n) instead of once per engine.
  std::vector<BackendKind> backends = {BackendKind::kSimulate};
  /// Cap on the fold sweep (folds run 2..min(max_fold, v)); 0 = up to v.
  std::uint64_t max_fold = 0;
  /// Explicit σ grid; empty = the standard grid {0, 1, √(n/p), n/p}.
  std::vector<double> sigmas;
  /// Distributed-backend settings (transport + worker count), applied to
  /// every kDistributed cell of this campaign.
  dist::DistConfig dist{};
};

/// Parse the line-oriented campaign format:
///
///   # comment
///   name = nightly
///   algorithms = matmul:64:4096, fft, sort:256     (bare name = smoke sizes)
///   engines = seq, par:2                           (default: seq)
///   backends = simulate, cost, distributed, ...    (default: simulate)
///   sigmas = 0, 1, 4.5                             (default: auto grid)
///   max_fold = 64                                  (default: all folds)
///   transport = fork | tcp                         (default: fork)
///   dist_workers = 4                               (default: auto)
///
/// Throws std::invalid_argument with "line L, column C" position info on
/// unknown keys, unknown algorithms, empty sweeps, or malformed numbers.
[[nodiscard]] CampaignSpec parse_campaign_spec(std::string_view text);

/// Builtin campaigns: "ci-smoke" (4 algorithms × {seq, par:2}, small sizes),
/// "golden" (tiny sweep pinned by tests/golden/), "bench" (the full
/// bench-binary sweeps, sequential), "conformance" (every kernel at its
/// smallest smoke size — the cross-backend bit-identity matrix). Throws
/// std::invalid_argument listing the known names on a miss.
[[nodiscard]] CampaignSpec builtin_campaign(const std::string& name);
[[nodiscard]] std::vector<std::string> builtin_campaign_names();

/// One (fold, σ) evaluation cell.
struct CellResult {
  std::uint64_t p = 0;
  double sigma = 0.0;
  double h = 0.0;
  double predicted = 0.0;
  double lower_bound = 0.0;
  double ratio_predicted = 0.0;  ///< h / predicted (0 when predicted == 0)
  double ratio_lb = 0.0;         ///< h / lower_bound (0 when lb == 0)
};

/// Per-fold wiseness/fullness measurements.
struct FoldResult {
  std::uint64_t p = 0;
  double alpha = 0.0;
  double gamma = 0.0;
};

/// One (algorithm, n, backend, engine) cell of a campaign.
struct CampaignCell {
  const AlgoEntry* entry = nullptr;
  std::uint64_t n = 0;
  BackendKind backend = BackendKind::kSimulate;
  ExecutionPolicy policy;
};

/// The spec's cells in result order: backend-major, then engine, sweep and
/// n. Non-simulating backends drive bodies sequentially whatever the engine
/// matrix, so they contribute one cell per (algorithm, n). `run_campaign`
/// and `nobl serve` both expand a spec through this function, so a served
/// document lists its runs exactly like `nobl run --json`.
[[nodiscard]] std::vector<CampaignCell> campaign_cells(
    const CampaignSpec& spec);

/// Everything measured for one (algorithm, n, engine) run.
struct RunResult {
  std::string algorithm;
  std::string engine;  ///< to_string(policy): "seq" or "par:N"
  /// to_string(kind): "simulate" | "cost" | "record" | "analytic" |
  /// "distributed"
  std::string backend;
  std::uint64_t n = 0;
  unsigned log_v = 0;
  std::uint64_t supersteps = 0;
  std::uint64_t messages = 0;
  std::vector<CellResult> cells;
  std::vector<FoldResult> folds;
  OptimalityReport certification;  ///< at the top swept fold
  /// Empty unless the run came from the trace-keeping `run_campaign`
  /// overload, which exists for callers written before CellVisitor.
  Trace trace;
  /// Distributed runs only: the measured wall-clock column (one entry per
  /// superstep) next to the accounted degrees, plus how it was produced.
  /// Empty superstep_ms = not a freshly-executed distributed run (other
  /// backends, and served cache hits, carry no timing).
  std::vector<double> measured_ms;
  double measured_total_ms = 0.0;
  std::string transport;       ///< "fork" | "tcp" (distributed runs only)
  unsigned dist_workers = 0;   ///< worker processes (distributed runs only)
};

struct CampaignResult {
  CampaignSpec spec;
  std::vector<RunResult> runs;
};

/// Sees one evaluated cell and the trace it was evaluated from, while that
/// trace is still in memory. The trace is dropped when the visitor returns.
using CellVisitor = std::function<void(const RunResult&, const Trace&)>;

/// Execute the campaign's cells on lanes (file comment) and deliver them in
/// campaign_cells() order: the RunResults, and the `visit` calls (when set)
/// on the calling thread. Each cell's trace lives only until its RunResult
/// is evaluated and `visit` has seen it, so memory is bounded by a few
/// traces, not by their sum. If cells throw, every cell before the lowest
/// failing one is delivered and its exception propagates; no later cell is
/// visited. Progress lines ("algorithm n engine") go to `progress` when
/// non-null, one write per line, as each cell starts (the CLI passes
/// stderr so --json stays clean).
[[nodiscard]] CampaignResult run_campaign(const CampaignSpec& spec,
                                          std::ostream* progress,
                                          const CellVisitor& visit);

/// As above without a visitor, except that every RunResult also keeps its
/// trace in RunResult::trace, so memory grows with the sum of all traces.
/// For callers that read RunResult::trace after the run; new code passes a
/// CellVisitor (or nullptr) to the overload above instead.
[[nodiscard]] CampaignResult run_campaign(const CampaignSpec& spec,
                                          std::ostream* progress = nullptr);

namespace campaign_detail {

/// The lane count run_campaign uses for `spec` before clamping it to the
/// cell count: 1 if the spec has a distributed backend, else half the CPUs
/// in this process's affinity mask (at least 1).
[[nodiscard]] unsigned campaign_lanes(const CampaignSpec& spec);

/// The visitor overload of run_campaign on `lanes` lanes instead of
/// campaign_lanes(spec); the test seam that pins lane-count independence.
[[nodiscard]] CampaignResult run_campaign_on_lanes(const CampaignSpec& spec,
                                                   std::ostream* progress,
                                                   const CellVisitor& visit,
                                                   unsigned lanes);

}  // namespace campaign_detail

/// Evaluate the full metric surface (cells, folds, certification) of one
/// already-executed (algorithm, n, backend, engine) cell from its trace.
/// This is the execution-free half of a campaign run: `nobl serve` calls it
/// on cache-hit traces so a served cell is byte-identical to a fresh
/// `run_campaign` cell by construction (same code path, same trace). Only
/// const queries touch `trace`; on a trace whose tables are already built
/// (Trace::build_tables) concurrent calls are safe.
[[nodiscard]] RunResult evaluate_run(const CampaignSpec& spec,
                                     const AlgoEntry& entry, std::uint64_t n,
                                     BackendKind backend,
                                     const ExecutionPolicy& policy,
                                     const Trace& trace);

/// Serialize `spec` back to the line-oriented campaign grammar, such that
/// parse_campaign_spec(rendered) reproduces the spec. Used by the serve
/// client (builtin campaigns travel over the wire as text) and pinned by a
/// round-trip test.
void write_campaign_spec(std::ostream& os, const CampaignSpec& spec);

/// Serialize one run as the result-document "runs" entry. write_campaign_json
/// delegates here; `nobl serve` streams the identical object per completed
/// cell, so served and batch-run documents agree field for field.
void write_run_json(JsonWriter& w, const RunResult& run);

/// Serialize as the schema-versioned result document (see kResultSchemaVersion
/// and docs in bench/README.md).
void write_campaign_json(std::ostream& os, const CampaignResult& result);

/// Human-readable rendering: one H table + one wiseness table per
/// (algorithm, engine), mirroring the bench binaries.
void print_campaign_text(std::ostream& os, const CampaignResult& result);

/// Structural validation of a result document: schema version, required
/// keys, cell shape, and cross-engine/cross-backend conformance (runs of
/// the same algorithm and n must report identical H cells under every
/// engine AND every backend — the bit-identical guarantee of the Program
/// API, checked end to end). Returns human-readable violations; empty =
/// valid.
[[nodiscard]] std::vector<std::string> validate_campaign_json(
    const JsonValue& doc);

/// Machine-readable registry dump for `nobl list --json`: schema version,
/// every AlgoEntry (name, summary, source, size_rule, pattern, formula,
/// header, exact_h, input_independent, bench/smoke sweeps, max_sweep_size,
/// supported backends) and the builtin campaign names. docs/KERNELS.md is
/// generated from this document by scripts/gen_kernels_md.py; CI fails when
/// the committed file drifts.
void write_registry_json(std::ostream& os);

/// Threshold gate for CI. The thresholds document looks like:
///
///   {"schema_version": 1,
///    "algorithms": {"matmul": {"max_ratio_lb": 4.0, "min_alpha": 0.5,
///                              "min_guarantee": 0.1}, ...}}
///
/// For each listed algorithm, every run's worst H/LB cell must stay at or
/// under max_ratio_lb, and the certification α / guarantee must stay at or
/// above the minima. Returns violations; empty = pass.
[[nodiscard]] std::vector<std::string> check_thresholds(
    const JsonValue& results, const JsonValue& thresholds);

}  // namespace nobl
