#include "core/analytic.hpp"

#include <algorithm>
#include <utility>

#include "bsp/backend.hpp"
#include "core/registry.hpp"
#include "util/bits.hpp"

namespace nobl {

namespace analytic {
namespace {

SuperstepRecord blank_record(unsigned label, unsigned log_v) {
  SuperstepRecord record;
  record.label = label;
  record.degree.assign(log_v + 1u, 0);
  return record;
}

/// The n == 1 degenerate shape shared by every kernel: one empty
/// 0-superstep (M(1) still executes local steps under label 0).
Trace trivial_trace() {
  Trace trace(0);
  trace.append(blank_record(0, 0));
  return trace;
}

/// One tree round: degree 1 on every fold finer than the label's cluster.
SuperstepRecord tree_record(unsigned label, unsigned log_v,
                            std::uint64_t messages) {
  SuperstepRecord record = blank_record(label, log_v);
  for (unsigned j = label + 1; j <= log_v; ++j) record.degree[j] = 1;
  record.messages = messages;
  return record;
}

}  // namespace

Trace reduce_trace(std::uint64_t n) {
  if (n == 1) return trivial_trace();
  const unsigned log_n = log2_exact(n);
  Trace trace(log_n);
  for (unsigned t = 0; t < log_n; ++t) {
    trace.append(tree_record(log_n - t - 1, log_n, n >> (t + 1)));
  }
  return trace;
}

Trace scan_trace(std::uint64_t n) {
  if (n == 1) return trivial_trace();
  const unsigned log_n = log2_exact(n);
  Trace trace(log_n);
  for (unsigned t = 0; t < log_n; ++t) {  // upsweep
    trace.append(tree_record(log_n - t - 1, log_n, n >> (t + 1)));
  }
  for (unsigned t = log_n; t-- > 0;) {  // downsweep mirrors the labels back
    trace.append(tree_record(log_n - t - 1, log_n, n >> (t + 1)));
  }
  return trace;
}

Trace gather_trace(std::uint64_t n) {
  if (n == 1) return trivial_trace();
  const unsigned log_n = log2_exact(n);
  Trace trace(log_n);
  SuperstepRecord record = blank_record(0, log_n);
  // Processor 0 receives every value homed outside its own cluster; the
  // receive side dominates the senders' n/2^j each.
  for (unsigned j = 1; j <= log_n; ++j) record.degree[j] = n - (n >> j);
  record.messages = n - 1;
  trace.append(std::move(record));
  return trace;
}

Trace shift_trace(std::uint64_t n) {
  if (n == 1) return trivial_trace();
  const unsigned log_n = log2_exact(n);
  Trace trace(log_n);
  SuperstepRecord record = blank_record(0, log_n);
  // dst = src XOR n/2: every message crosses every fold, perfectly
  // balanced — each cluster sends and receives exactly its own size.
  for (unsigned j = 1; j <= log_n; ++j) record.degree[j] = n >> j;
  record.messages = n;
  trace.append(std::move(record));
  return trace;
}

Trace broadcast_trace(std::uint64_t n) {
  if (n == 1) return trivial_trace();
  const unsigned log_n = log2_exact(n);
  Trace trace(log_n);
  for (unsigned round = 0; round < log_n; ++round) {
    trace.append(tree_record(round, log_n, std::uint64_t{1} << round));
  }
  return trace;
}

Trace transpose_trace(std::uint64_t n) {
  if (n == 1) return trivial_trace();
  const std::uint64_t m = sqrt_pow2(n);
  const unsigned log_m = log2_exact(m);
  const unsigned log_n = 2 * log_m;
  Trace trace(log_n);
  for (unsigned d = 0; d < log_m; ++d) {
    SuperstepRecord record = blank_record(d, log_n);
    for (unsigned j = d + 1; j <= log_n; ++j) {
      if (j <= log_m) {
        // Whole-row clusters: every row moves m/2^{d+1} elements.
        record.degree[j] = (n >> j) >> (d + 1);
      } else {
        // Sub-row clusters: the moving run of a row either fits the
        // cluster window (m/2^{d+1}) or fills it entirely (n/2^j).
        record.degree[j] = std::min(n >> j, m >> (d + 1));
      }
    }
    record.messages = n >> (d + 1);
    trace.append(std::move(record));
  }
  return trace;
}

}  // namespace analytic

Trace analytic_trace(const AlgoEntry& entry, std::uint64_t n) {
  if (entry.analytic != nullptr) return entry.analytic(n);
  return entry.runner(n, BackendKind::kCost);
}

AnalyticBackend& AnalyticBackend::instance() {
  static AnalyticBackend backend;
  return backend;
}

Trace AnalyticBackend::trace_for(const AlgoEntry& entry, std::uint64_t n) {
  return analytic_trace(entry, n);
}

}  // namespace nobl
