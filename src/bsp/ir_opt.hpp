// Program-IR optimizer: pattern classification and superstep fusion over
// recorded Schedules (bsp/schedule.hpp).
//
// A Schedule is the Program IR made first-class: per superstep, the (src,
// dst, count, dummy) events in execution order. Replaying it through a
// DegreeAccumulator costs O(events); but the degree vector of a superstep
// is a *static property of its communication pattern* (the paper's central
// claim), and the patterns our kernels emit are overwhelmingly regular.
// optimize_schedule() classifies each recorded superstep:
//
//   kDense — every VP sends one unit message to every VP (self included):
//     h(2^j) = (v/2^j) · (v − v/2^j), computed in O(log v) instead of
//     accumulating v² sends.
//   kShift — a constant-XOR permutation (every VP sends exactly one unit
//     message to id ^ D): h(2^j) = v/2^j on the folds the XOR crosses.
//   kTree — a uniform pairwise exchange (all events share one nonzero XOR
//     D, and at the coarsest crossing fold every cluster holds at most one
//     sender and one receiver): h = 1 on every crossing fold. This is the
//     shape of reduction/broadcast/scan rounds.
//   kIrregular — anything else; events are retained and replayed through
//     the reference DegreeAccumulator path.
//
// Classified supersteps carry their SuperstepRecord precomputed, so
// OptimizedSchedule::replay_trace() is O(supersteps · log v) for fully
// regular programs ("vectorized bulk accounting"). bench_backends and the
// layer profiler time it; the analytic backend (core/analytic.hpp) runs
// the cost interpreter instead.
// Fusion: consecutive supersteps with identical label and event streams
// share one record computation (and, for irregular steps, one accumulator
// pass at replay time).
//
// Soundness contract: replay_trace() is bit-identical to
// Schedule::replay_trace() on every schedule — classification may miss
// (falling back to kIrregular) but never misaccount. Pinned by
// tests/bsp/test_ir_opt.cpp.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bsp/schedule.hpp"
#include "bsp/trace.hpp"

namespace nobl {

/// Communication-pattern class of one recorded superstep.
enum class StepPattern : std::uint8_t { kDense, kShift, kTree, kIrregular };

/// "dense" | "shift" | "tree" | "irregular".
[[nodiscard]] std::string to_string(StepPattern pattern);

/// One optimized superstep. Classified steps (pattern != kIrregular) carry
/// their finalized record and drop their events; irregular steps keep the
/// columnar event block for reference replay. A fused step reuses the
/// materialized record of its (identical) predecessor.
struct OptimizedStep {
  unsigned label = 0;
  StepPattern pattern = StepPattern::kIrregular;
  bool fused_with_previous = false;
  SuperstepRecord record;  ///< precomputed unless irregular/fused
  ScheduleStep events;     ///< retained only for irregular steps
};

/// Classification census of an optimized schedule.
struct OptimizeStats {
  std::size_t dense = 0;
  std::size_t shift = 0;
  std::size_t tree = 0;
  std::size_t irregular = 0;
  std::size_t fused = 0;            ///< steps sharing a predecessor's record
  std::size_t events_total = 0;     ///< events in the source schedule
  std::size_t events_retained = 0;  ///< events still replayed per-message
};

/// The optimized Program IR: same superstep sequence, bulk accounting.
struct OptimizedSchedule {
  unsigned log_v = 0;
  std::size_t source_events = 0;  ///< events in the schedule the pass consumed
  std::vector<OptimizedStep> steps;

  /// Re-derive the trace. Bit-identical to Schedule::replay_trace() on the
  /// source schedule; O(log v) per classified or fused superstep.
  [[nodiscard]] Trace replay_trace() const;

  [[nodiscard]] OptimizeStats stats() const;
};

/// Classify one recorded superstep (exposed for tests and benches).
[[nodiscard]] StepPattern classify_step(const ScheduleStep& step,
                                        unsigned log_v);

/// Run the full pass: classify every superstep, precompute records for the
/// regular ones, fuse identical consecutive steps. Throws
/// std::invalid_argument on out-of-range superstep labels (same contract as
/// Schedule::replay_trace).
[[nodiscard]] OptimizedSchedule optimize_schedule(const Schedule& schedule);

}  // namespace nobl
