#include "bsp/ir_opt.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace nobl {

namespace {

/// Shared degree-vector scaffold: log_v + 1 entries, degree[0] == 0.
SuperstepRecord make_record(unsigned label, unsigned log_v) {
  SuperstepRecord record;
  record.label = label;
  record.degree.assign(log_v + 1u, 0);
  return record;
}

/// Dense all-to-all: in recorded (sequential-driver) order, VP 0..v-1 each
/// send one unit message to every VP 0..v-1 ascending, self included. At
/// fold 2^j a cluster of c = v/2^j VPs sends (and receives) c·(v − c)
/// crossing messages.
bool try_dense(const ScheduleStep& step, unsigned log_v,
               SuperstepRecord* out) {
  if (log_v > 31) return false;  // v² would not fit the event count anyway
  const std::uint64_t v = std::uint64_t{1} << log_v;
  if (step.size() != v * v) return false;
  const auto& src = step.src();
  const auto& dst = step.dst();
  const auto& count = step.count();
  for (std::size_t idx = 0; idx < step.size(); ++idx) {
    if (count[idx] != 1) return false;
    if (src[idx] != (idx >> log_v) || dst[idx] != (idx & (v - 1))) {
      return false;
    }
  }
  if (out != nullptr) {
    *out = make_record(step.label, log_v);
    for (unsigned j = 1; j <= log_v; ++j) {
      const std::uint64_t cluster = v >> j;
      out->degree[j] = cluster * (v - cluster);
    }
    out->messages = v * v;
  }
  return true;
}

/// Constant-XOR permutation (the shift kernel's shape): VP r sends exactly
/// one unit message to r ^ D. XOR by a constant permutes the aligned
/// clusters of every fold, so each cluster both sends and receives exactly
/// its own size in messages on every fold the XOR crosses.
bool try_shift(const ScheduleStep& step, unsigned log_v,
               SuperstepRecord* out) {
  const std::uint64_t v = std::uint64_t{1} << log_v;
  if (step.size() != v) return false;
  const auto& src = step.src();
  const auto& dst = step.dst();
  const auto& count = step.count();
  const std::uint64_t xor_d = src[0] ^ dst[0];
  if (xor_d == 0) return false;
  for (std::size_t idx = 0; idx < step.size(); ++idx) {
    if (count[idx] != 1 || src[idx] != idx || dst[idx] != (src[idx] ^ xor_d)) {
      return false;
    }
  }
  if (out != nullptr) {
    *out = make_record(step.label, log_v);
    const auto cb =
        log_v - static_cast<unsigned>(std::bit_width(xor_d));
    for (unsigned j = cb + 1; j <= log_v; ++j) out->degree[j] = v >> j;
    out->messages = v;
  }
  return true;
}

/// Uniform pairwise exchange (reduction / broadcast / scan rounds): every
/// event is one unit message across the same nonzero XOR D, and at the
/// coarsest crossing fold (cluster size 2^{bit_width(D)−1}) no cluster
/// holds two senders or two receivers — then no finer fold does either, so
/// h = 1 on every crossing fold.
bool try_tree(const ScheduleStep& step, unsigned log_v,
              SuperstepRecord* out) {
  if (step.empty()) return false;
  const auto& src = step.src();
  const auto& dst = step.dst();
  const auto& count = step.count();
  const std::uint64_t xor_d = src[0] ^ dst[0];
  if (xor_d == 0) return false;
  for (std::size_t idx = 0; idx < step.size(); ++idx) {
    if (count[idx] != 1 || (src[idx] ^ dst[idx]) != xor_d) return false;
  }
  const auto width = static_cast<unsigned>(std::bit_width(xor_d));
  const unsigned shift = width - 1;
  std::vector<std::uint64_t> src_clusters;
  std::vector<std::uint64_t> dst_clusters;
  src_clusters.reserve(step.size());
  dst_clusters.reserve(step.size());
  for (std::size_t idx = 0; idx < step.size(); ++idx) {
    src_clusters.push_back(src[idx] >> shift);
    dst_clusters.push_back(dst[idx] >> shift);
  }
  for (auto* clusters : {&src_clusters, &dst_clusters}) {
    std::sort(clusters->begin(), clusters->end());
    if (std::adjacent_find(clusters->begin(), clusters->end()) !=
        clusters->end()) {
      return false;
    }
  }
  if (out != nullptr) {
    *out = make_record(step.label, log_v);
    const unsigned cb = log_v - width;
    for (unsigned j = cb + 1; j <= log_v; ++j) out->degree[j] = 1;
    out->messages = step.size();
  }
  return true;
}

StepPattern classify_into(const ScheduleStep& step, unsigned log_v,
                          SuperstepRecord* out) {
  if (try_dense(step, log_v, out)) return StepPattern::kDense;
  if (try_shift(step, log_v, out)) return StepPattern::kShift;
  if (try_tree(step, log_v, out)) return StepPattern::kTree;
  return StepPattern::kIrregular;
}

}  // namespace

std::string to_string(StepPattern pattern) {
  switch (pattern) {
    case StepPattern::kDense:
      return "dense";
    case StepPattern::kShift:
      return "shift";
    case StepPattern::kTree:
      return "tree";
    case StepPattern::kIrregular:
      return "irregular";
  }
  return "unknown";
}

StepPattern classify_step(const ScheduleStep& step, unsigned log_v) {
  return classify_into(step, log_v, nullptr);
}

OptimizedSchedule optimize_schedule(const Schedule& schedule) {
  const unsigned log_v = schedule.log_v;
  OptimizedSchedule optimized;
  optimized.log_v = log_v;
  optimized.source_events = schedule.total_sends();
  optimized.steps.reserve(schedule.steps.size());
  for (std::size_t s = 0; s < schedule.steps.size(); ++s) {
    const ScheduleStep& step = schedule.steps[s];
    if (step.label >= label_bound(log_v)) {
      throw std::invalid_argument(
          "optimize_schedule: superstep label out of range");
    }
    OptimizedStep out;
    out.label = step.label;
    if (s > 0 && step == schedule.steps[s - 1]) {
      // Fusion: an identical consecutive superstep (label and all columns —
      // whole-word compares) reuses whatever record its predecessor
      // materializes (classified now, or accumulated once at replay time
      // for irregular runs).
      out.pattern = optimized.steps.back().pattern;
      out.fused_with_previous = true;
    } else {
      out.pattern = classify_into(step, log_v, &out.record);
      if (out.pattern == StepPattern::kIrregular) {
        out.events = step;
      }
    }
    optimized.steps.push_back(std::move(out));
  }
  return optimized;
}

Trace OptimizedSchedule::replay_trace() const {
  Trace trace(log_v);
  DegreeAccumulator acc(log_v);
  SuperstepRecord last;
  for (const OptimizedStep& step : steps) {
    SuperstepRecord record;
    if (step.fused_with_previous) {
      record = last;
    } else if (step.pattern != StepPattern::kIrregular) {
      record = step.record;
    } else {
      record.label = step.label;
      record.degree.assign(log_v + 1u, 0);
      const auto& src = step.events.src();
      const auto& dst = step.events.dst();
      const auto& count = step.events.count();
      for (std::size_t i = 0; i < step.events.size(); ++i) {
        acc.count(src[i], dst[i], count[i]);
      }
      acc.finalize_into(record);
    }
    last = record;
    trace.append(std::move(record));
  }
  return trace;
}

OptimizeStats OptimizedSchedule::stats() const {
  OptimizeStats stats;
  stats.events_total = source_events;
  for (const OptimizedStep& step : steps) {
    if (step.fused_with_previous) {
      ++stats.fused;
      continue;
    }
    switch (step.pattern) {
      case StepPattern::kDense:
        ++stats.dense;
        break;
      case StepPattern::kShift:
        ++stats.shift;
        break;
      case StepPattern::kTree:
        ++stats.tree;
        break;
      case StepPattern::kIrregular:
        ++stats.irregular;
        break;
    }
    stats.events_retained += step.events.size();
  }
  return stats;
}

}  // namespace nobl
