// The Program IR as data: a recorded communication pattern.
//
// A Schedule is the sequence of a program's supersteps, each a columnar
// block of (src, dst, count, dummy) events in execution order. RecordBackend
// captures one (bsp/backend.hpp), and ir_opt, the schedule linter and the
// conformance oracles consume them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <vector>

#include "bsp/trace.hpp"

namespace nobl {

/// One recorded communication event: `count` unit messages src -> dst
/// (count > 1 only for dummy traffic; real sends record one event each).
/// This is a *row view* over ScheduleStep's columns — events are stored
/// columnar, never as a vector of these.
struct ScheduleSend {
  std::uint64_t src = 0;
  std::uint64_t dst = 0;
  std::uint64_t count = 1;
  bool dummy = false;

  friend bool operator==(const ScheduleSend&, const ScheduleSend&) = default;
};

/// One recorded superstep as a columnar block: label plus parallel src /
/// dst / count columns and a dummy bitmap (bit i of word i/64), in
/// execution order (ascending sender under the sequential driver,
/// per-sender send order). The same block layout the binary trace store
/// uses: O(E) scans (ir_opt classification, replay) walk contiguous
/// columns, equality compares whole words.
class ScheduleStep {
 public:
  unsigned label = 0;

  ScheduleStep() = default;
  explicit ScheduleStep(unsigned step_label) : label(step_label) {}
  /// Test/fixture convenience: build a block from rows.
  ScheduleStep(unsigned step_label, std::initializer_list<ScheduleSend> rows)
      : label(step_label) {
    for (const ScheduleSend& row : rows) {
      push(row.src, row.dst, row.count, row.dummy);
    }
  }

  /// Append one event.
  void push(std::uint64_t src, std::uint64_t dst, std::uint64_t count,
            bool dummy) {
    const std::size_t i = src_.size();
    src_.push_back(src);
    dst_.push_back(dst);
    count_.push_back(count);
    if ((i & 63) == 0) dummy_words_.push_back(0);
    if (dummy) dummy_words_[i >> 6] |= std::uint64_t{1} << (i & 63);
  }

  /// Empty every column, keeping its capacity (the label stays).
  void clear() noexcept {
    src_.clear();
    dst_.clear();
    count_.clear();
    dummy_words_.clear();
  }

  [[nodiscard]] std::size_t size() const noexcept { return src_.size(); }
  [[nodiscard]] bool empty() const noexcept { return src_.empty(); }

  /// Materialize row i as a ScheduleSend view.
  [[nodiscard]] ScheduleSend operator[](std::size_t i) const {
    return {src_[i], dst_[i], count_[i], dummy(i)};
  }
  [[nodiscard]] bool dummy(std::size_t i) const {
    return ((dummy_words_[i >> 6] >> (i & 63)) & 1) != 0;
  }

  // Raw columns, for O(E) scans.
  [[nodiscard]] const std::vector<std::uint64_t>& src() const noexcept {
    return src_;
  }
  [[nodiscard]] const std::vector<std::uint64_t>& dst() const noexcept {
    return dst_;
  }
  [[nodiscard]] const std::vector<std::uint64_t>& count() const noexcept {
    return count_;
  }
  [[nodiscard]] const std::vector<std::uint64_t>& dummy_words() const noexcept {
    return dummy_words_;
  }

  friend bool operator==(const ScheduleStep&, const ScheduleStep&) = default;

 private:
  std::vector<std::uint64_t> src_;
  std::vector<std::uint64_t> dst_;
  std::vector<std::uint64_t> count_;
  std::vector<std::uint64_t> dummy_words_;
};

/// A replayable communication pattern: the Program IR made first-class.
/// Recorded by RecordBackend; consumed by conformance oracles and by
/// replay_trace, which re-derives the full per-fold degree trace from the
/// events alone — no program, no payloads, no machine.
struct Schedule {
  unsigned log_v = 0;
  std::vector<ScheduleStep> steps;

  [[nodiscard]] std::uint64_t v() const noexcept {
    return std::uint64_t{1} << log_v;
  }
  /// Total recorded events (not messages: a dummy burst is one event).
  [[nodiscard]] std::size_t total_sends() const noexcept;
  /// Re-derive the trace by feeding every event through a fresh
  /// DegreeAccumulator per superstep — the replay half of record/replay.
  [[nodiscard]] Trace replay_trace() const;
};

}  // namespace nobl
