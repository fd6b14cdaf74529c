// The distributed D-BSP execution backend: VP clusters on real processes.
//
// run_distributed partitions the v virtual processors into `workers`
// contiguous clusters (one forked process each — the paper's D-BSP
// machine's processors), runs the *same* program in every worker, and has
// each worker execute superstep bodies only for the VPs it owns. After
// every superstep each worker encodes its (src, dst, count, dummy) event
// block, a ScheduleStep, as one little-endian frame and streams it to the
// coordinator over its Channel: frames are batched and written once
// kStreamBatchBytes have accumulated, and at the end of the program. The
// coordinator never answers, so workers run ahead of the merge; it merges
// the blocks superstep by superstep in worker order — which, with
// contiguous clusters and the sequential per-worker driver, is exactly the
// ascending-sender event order RecordBackend records — through one
// DegreeAccumulator, mirroring Schedule::replay_trace verbatim. That merge
// order, not a barrier, makes the merged trace bit-identical to every
// in-process backend (pinned by tests/dist/test_distributed.cpp for all
// registry kernels).
//
// The coordinator appends each merged superstep record to the Trace it
// returns.
//
// Wall-clock is measured by the coordinator per superstep (its wait for
// that superstep's blocks + merge) and surfaces through Measurement as the
// measured-time column next to predicted H in result documents.
//
// One driver: DistributedBackend takes its superstep drivers and message
// validation from SuperstepDriver (bsp/superstep.hpp), like every other
// backend — so every worker validates the whole range or sparse set, not
// just its owned VPs, and all workers reach the same verdict — and the
// coordinator rethrows the worker's exception type and message, so a
// program that fails under CostBackend fails identically under
// `--backend distributed`.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "bsp/schedule.hpp"
#include "bsp/superstep.hpp"
#include "bsp/trace.hpp"
#include "dist/channel.hpp"

namespace nobl::dist {

/// How to run one distributed execution.
struct DistConfig {
  /// Worker processes. 0 = min(4, v); otherwise clamped to a power of two
  /// that divides v (rounded down), so clusters stay contiguous and equal.
  unsigned workers = 0;
  Transport transport = Transport::kFork;

  friend bool operator==(const DistConfig&, const DistConfig&) = default;
};

/// Measured wall-clock of one distributed run, recorded by the coordinator.
struct Measurement {
  /// Per-superstep wall-clock: the coordinator's wait for that superstep's
  /// blocks + their merge. Workers run ahead, so a wait can be near zero.
  std::vector<double> superstep_ms;
  double total_ms = 0.0;
  unsigned workers = 0;
  Transport transport = Transport::kFork;
};

/// The worker-side shard backend: implements the VpContext backend concept
/// over the VP cluster this worker owns. Bodies run (inline, in VP index
/// order) only for owned VPs; every validation rule checks the full
/// machine, so all workers agree on whether a program is legal.
class DistributedBackend : public SuperstepDriver<DistributedBackend> {
 public:
  static constexpr bool delivers = false;

  class VpRef {
   public:
    [[nodiscard]] std::uint64_t id() const noexcept { return id_; }
    [[nodiscard]] std::uint64_t v() const noexcept { return backend_->v(); }
    [[nodiscard]] unsigned log_v() const noexcept { return backend_->log_v(); }

    /// Count a real message; the payload is discarded unread (the
    /// distributed backend accounts degrees, it does not route payloads).
    template <typename Payload>
    void send(std::uint64_t dst, Payload&&) {
      backend_->record(id_, dst, 1, false);
    }
    void send_dummy(std::uint64_t dst, std::uint64_t count = 1) {
      if (count == 0) return;
      backend_->record(id_, dst, count, true);
    }

   private:
    friend class DistributedBackend;
    VpRef(DistributedBackend* backend, std::uint64_t id)
        : backend_(backend), id_(id) {}

    DistributedBackend* backend_;
    std::uint64_t id_;
  };

  /// Shard owning VPs [first, last) of a v-VP machine, reporting through
  /// `channel` (not owned; must outlive the backend).
  DistributedBackend(std::uint64_t v, std::uint64_t first, std::uint64_t last,
                     Channel* channel)
      : SuperstepDriver(v), first_(first), last_(last), channel_(channel) {}

  /// Ship the buffered frames and the end-of-program frame; called by the
  /// worker driver after the program returns normally.
  void finish();

  /// Ship the buffered frames and an error frame carrying exception `code`
  /// and message `what`; called by the worker driver when the program
  /// threw. Best effort: a coordinator that is gone hears nothing.
  void fail(std::uint32_t code, const std::string& what);

 private:
  friend class SuperstepDriver<DistributedBackend>;
  static constexpr const char* kName = "DistributedBackend";

  template <typename Active>
  void open_superstep(Active) {
    block_.clear();
    block_.label = label();
  }

  /// Run the owned VPs of the active set only: a range is clipped to
  /// [first_, last_), a sparse set (strictly increasing) is cut to its
  /// owned run by binary search — neither scans v.
  template <typename Active, typename Body>
  void run_bodies(Active active, Body& body) {
    const Active mine = owned(active);
    for (std::uint64_t pos = 0; pos < mine.size(); ++pos) {
      VpRef vp(this, mine[pos]);
      body(vp);
    }
  }
  [[nodiscard]] VpRange owned(VpRange active) const noexcept {
    const std::uint64_t lo = std::max(active.first, first_);
    return {lo, std::max(lo, std::min(active.last, last_))};
  }
  [[nodiscard]] VpList owned(VpList active) const {
    const auto lo = std::lower_bound(active.begin(), active.end(), first_);
    const auto hi = std::lower_bound(lo, active.end(), last_);
    return {lo, hi};
  }

  /// Append this worker's event block to the outgoing stream as one frame,
  /// and write the stream once it holds kStreamBatchBytes. Never waits on
  /// the coordinator beyond a full socket.
  void close_superstep();

  /// Write and clear the buffered frames; false = coordinator gone.
  bool flush();

  void record(std::uint64_t src, std::uint64_t dst, std::uint64_t count,
              bool dummy) {
    check_send(src, dst);
    block_.push(src, dst, count, dummy);
  }

  std::uint64_t first_;
  std::uint64_t last_;
  Channel* channel_;
  ScheduleStep block_;  ///< this worker's events of the open superstep
  std::vector<std::uint8_t> frame_;  ///< encoded frames not yet written
};

/// Coordinator entry point: fork `config`-many workers over the selected
/// transport, run `program` in each, merge every superstep block, and
/// return the merged trace (routed through the .nbt wire image). When
/// `measure` is non-null it receives the per-superstep wall-clock column;
/// when `capture` is non-null it receives the merged global event blocks
/// as a Schedule (ascending sender order — RecordBackend-identical).
///
/// Worker-side program exceptions are re-thrown here with their original
/// type (invalid_argument / out_of_range / ClusterViolation / logic_error /
/// runtime_error) and message; a worker dying mid-protocol surfaces as
/// std::runtime_error.
[[nodiscard]] Trace run_distributed(
    std::uint64_t v, const DistConfig& config, Measurement* measure,
    Schedule* capture,
    const std::function<void(DistributedBackend&)>& program);

}  // namespace nobl::dist
