// The distributed D-BSP execution backend: VP clusters on real processes.
//
// run_distributed partitions the v virtual processors into W = `workers`
// contiguous clusters (one forked process each — the processors of the
// paper's M(W)), runs the *same* program in every worker, and has each
// worker execute superstep bodies only for the VPs it owns.
//
// Local and crossing supersteps. An i-superstep keeps every message inside
// its sender's i-cluster (Section 2), so when i >= log W each i-cluster lies
// inside one worker: by Lemma 3.1's folding the superstep is local
// computation on M(W). A worker accounts such a *local* superstep itself,
// in a DegreeAccumulator over its own submachine, and ships only the
// finished degree vector h(2^j), j = log W + 1 .. log v, and its message
// total. A *crossing* superstep (i < log W) ships its (src, dst, count)
// event block instead. Each frame is encoded little-endian and streamed to
// the coordinator over the worker's Channel: frames are batched and written
// once kStreamBatchBytes have accumulated, and at the end of the program.
//
// The coordinator never answers, so workers run ahead of the merge; it
// merges superstep by superstep in worker order. A local superstep's
// degree at fold 2^j is the max over workers (every level-j cluster with
// j > i sits inside one worker, which sees all its traffic), 0 at the folds
// 2^j <= W, and its message total the sum. A crossing superstep's blocks,
// in worker order — with contiguous clusters and the sequential per-worker
// driver, exactly the ascending-sender order RecordBackend records — are
// counted through one DegreeAccumulator, as Schedule::replay_trace does.
// That merge order, not a barrier, makes the merged trace bit-identical to
// every in-process backend (pinned by tests/dist/test_distributed.cpp for
// all registry kernels at every worker count). The coordinator appends
// each merged superstep record to the Trace it returns.
//
// Wall-clock is measured by the coordinator per superstep (its wait for
// that superstep's frames + merge) and surfaces through Measurement as the
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
#include <type_traits>
#include <vector>

#include "bsp/superstep.hpp"
#include "bsp/trace.hpp"
#include "dist/channel.hpp"

namespace nobl::dist {

/// Whether an i-superstep (i = `label` < log v) of M(v), run on workers that
/// own `span` VPs each, is local: its i-clusters of v >> i VPs fit inside
/// one worker, i.e. i >= log W. Workers and coordinator apply this one rule.
[[nodiscard]] constexpr bool local_superstep(std::uint64_t v, unsigned label,
                                             std::uint64_t span) noexcept {
  return (v >> label) <= span;
}

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
  /// frames + their merge. Workers run ahead, so a wait can be near zero.
  std::vector<double> superstep_ms;
  double total_ms = 0.0;
  unsigned workers = 0;
  Transport transport = Transport::kFork;
};

/// The worker-side shard backend: implements the VpContext backend concept
/// over the VP cluster this worker owns. Bodies run (inline, in VP index
/// order) only for owned VPs; every validation rule checks the full
/// machine, so all workers agree on whether a program is legal. A local
/// superstep is counted here, on the worker's submachine M(span); a crossing
/// one is kept as an event block (file comment).
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
      backend_->record(id_, dst, 1);
    }
    void send_dummy(std::uint64_t dst, std::uint64_t count = 1) {
      if (count == 0) return;
      backend_->record(id_, dst, count);
    }

   private:
    friend class DistributedBackend;
    VpRef(DistributedBackend* backend, std::uint64_t id)
        : backend_(backend), id_(id) {}

    DistributedBackend* backend_;
    std::uint64_t id_;
  };

  /// Shard owning VPs [first, last) of a v-VP machine, reporting through
  /// `channel` (not owned; must outlive the backend). last - first is the
  /// span v / W, a power of two, and first a multiple of it.
  DistributedBackend(std::uint64_t v, std::uint64_t first, std::uint64_t last,
                     Channel* channel);

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

  /// A local VpRange superstep closes with the accumulator's range sweep
  /// when the owned part of the range allows it (bsp/trace.hpp).
  template <typename Active>
  void open_superstep(Active active) {
    local_ = local_superstep(v(), label(), last_ - first_);
    if constexpr (std::is_same_v<Active, VpRange>) {
      if (local_) {
        const VpRange mine = owned(active);
        acc_.open_range(label() - log_workers_, mine.first - first_,
                        mine.last - first_);
      }
    }
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

  /// Append the superstep's frame to the outgoing stream — the degree
  /// vector of a local superstep, the event block of a crossing one — and
  /// write the stream once it holds kStreamBatchBytes. Never waits on the
  /// coordinator beyond a full socket.
  void close_superstep();

  /// Write and clear the buffered frames; false = coordinator gone.
  bool flush();

  void record(std::uint64_t src, std::uint64_t dst, std::uint64_t count) {
    check_send(src, dst);
    if (local_) {
      // Both endpoints lie in this worker's cluster (check_send held).
      acc_.count(src - first_, dst - first_, count);
      return;
    }
    src_.push_back(src);
    dst_.push_back(dst);
    count_.push_back(count);
  }

  std::uint64_t first_;
  std::uint64_t last_;
  unsigned log_workers_;  ///< log W = log v - log(last - first)
  Channel* channel_;
  bool local_ = false;  ///< whether the open superstep is local
  DegreeAccumulator acc_;  ///< local supersteps, over M(last - first)
  SuperstepRecord step_;   ///< acc_'s finalized local superstep
  // The open crossing superstep's event columns.
  std::vector<std::uint64_t> src_;
  std::vector<std::uint64_t> dst_;
  std::vector<std::uint64_t> count_;
  std::vector<std::uint8_t> frame_;  ///< encoded frames not yet written
};

/// The coordinator's merge: drain the workers' frame streams superstep by
/// superstep, in worker order, until every worker sends its done frame, and
/// return the merged trace of M(v) (file comment). `workers` holds one
/// channel per worker in worker-index order; their count is a power of two
/// dividing v, and worker w owns VPs [w * span, (w + 1) * span), span =
/// v / workers. A worker's error frame is rethrown with its exception type
/// and message; a stream that ends early, or workers that disagree on a
/// superstep's label, its frame kind or the superstep count, throw
/// std::runtime_error. Each superstep's wait + merge time is appended to
/// `superstep_ms`.
[[nodiscard]] Trace merge_streams(std::uint64_t v,
                                  const std::vector<Channel*>& workers,
                                  std::vector<double>& superstep_ms);

/// Coordinator entry point: fork `config`-many workers over the selected
/// transport, run `program` in each, merge their streams (merge_streams),
/// and return the merged trace. When `measure` is non-null it
/// receives the per-superstep wall-clock column. No global event stream
/// exists to hand out: a local superstep's events never leave their worker.
///
/// Worker-side program exceptions are re-thrown here with their original
/// type (invalid_argument / out_of_range / ClusterViolation / logic_error /
/// runtime_error) and message; a worker dying mid-protocol surfaces as
/// std::runtime_error, and so do workers that disagree on a superstep's
/// label or count.
[[nodiscard]] Trace run_distributed(
    std::uint64_t v, const DistConfig& config, Measurement* measure,
    const std::function<void(DistributedBackend&)>& program);

}  // namespace nobl::dist
