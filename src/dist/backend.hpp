// The distributed D-BSP execution backend: VP clusters on real processes.
//
// run_distributed partitions the v virtual processors into `workers`
// contiguous clusters (one forked process each — the paper's D-BSP
// machine's processors), runs the *same* program in every worker, and has
// each worker execute superstep bodies only for the VPs it owns. After
// every superstep each worker ships its (src, dst, count, dummy) event
// block to the coordinator over its Channel, as one little-endian frame
// written with a single send; the coordinator merges the blocks in worker
// order — which, with contiguous clusters and the sequential per-worker
// driver, is exactly the ascending-sender event order RecordBackend
// records — through one DegreeAccumulator, mirroring
// Schedule::replay_trace verbatim. The merged trace is therefore
// bit-identical to every in-process backend by construction (pinned by
// tests/dist/test_distributed.cpp for all registry kernels).
//
// The merged per-superstep records stream through TraceWriter into an
// in-memory .nbt image and are materialized back through TraceReader: the
// binary columnar trace store is the wire/upload format for measured
// traces, as on a real remote deployment.
//
// Wall-clock is measured by the coordinator per superstep (worker compute
// + transport + merge) and surfaces through Measurement as the
// measured-time column next to predicted H in result documents.
//
// Validation parity: DistributedBackend replicates CostBackend's rules —
// label range, no nested supersteps, strictly increasing sparse active
// sets (validated on the FULL set, not just owned VPs), destination range
// (std::out_of_range), i-cluster containment (ClusterViolation) — and the
// coordinator rethrows the worker's exception *type*, so a program that
// fails under CostBackend fails identically under `--backend distributed`.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "bsp/machine.hpp"
#include "bsp/trace.hpp"
#include "dist/channel.hpp"
#include "util/bits.hpp"

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
  /// Per-superstep wall-clock: worker compute + transport + merge.
  std::vector<double> superstep_ms;
  double total_ms = 0.0;
  unsigned workers = 0;
  Transport transport = Transport::kFork;
};

/// One merged superstep in global event order (ascending sender). The
/// dist-local twin of ScheduleStep — run_for_trace converts these into a
/// Schedule when the caller asked for a capture, keeping this header free
/// of bsp/backend.hpp (which includes us for the dispatch case).
struct MergedStep {
  unsigned label = 0;
  std::vector<std::uint64_t> src;
  std::vector<std::uint64_t> dst;
  std::vector<std::uint64_t> count;
  std::vector<std::uint64_t> dummy_words;  ///< bit i of word i/64

  void push(std::uint64_t s, std::uint64_t d, std::uint64_t c, bool dummy) {
    const std::size_t i = src.size();
    src.push_back(s);
    dst.push_back(d);
    count.push_back(c);
    if ((i & 63) == 0) dummy_words.push_back(0);
    if (dummy) dummy_words[i >> 6] |= std::uint64_t{1} << (i & 63);
  }

  /// Empty every column, keeping its capacity.
  void clear() {
    src.clear();
    dst.clear();
    count.clear();
    dummy_words.clear();
  }
};

/// The worker-side shard backend: implements the VpContext backend concept
/// over the VP cluster this worker owns. Bodies run (inline, in VP index
/// order) only for owned VPs; every validation rule checks the full
/// machine, so all workers agree on whether a program is legal.
class DistributedBackend {
 public:
  static constexpr bool delivers = false;

  class VpRef {
   public:
    [[nodiscard]] std::uint64_t id() const noexcept { return id_; }
    [[nodiscard]] std::uint64_t v() const noexcept { return backend_->v_; }
    [[nodiscard]] unsigned log_v() const noexcept { return backend_->log_v_; }

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
      : log_v_(log2_exact(v)),
        v_(v),
        first_(first),
        last_(last),
        channel_(channel) {}

  [[nodiscard]] std::uint64_t v() const noexcept { return v_; }
  [[nodiscard]] unsigned log_v() const noexcept { return log_v_; }

  template <typename Body>
  void superstep(unsigned label, Body&& body) {
    superstep_range(label, 0, v_, std::forward<Body>(body));
  }

  template <typename Body>
  void superstep_range(unsigned label, std::uint64_t first, std::uint64_t last,
                       Body&& body) {
    // Every worker sees the same bounds, so every worker reaches the same
    // verdict (CostBackend parity).
    if (first > last || last > v_) {
      throw std::invalid_argument(
          "DistributedBackend: superstep range needs first <= last <= v");
    }
    begin_superstep(label);
    const std::uint64_t lo = first > first_ ? first : first_;
    const std::uint64_t hi = last < last_ ? last : last_;
    for (std::uint64_t r = lo; r < hi; ++r) {
      VpRef vp(this, r);
      body(vp);
    }
    end_superstep();
  }

  template <typename Body>
  void superstep_sparse(unsigned label, std::span<const std::uint64_t> active,
                        Body&& body) {
    begin_superstep(label);
    // Validate the WHOLE active set (CostBackend parity): every worker
    // sees the same ids, so every worker reaches the same verdict.
    std::uint64_t previous = 0;
    bool first = true;
    for (const std::uint64_t r : active) {
      if (r >= v_ || (!first && r <= previous)) {
        in_superstep_ = false;
        throw std::invalid_argument(
            "DistributedBackend: sparse active set must be strictly "
            "increasing VP ids");
      }
      previous = r;
      first = false;
    }
    for (const std::uint64_t r : active) {
      if (r < first_ || r >= last_) continue;
      VpRef vp(this, r);
      body(vp);
    }
    end_superstep();
  }

  /// Ship the end-of-program frame; called by the worker driver after the
  /// program returns normally.
  void finish();

 private:
  friend class VpRef;

  void begin_superstep(unsigned label);
  /// Ship this worker's event block as one frame and wait for the
  /// coordinator's barrier ack.
  void end_superstep();

  void record(std::uint64_t src, std::uint64_t dst, std::uint64_t count,
              bool dummy) {
    if (dst >= v_) {
      throw std::out_of_range(
          "DistributedBackend: destination VP out of range");
    }
    if (((src ^ dst) >> breach_shift_) != 0) {
      throw ClusterViolation("DistributedBackend: message leaves the "
                             "sender's " +
                             std::to_string(label_) +
                             "-cluster (src=" + std::to_string(src) +
                             ", dst=" + std::to_string(dst) + ")");
    }
    block_.push(src, dst, count, dummy);
  }

  unsigned log_v_;
  std::uint64_t v_;
  std::uint64_t first_;
  std::uint64_t last_;
  Channel* channel_;
  MergedStep block_;  ///< this worker's events of the open superstep
  std::vector<std::uint8_t> frame_;  ///< encoded outgoing frame, reused
  bool in_superstep_ = false;
  unsigned label_ = 0;
  unsigned breach_shift_ = 0;
};

/// Coordinator entry point: fork `config`-many workers over the selected
/// transport, run `program` in each, merge every superstep block, and
/// return the merged trace (routed through the .nbt wire image). When
/// `measure` is non-null it receives the per-superstep wall-clock column;
/// when `capture` is non-null it receives the merged global event blocks
/// (ascending sender order — RecordBackend-identical).
///
/// Worker-side program exceptions are re-thrown here with their original
/// type (invalid_argument / out_of_range / ClusterViolation / logic_error /
/// runtime_error) and message; a worker dying mid-protocol surfaces as
/// std::runtime_error.
[[nodiscard]] Trace run_distributed(
    std::uint64_t v, const DistConfig& config, Measurement* measure,
    std::vector<MergedStep>* capture,
    const std::function<void(DistributedBackend&)>& program);

}  // namespace nobl::dist
