// The specification model M(v): a deterministic superstep simulator.
//
// Section 2 of the paper defines M(v) as v processing elements with the RAM
// instruction set plus sync(i) / send(m, q) / receive(). We adopt the
// host-driven equivalent formulation the paper itself uses for analysis: the
// execution is a sequence of labeled supersteps, and in an i-superstep each
// processing element may only message peers sharing its i most significant
// index bits. The simulator
//
//   * runs the superstep body once per virtual processor (in index order
//     under the sequential engine; see below for the parallel engine),
//   * routes real message payloads into the recipients' next-superstep
//     inboxes (delivery order = sender index, then send order; delivery
//     walks only the VPs that sent and the inboxes they fill, two-pass —
//     count per destination, reserve once, fill — so the sync never
//     reallocates mid-merge and costs the traffic, not v),
//   * enforces the cluster-containment rule (ClusterViolation on breach),
//   * records the exact degree of the superstep at every folding 2^j
//     (see bsp/trace.hpp), including "dummy" messages — the paper's device
//     for making algorithms (Θ(1), p)-wise without touching their state.
//
// Because the superstep sequence is issued by the host, every algorithm
// written against this API is *static* in the paper's sense: the number,
// order and labels of supersteps depend only on the input size.
//
// Execution engines. An ExecutionPolicy passed at construction selects how
// superstep bodies are driven:
//
//   Sequential — bodies run inline, in VP index order (the reference
//     semantics).
//   Parallel — the active VPs are partitioned into contiguous chunks over a
//     persistent worker pool. Determinism is preserved structurally, not by
//     locking: every VP stages its sends into a private per-VP outbox, each
//     worker lane counts degrees into its own DegreeAccumulator, and the
//     closing sync (single-threaded) merges outboxes in ascending sender
//     index and folds the lane accumulators with commutative sums. Inbox
//     contents and order, ClusterViolation detection, peak-inbox audit and
//     the recorded Trace are therefore bit-identical to the sequential
//     engine. If several VPs throw in one superstep, the exception of the
//     lowest VP index propagates — the one the sequential engine would have
//     hit first.
//
// Contract for parallel superstep bodies: a body may freely read host state
// and write VP-private slots (values[vp.id()], state[vp.id()], disjoint
// permutation targets, ...), but must not write host state shared with other
// active VPs of the same superstep. All algorithms in this repository
// conform.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <limits>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bsp/execution.hpp"
#include "bsp/trace.hpp"
#include "util/bits.hpp"
#include "util/worker_pool.hpp"

namespace nobl {

/// Thrown when an i-superstep sends a message outside the sender's i-cluster.
class ClusterViolation : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

/// A delivered message: sender index plus payload.
template <typename Payload>
struct Message {
  std::uint64_t src = 0;
  Payload data{};
};

template <typename Payload>
class Machine;

/// Per-VP view handed to the superstep body: identity, inbox, send primitives.
template <typename Payload>
class Vp {
 public:
  using MessageT = Message<Payload>;

  /// This virtual processor's index r, 0 <= r < v.
  [[nodiscard]] std::uint64_t id() const noexcept { return id_; }
  /// Machine size v.
  [[nodiscard]] std::uint64_t v() const noexcept { return machine_->v(); }
  [[nodiscard]] unsigned log_v() const noexcept { return machine_->log_v(); }

  /// Messages delivered at the sync that opened this superstep (i.e. all
  /// messages sent to this VP during the previous superstep).
  [[nodiscard]] const std::vector<MessageT>& inbox() const noexcept {
    return machine_->inbox_[id_];
  }

  /// send(m, q) of Section 2. The destination must lie in the sender's
  /// i-cluster, where i is the current superstep's label.
  void send(std::uint64_t dst, Payload data) {
    machine_->enqueue(id_, lane_, dst, std::move(data));
  }

  /// Dummy traffic: counts toward degrees (and therefore wiseness) exactly
  /// like `count` unit messages, but carries no payload and is not delivered.
  void send_dummy(std::uint64_t dst, std::uint64_t count = 1) {
    machine_->enqueue_dummy(id_, lane_, dst, count);
  }

 private:
  friend class Machine<Payload>;
  Vp(Machine<Payload>* machine, std::uint64_t id, unsigned lane)
      : machine_(machine), id_(id), lane_(lane) {}

  Machine<Payload>* machine_;
  std::uint64_t id_;
  unsigned lane_;  ///< worker lane whose DegreeAccumulator this VP charges
};

template <typename Payload>
class Machine {
 public:
  using MessageT = Message<Payload>;

  /// Machine models the delivering half of the Backend concept
  /// (bsp/backend.hpp): programs may read payloads back — bk.inbox(r)
  /// between supersteps — inside `if constexpr (Backend::delivers)` regions.
  static constexpr bool delivers = true;

  /// Create an M(v). v must be a power of two (Section 2's assumption).
  explicit Machine(std::uint64_t v,
                   ExecutionPolicy policy = ExecutionPolicy::sequential())
      : log_v_(log2_exact(v)), v_(v), policy_(policy), trace_(log_v_) {
    if (policy_.mode == ExecutionPolicy::Mode::kParallel &&
        policy_.num_threads == 0) {
      throw std::invalid_argument("Machine: parallel policy needs >= 1 thread");
    }
    inbox_.resize(v_);
    outbox_.resize(v_);
    inbox_count_.resize(v_);
    if (policy_.is_parallel()) {
      pool_ = std::make_unique<WorkerPool>(policy_.num_threads);
    }
    const unsigned lanes = pool_ ? pool_->size() : 1;
    lanes_.reserve(lanes);
    for (unsigned w = 0; w < lanes; ++w) lanes_.emplace_back(log_v_);
    senders_.resize(lanes);
  }

  [[nodiscard]] std::uint64_t v() const noexcept { return v_; }
  [[nodiscard]] unsigned log_v() const noexcept { return log_v_; }
  [[nodiscard]] const ExecutionPolicy& policy() const noexcept {
    return policy_;
  }
  [[nodiscard]] const Trace& trace() const noexcept { return trace_; }

  /// Execute one i-superstep: `body(vp)` runs for every VP, then the closing
  /// sync(i) delivers all messages sent during the body.
  template <typename Body>
  void superstep(unsigned label, Body&& body) {
    superstep_range(label, 0, v_, std::forward<Body>(body));
  }

  /// Same as superstep(), but runs the body only for VPs in [first, last).
  /// Idle VPs still take part in the barrier; this is purely a simulator
  /// fast-path for supersteps whose active set is known to be a range.
  template <typename Body>
  void superstep_range(unsigned label, std::uint64_t first, std::uint64_t last,
                       Body&& body) {
    begin_superstep(label);
    run_bodies(
        first >= last ? 0 : last - first,
        [first](std::uint64_t pos) { return first + pos; },
        std::forward<Body>(body));
    end_superstep();
  }

  /// Same as superstep(), but runs the body only for the listed VPs (which
  /// must be strictly increasing, for deterministic delivery order). Used by
  /// schedules whose active set per superstep is sparse, e.g. the stencil
  /// diamond phases where most submachines hold dummy diamonds.
  template <typename Body>
  void superstep_sparse(unsigned label, std::span<const std::uint64_t> active,
                        Body&& body) {
    begin_superstep(label);
    std::uint64_t previous = 0;
    bool first = true;
    for (const std::uint64_t r : active) {
      if (r >= v_ || (!first && r <= previous)) {
        in_superstep_ = false;
        throw std::invalid_argument(
            "Machine: sparse active set must be strictly increasing VP ids");
      }
      previous = r;
      first = false;
    }
    run_bodies(
        active.size(), [active](std::uint64_t pos) { return active[pos]; },
        std::forward<Body>(body));
    end_superstep();
  }

  /// Read access to a VP's current inbox between supersteps (used to extract
  /// results after the final sync).
  [[nodiscard]] const std::vector<MessageT>& inbox(std::uint64_t vp) const {
    return inbox_.at(vp);
  }

  /// Peak number of messages delivered to any single VP at any barrier —
  /// the communication-buffer component of a VP's memory footprint.
  /// Section 6 lists memory-constrained evaluation as future work; this
  /// audit is the hook for studying it (cf. the space-bounded schedulers of
  /// Chowdhury et al. / Simhadri et al.).
  [[nodiscard]] std::uint64_t peak_inbox_messages() const noexcept {
    return peak_inbox_;
  }

 private:
  friend class Vp<Payload>;

  /// A send staged during the running superstep, private to its sender.
  struct Staged {
    std::uint64_t dst;
    Payload data;
  };

  void begin_superstep(unsigned label) {
    if (label >= trace_.label_bound()) {
      throw std::invalid_argument("Machine: superstep label out of range");
    }
    if (in_superstep_) {
      throw std::logic_error("Machine: nested superstep");
    }
    in_superstep_ = true;
    label_ = label;
    record_.label = label;
    record_.degree.assign(log_v_ + 1, 0);
  }

  /// Drive body(vp) over the `count` active VPs, where id_of(pos) maps the
  /// position in the active set to a VP index. Sequential engine (or tiny
  /// active sets): inline, in order. Parallel engine: contiguous chunks of
  /// the active set per worker, each worker charging its own lane; the
  /// lowest-VP exception wins, matching what sequential execution would
  /// have thrown first. On a throw the other workers stop at their next VP
  /// boundary — a throwing superstep leaves the machine unusable either
  /// way, but bodies already in flight may have touched host state the
  /// sequential engine would not have reached.
  template <typename IdOf, typename Body>
  void run_bodies(std::uint64_t count, IdOf&& id_of, Body&& body) {
    if (!pool_ || count < 2) {
      for (std::uint64_t pos = 0; pos < count; ++pos) {
        Vp<Payload> vp(this, id_of(pos), 0);
        body(vp);
        note_sender(vp);
      }
      return;
    }
    const unsigned workers = pool_->size();
    const std::uint64_t chunk = (count + workers - 1) / workers;
    // One slot per worker: the lowest active position whose body threw.
    std::vector<std::uint64_t> error_pos(
        workers, std::numeric_limits<std::uint64_t>::max());
    std::vector<std::exception_ptr> error(workers);
    std::atomic<bool> aborted{false};
    pool_->run([&](unsigned w) {
      const std::uint64_t lo = std::min<std::uint64_t>(w * chunk, count);
      const std::uint64_t hi = std::min<std::uint64_t>(lo + chunk, count);
      for (std::uint64_t pos = lo; pos < hi; ++pos) {
        if (aborted.load(std::memory_order_relaxed)) return;
        try {
          Vp<Payload> vp(this, id_of(pos), w);
          body(vp);
          note_sender(vp);
        } catch (...) {
          error_pos[w] = pos;
          error[w] = std::current_exception();
          aborted.store(true, std::memory_order_relaxed);
          return;
        }
      }
    });
    unsigned first = workers;
    for (unsigned w = 0; w < workers; ++w) {
      if (error[w] &&
          (first == workers || error_pos[w] < error_pos[first])) {
        first = w;
      }
    }
    if (first != workers) std::rethrow_exception(error[first]);
  }

  /// After vp's body: list it for delivery if it staged a send. Once per
  /// VP, not per send: a per-send check measurably slows dense supersteps.
  void note_sender(const Vp<Payload>& vp) {
    if (!outbox_[vp.id_].empty()) senders_[vp.lane_].push_back(vp.id_);
  }

  void end_superstep() {
    // Fold the worker lanes' degree counters into lane 0 (commutative sums,
    // so the result is independent of how VPs were scheduled), then turn
    // them into this superstep's degree vector.
    for (std::size_t w = 1; w < lanes_.size(); ++w) lanes_[0].absorb(lanes_[w]);
    lanes_[0].finalize_into(record_);
    trace_.append(std::move(record_));
    record_ = SuperstepRecord{};

    // Deliver: staged sends become the next superstep's inboxes. Only the
    // VPs that staged a send are walked — each lane lists its senders in
    // ascending index and the lanes hold ascending chunks, so the lanes in
    // order give ascending sender order (each outbox already holds its
    // sender's messages in send order). Two passes: count per-destination
    // sizes so every inbox grows exactly once, then fill. Only the inboxes
    // the previous sync filled need clearing; the rest are empty.
    for (const std::uint64_t r : filled_) inbox_[r].clear();
    filled_.clear();
    for (const auto& senders : senders_) {
      for (const std::uint64_t r : senders) {
        for (const Staged& s : outbox_[r]) {
          if (inbox_count_[s.dst]++ == 0) filled_.push_back(s.dst);
        }
      }
    }
    for (const std::uint64_t r : filled_) {
      inbox_[r].reserve(inbox_count_[r]);
      peak_inbox_ = std::max(peak_inbox_, inbox_count_[r]);
      inbox_count_[r] = 0;
    }
    for (auto& senders : senders_) {
      for (const std::uint64_t r : senders) {
        for (Staged& s : outbox_[r]) {
          inbox_[s.dst].push_back(MessageT{r, std::move(s.data)});
        }
        outbox_[r].clear();
      }
      senders.clear();
    }
    in_superstep_ = false;
  }

  void check_cluster(std::uint64_t src, std::uint64_t dst) const {
    if (dst >= v_) {
      throw std::out_of_range("Machine: destination VP out of range");
    }
    if (shared_msb(src, dst, log_v_) < label_) {
      throw ClusterViolation(
          "Machine: message leaves the sender's " + std::to_string(label_) +
          "-cluster (src=" + std::to_string(src) +
          ", dst=" + std::to_string(dst) + ")");
    }
  }

  void enqueue(std::uint64_t src, unsigned lane, std::uint64_t dst,
               Payload data) {
    if (!in_superstep_) throw std::logic_error("Machine: send outside superstep");
    check_cluster(src, dst);
    lanes_[lane].count(src, dst, 1);
    outbox_[src].push_back(Staged{dst, std::move(data)});
  }

  void enqueue_dummy(std::uint64_t src, unsigned lane, std::uint64_t dst,
                     std::uint64_t count) {
    if (!in_superstep_) throw std::logic_error("Machine: send outside superstep");
    if (count == 0) return;
    check_cluster(src, dst);
    lanes_[lane].count(src, dst, count);
  }

  unsigned log_v_;
  std::uint64_t v_;
  ExecutionPolicy policy_;
  Trace trace_;
  std::uint64_t peak_inbox_ = 0;

  std::vector<std::vector<MessageT>> inbox_;
  /// outbox_[r]: messages VP r staged this superstep, in send order. Only
  /// the owning VP touches it during the body; the sync merges and clears.
  std::vector<std::vector<Staged>> outbox_;
  /// Per-destination delivery sizes of the running sync (first pass);
  /// zero again once the sync is done.
  std::vector<std::uint64_t> inbox_count_;
  /// VPs whose inbox the last sync filled, in first-delivery order.
  std::vector<std::uint64_t> filled_;

  std::unique_ptr<WorkerPool> pool_;  ///< null under the sequential engine
  std::vector<DegreeAccumulator> lanes_;  ///< one per worker (1 if sequential)
  /// senders_[w]: VPs run by lane w that staged a send this superstep, in
  /// ascending index (note_sender appends each after its body).
  std::vector<std::vector<std::uint64_t>> senders_;

  bool in_superstep_ = false;
  unsigned label_ = 0;
  SuperstepRecord record_;
};

}  // namespace nobl
