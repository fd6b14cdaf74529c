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
//     inboxes (delivery order = sender index, then send order). Sends are
//     staged flat, in send order; the sync lays the next inboxes out in one
//     flat mail array, two-pass — count per destination, then place — so
//     it costs the traffic, not v,
//   * enforces the superstep rules of bsp/superstep.hpp, cluster
//     containment among them (ClusterViolation on breach),
//   * records the exact degree of the superstep at every folding 2^j
//     (see bsp/trace.hpp), including "dummy" messages — the paper's device
//     for making algorithms (Θ(1), p)-wise without touching their state.
//
// Machine<void> is the trace-only simulator. It keeps the superstep drivers,
// the rule checks, the per-lane degree accumulators and both engines, but
// routes nothing: it has no staging, no mail array and no inboxes, and
// `delivers` is false, so programs take their host-mirror paths as under
// CostBackend. Vp<void>::send accepts any payload and drops it unread. A run
// that only needs the trace (every registry runner) uses it.
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
//     locking: each worker lane stages its VPs' sends in a private buffer
//     and counts degrees into its own DegreeAccumulator, and the closing
//     sync (single-threaded) reads the lanes' buffers in lane order — which
//     is ascending sender index, the lanes holding ascending chunks — and
//     folds the lane accumulators with commutative sums. Inbox
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
#include <type_traits>
#include <utility>
#include <vector>

#include "bsp/execution.hpp"
#include "bsp/superstep.hpp"
#include "bsp/trace.hpp"
#include "util/bits.hpp"
#include "util/worker_pool.hpp"

namespace nobl {

/// A delivered message: sender index plus payload.
template <typename Payload>
struct Message {
  std::uint64_t src = 0;
  Payload data{};
};

/// The payload parameter of Vp<void>::send: any payload converts to it and
/// is dropped unread.
struct DroppedPayload {
  template <typename T>
  // NOLINTNEXTLINE(runtime/explicit): deliberate converting constructor
  DroppedPayload(T&& /*payload*/) noexcept {}
};

template <typename Payload>
class Machine;

/// Per-VP view handed to the superstep body: identity, inbox, send primitives.
template <typename Payload>
class Vp {
 public:
  using MessageT = Message<Payload>;
  using SendPayload =
      std::conditional_t<std::is_void_v<Payload>, DroppedPayload, Payload>;

  /// This virtual processor's index r, 0 <= r < v.
  [[nodiscard]] std::uint64_t id() const noexcept { return id_; }
  /// Machine size v.
  [[nodiscard]] std::uint64_t v() const noexcept { return machine_->v(); }
  [[nodiscard]] unsigned log_v() const noexcept { return machine_->log_v(); }

  /// Messages delivered at the sync that opened this superstep (i.e. all
  /// messages sent to this VP during the previous superstep).
  [[nodiscard]] std::span<const MessageT> inbox() const noexcept
    requires(!std::is_void_v<Payload>)
  {
    return machine_->inbox_of(id_);
  }

  /// send(m, q) of Section 2. The destination must lie in the sender's
  /// i-cluster, where i is the current superstep's label.
  void send(std::uint64_t dst, SendPayload data) {
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
  unsigned lane_;  ///< worker lane that counts and stages this VP's sends
};

template <typename Payload>
class Machine : public SuperstepDriver<Machine<Payload>> {
 public:
  using MessageT = Message<Payload>;

  /// Machine<Payload> models the delivering half of the Backend concept
  /// (bsp/backend.hpp): programs may read payloads back — bk.inbox(r)
  /// between supersteps — inside `if constexpr (Backend::delivers)` regions.
  /// Machine<void> delivers nothing (file comment).
  static constexpr bool delivers = !std::is_void_v<Payload>;

  /// Create an M(v). v must be a power of two (Section 2's assumption).
  explicit Machine(std::uint64_t v,
                   ExecutionPolicy policy = ExecutionPolicy::sequential())
      : SuperstepDriver<Machine>(v), policy_(policy), trace_(this->log_v()) {
    if (this->log_v() > 32) {
      throw std::invalid_argument("Machine: v above 2^32");
    }
    if (policy_.mode == ExecutionPolicy::Mode::kParallel &&
        policy_.num_threads == 0) {
      throw std::invalid_argument("Machine: parallel policy needs >= 1 thread");
    }
    if constexpr (delivers) mail_.box.resize(v);
    if (policy_.is_parallel()) {
      pool_ = std::make_unique<WorkerPool>(policy_.num_threads);
    }
    const unsigned lanes = pool_ ? pool_->size() : 1;
    lanes_.reserve(lanes);
    for (unsigned w = 0; w < lanes; ++w) lanes_.emplace_back(this->log_v());
  }

  [[nodiscard]] const Trace& trace() const noexcept { return trace_; }
  /// Hand the recorded trace out by move; the machine is spent afterwards.
  [[nodiscard]] Trace take_trace() && noexcept { return std::move(trace_); }

  // superstep / superstep_range / superstep_sparse come from
  // SuperstepDriver (bsp/superstep.hpp): body(vp) runs for every active VP,
  // then the closing sync(i) delivers all messages sent during the bodies.
  // Idle VPs still take part in the barrier.

  /// Read access to a VP's current inbox between supersteps (used to extract
  /// results after the final sync). The view stays valid until the next
  /// sync. Throws std::out_of_range for vp >= v.
  [[nodiscard]] std::span<const MessageT> inbox(std::uint64_t vp) const
    requires delivers
  {
    if (vp >= this->v()) {
      throw std::out_of_range("Machine: inbox VP out of range");
    }
    return inbox_of(vp);
  }

  /// Peak number of messages delivered to any single VP at any barrier —
  /// the communication-buffer component of a VP's memory footprint.
  /// Section 6 lists memory-constrained evaluation as future work; this
  /// audit is the hook for studying it (cf. the space-bounded schedulers of
  /// Chowdhury et al. / Simhadri et al.).
  [[nodiscard]] std::uint64_t peak_inbox_messages() const noexcept
    requires delivers
  {
    return mail_.peak_inbox;
  }

 private:
  friend class Vp<Payload>;
  friend class SuperstepDriver<Machine>;
  static constexpr const char* kName = "Machine";

  /// A send staged during the running superstep. VP ids fit 32 bits (the
  /// constructor caps v), which keeps a staged send as small as a delivered
  /// one.
  struct Staged {
    std::uint32_t src;
    std::uint32_t dst;
    Payload data;
  };

  /// A lane's sends, in execution order. A lane runs an ascending chunk of
  /// the active VPs, so its sends are in (sender index, send order).
  struct Outbox {
    std::vector<Staged> staged;
    /// Sends this lane staged in the previous superstep.
    std::size_t last_staged = 0;
  };

  /// What Machine<void> keeps in place of an Outbox or the Mail.
  struct NoMail {};

  /// One worker lane: its degree counters and, when the machine delivers,
  /// its outbox. Aligned so that two workers never write the same cache
  /// line.
  struct alignas(64) Lane {
    explicit Lane(unsigned log_v) : acc(log_v) {}
    DegreeAccumulator acc;
    [[no_unique_address]] std::conditional_t<delivers, Outbox, NoMail> out;
  };

  /// A VP's inbox: messages[begin, begin + count). {0, 0} unless the last
  /// sync delivered to the VP.
  struct Box {
    std::uint64_t begin = 0;
    std::uint64_t count = 0;
  };

  /// The delivered side of a delivering machine.
  struct Mail {
    /// Every message the last sync delivered, grouped by recipient.
    std::vector<MessageT> messages;
    /// box[r]: VP r's slice of messages.
    std::vector<Box> box;
    /// VPs whose inbox the last sync filled, in first-delivery order.
    std::vector<std::uint64_t> filled;
    std::uint64_t peak_inbox = 0;
  };

  [[nodiscard]] std::span<const MessageT> inbox_of(
      std::uint64_t vp) const noexcept {
    const Box& box = mail_.box[vp];
    return {mail_.messages.data() + box.begin, box.count};
  }

  /// Under the sequential engine a range superstep closes with a
  /// contiguous sweep when the range allows it (bsp/trace.hpp); the
  /// parallel engine's lanes are folded with absorb(), which needs touch
  /// mode.
  template <typename Active>
  void open_superstep(Active active) {
    record_.label = this->label();
    record_.degree.assign(this->log_v() + 1, 0);
    // The staging buffers are released at every sync, so that they hold no
    // memory between supersteps. Supersteps of one phase send alike: sizing
    // them from the previous superstep spares push_back's doubling.
    if constexpr (delivers) {
      for (Lane& lane : lanes_) lane.out.staged.reserve(lane.out.last_staged);
    }
    if constexpr (std::is_same_v<Active, VpRange>) {
      if (!pool_) {
        lanes_[0].acc.open_range(this->label(), active.first, active.last);
      }
    }
  }

  /// Drive body(vp) over the active VPs. Sequential engine (or tiny active
  /// sets): inline, in order. Parallel engine: contiguous chunks of
  /// the active set per worker, each worker charging its own lane; the
  /// lowest-VP exception wins, matching what sequential execution would
  /// have thrown first. On a throw the other workers stop at their next VP
  /// boundary — a throwing superstep leaves the machine unusable either
  /// way, but bodies already in flight may have touched host state the
  /// sequential engine would not have reached.
  template <typename Active, typename Body>
  void run_bodies(Active active, Body& body) {
    const std::uint64_t count = active.size();
    if (!pool_ || count < 2) {
      for (std::uint64_t pos = 0; pos < count; ++pos) {
        Vp<Payload> vp(this, active[pos], 0);
        body(vp);
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
          Vp<Payload> vp(this, active[pos], w);
          body(vp);
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

  void close_superstep() {
    // Fold the worker lanes' degree counters into lane 0 (commutative sums,
    // so the result is independent of how VPs were scheduled), then turn
    // them into this superstep's degree vector.
    for (std::size_t w = 1; w < lanes_.size(); ++w) {
      lanes_[0].acc.absorb(lanes_[w].acc);
    }
    lanes_[0].acc.finalize_into(record_);
    trace_.append(std::move(record_));
    record_ = SuperstepRecord{};
    if constexpr (delivers) deliver();
  }

  /// The staged sends become the next superstep's inboxes, laid out in one
  /// flat array. The lanes in order hold the sends in ascending sender
  /// order, each sender's in send order, which is inbox order. Only the
  /// boxes the previous sync filled need clearing. Then two passes over the
  /// staged sends: count per destination, listing each destination once,
  /// then place each message at its destination's cursor.
  void deliver() {
    for (const std::uint64_t r : mail_.filled) mail_.box[r] = Box{};
    mail_.filled.clear();
    std::size_t total = 0;
    for (const Lane& lane : lanes_) {
      for (const Staged& s : lane.out.staged) {
        if (mail_.box[s.dst].count++ == 0) mail_.filled.push_back(s.dst);
      }
      total += lane.out.staged.size();
    }
    std::uint64_t begin = 0;
    for (const std::uint64_t r : mail_.filled) {
      Box& box = mail_.box[r];
      box.begin = begin;
      begin += box.count;
      mail_.peak_inbox = std::max(mail_.peak_inbox, box.count);
      box.count = 0;
    }
    // Size the mail array to this sync's count. A buffer too small, or more
    // than twice too large, is released before the new one is allocated,
    // so two never coexist.
    std::vector<MessageT>& messages = mail_.messages;
    messages.clear();
    if (total > messages.capacity() || 2 * total < messages.capacity()) {
      std::vector<MessageT>().swap(messages);
    }
    messages.resize(total);
    for (Lane& lane : lanes_) {
      for (Staged& s : lane.out.staged) {
        Box& box = mail_.box[s.dst];
        messages[box.begin + box.count++] = MessageT{s.src, std::move(s.data)};
      }
      lane.out.last_staged = lane.out.staged.size();
      std::vector<Staged>().swap(lane.out.staged);
    }
  }

  void enqueue(std::uint64_t src, unsigned lane, std::uint64_t dst,
               typename Vp<Payload>::SendPayload data) {
    if (!this->in_superstep()) {
      throw std::logic_error("Machine: send outside superstep");
    }
    this->check_send(src, dst);
    Lane& l = lanes_[lane];
    l.acc.count(src, dst, 1);
    if constexpr (delivers) {
      l.out.staged.push_back(Staged{static_cast<std::uint32_t>(src),
                                    static_cast<std::uint32_t>(dst),
                                    std::move(data)});
    }
  }

  void enqueue_dummy(std::uint64_t src, unsigned lane, std::uint64_t dst,
                     std::uint64_t count) {
    if (!this->in_superstep()) {
      throw std::logic_error("Machine: send outside superstep");
    }
    if (count == 0) return;
    this->check_send(src, dst);
    lanes_[lane].acc.count(src, dst, count);
  }

  ExecutionPolicy policy_;
  Trace trace_;
  [[no_unique_address]] std::conditional_t<delivers, Mail, NoMail> mail_;

  std::unique_ptr<WorkerPool> pool_;  ///< null under the sequential engine
  std::vector<Lane> lanes_;  ///< one per worker (1 if sequential)
  SuperstepRecord record_;
};

}  // namespace nobl
