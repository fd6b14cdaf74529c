// Pluggable execution backends for the Program API: the seam between the
// paper's specification model and everything that interprets it.
//
// An algorithm in this repository is a *program*: a callable, templated on a
// Backend type, that emits a sequence of labeled supersteps whose bodies are
// written against the abstract VpContext concept —
//
//   vp.id(), vp.v(), vp.log_v()        identity
//   vp.send(dst, payload)              a real message (delivered only by
//                                      delivering backends)
//   vp.send_dummy(dst, count)          degree-only traffic (§ wiseness)
//
// plus the backend-level superstep drivers
//
//   bk.superstep(label, body)
//   bk.superstep_range(label, first, last, body)
//   bk.superstep_sparse(label, active, body)
//
// and the compile-time predicate `Backend::delivers`. A program must compute
// every destination and message count from host-mirrored state (never from
// delivered payloads), so that the same body sequence produces the same
// communication pattern under every backend; payload *values* may flow
// through messages and be read back — via bk.inbox(r) between supersteps —
// only inside `if constexpr (Backend::delivers)` regions.
//
// Three backends interpret a program:
//
//   SimulateBackend<Payload> — the full M(v) simulator (bsp/machine.hpp),
//     sequential or parallel engine, payload routing, inboxes, peak-inbox
//     audit. This *is* Machine<Payload>; run_program runs a program on it
//     and hands back the program's output with the trace.
//     vp.inbox() and bk.inbox(r) return a std::span<const Message<Payload>>
//     over the simulator's flat mail array, valid until the next sync.
//     Trace-only runs (run_for_trace, hence every registry runner) use
//     SimulateBackend<void>: the same drivers, rule checks, degree
//     accounting and engines, but no payload is staged or delivered and
//     `delivers` is false.
//
//   CostBackend — drives the same bodies sequentially but intercepts
//     send/send_dummy into DegreeAccumulator bucketing only: no payload
//     storage, no delivery, no inboxes. Pure cost queries (`nobl certify`,
//     wiseness/optimality scans, threshold-gated campaigns) become
//     message-storage-free while producing bit-identical traces.
//
//   RecordBackend — a CostBackend that additionally captures the pattern as
//     a replayable Schedule: per superstep, the (src, dst, count, dummy)
//     events in execution order. Schedules feed conformance oracles and
//     re-derive the trace without re-running the program (replay_trace).
//
// One driver: every backend derives its superstep drivers and its message
// validation from SuperstepDriver (bsp/superstep.hpp), which writes the
// rules of M(v) once, so a program that certifies under CostBackend also
// runs under SimulateBackend, and vice versa, failing alike if it fails.
#pragma once

#include <bit>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "bsp/execution.hpp"
#include "bsp/machine.hpp"
#include "bsp/schedule.hpp"
#include "bsp/superstep.hpp"
#include "bsp/trace.hpp"
#include "dist/backend.hpp"
#include "util/bits.hpp"

namespace nobl {

/// Backend selector carried by CLIs, campaign specs and registry runners.
///
/// kAnalytic is "closed form, else cost" (core/analytic.hpp): registry
/// runners answer it symbolically for kernels whose closed form is exact
/// and run every other kernel under kCost. It is dispatched in the
/// registry layer; run_for_trace itself rejects it because a bare program
/// carries no closed form.
///
/// kDistributed executes the program on real forked worker processes (one
/// per VP cluster; dist/backend.hpp). Each worker ships, over a fork or
/// loopback-TCP channel, the degree vector of a superstep whose clusters
/// fit inside it and the event block of one that crosses workers; the
/// coordinator merges them into a trace bit-identical to the in-process
/// backends, with measured wall-clock per superstep on the side.
enum class BackendKind : std::uint8_t {
  kSimulate,
  kCost,
  kRecord,
  kAnalytic,
  kDistributed
};

/// "simulate" | "cost" | "record" | "analytic" | "distributed".
[[nodiscard]] std::string to_string(BackendKind kind);

/// Inverse of to_string; throws std::invalid_argument listing the valid
/// names on a miss.
[[nodiscard]] BackendKind backend_from_string(const std::string& name);

/// Every backend, in declaration order (registry entries default to this).
[[nodiscard]] const std::vector<BackendKind>& all_backend_kinds();

/// How to execute one specification-model run: which backend interprets the
/// program, and (for the simulating backend) which engine drives VP bodies.
/// Implicitly constructible from an ExecutionPolicy, so `runner(n, policy)`
/// runs the simulator under that engine.
struct RunOptions {
  ExecutionPolicy policy{};
  BackendKind backend = BackendKind::kSimulate;
  /// When non-null and backend == kRecord, run_for_trace copies the
  /// captured Schedule here — the seam `nobl audit` uses to lift a
  /// kernel's communication pattern out of one recorded run. Every other
  /// backend ignores it.
  Schedule* capture = nullptr;
  /// kDistributed only: worker count and transport.
  dist::DistConfig dist{};
  /// kDistributed only: when non-null, receives the measured wall-clock
  /// column (per superstep + total) of the distributed run.
  dist::Measurement* measure = nullptr;

  RunOptions() = default;
  // NOLINTNEXTLINE(runtime/explicit): deliberate converting constructor
  RunOptions(const ExecutionPolicy& p) : policy(p) {}
  // NOLINTNEXTLINE(runtime/explicit): deliberate converting constructor
  RunOptions(BackendKind b) : backend(b) {}
  RunOptions(const ExecutionPolicy& p, BackendKind b)
      : policy(p), backend(b) {}
};

/// The simulating backend is the M(v) machine itself: it already models the
/// whole Backend concept (superstep drivers, Vp handles, trace, inboxes,
/// Machine::delivers). The alias is the API name programs are written
/// against; Machine remains the engine-facing name.
template <typename Payload>
using SimulateBackend = Machine<Payload>;

/// The payload-free counting backend. Bodies run inline, in VP index order
/// (the reference semantics); send/send_dummy collapse to O(1) degree
/// bucketing. trace() is bit-identical to the simulator's by construction:
/// both feed the same (src, dst, count) stream into the same accumulator.
class CostBackend : public SuperstepDriver<CostBackend> {
 public:
  static constexpr bool delivers = false;

  /// The VpContext handle for counting backends. The hot per-send state
  /// (machine size, cluster shift, the accumulator's node arrays and mode,
  /// capture sink) is cached in the handle at construction. Each send bumps
  /// the receiver's leaf and the endpoints' split node in place; the send half
  /// shares its src across the VP's sends, so it accumulates in one
  /// `cross_` counter and flushes into the DegreeAccumulator once per VP
  /// (commit(), called by the superstep driver). The resulting accumulator
  /// state is bit-identical to per-message counting.
  template <bool kCapture>
  class VpRefT {
   public:
    [[nodiscard]] std::uint64_t id() const noexcept { return id_; }
    [[nodiscard]] std::uint64_t v() const noexcept { return v_; }
    [[nodiscard]] unsigned log_v() const noexcept { return log_v_; }

    /// Count a real message. The payload argument is accepted for call-site
    /// compatibility with the simulator and discarded unread — cost runs
    /// never construct message storage.
    template <typename Payload>
    void send(std::uint64_t dst, Payload&&) {
      if (dst >= v_ || leaves_cluster(id_, dst, breach_shift_)) [[unlikely]] {
        backend_->fail_send(id_, dst);
      }
      if (dst != id_) {
        bucket(dst, 1);
      } else {
        ++local_;
      }
      if constexpr (kCapture) {
        capture_->steps.back().push(id_, dst, 1, false);
      }
    }
    void send_dummy(std::uint64_t dst, std::uint64_t count = 1) {
      if (count == 0) return;
      if (dst >= v_ || leaves_cluster(id_, dst, breach_shift_)) [[unlikely]] {
        backend_->fail_send(id_, dst);
      }
      if (dst != id_) {
        bucket(dst, count);
      } else {
        local_ += count;
      }
      if constexpr (kCapture) {
        capture_->steps.back().push(id_, dst, count, true);
      }
    }

   private:
    friend class CostBackend;
    VpRefT(CostBackend* backend, std::uint64_t id)
        : backend_(backend),
          acc_(&backend->acc_),
          capture_(backend->capture_),
          active_data_(backend->acc_.active_data()),
          recv_data_(backend->acc_.recv_data()),
          split_data_(backend->acc_.split_data()),
          id_(id),
          v_(backend->v()),
          ranged_(backend->acc_.ranged()),
          log_v_(backend->log_v()),
          breach_shift_(backend->breach_shift()) {}

    // bucket() and commit() are forced inline so the handle stays in
    // registers: left to the inliner they go out of line in some kernels'
    // drivers, and the stencil kernels' many small supersteps then run
    // about 1.5x slower on this path.
    [[gnu::always_inline]] void bucket(std::uint64_t dst, std::uint64_t count) {
      // The receive and split halves of DegreeAccumulator::count(), through
      // raw node pointers cached at construction (contract on
      // DegreeAccumulator::active_data()). Range mode needs no touch flags.
      cross_ += count;
      const std::uint64_t leaf = v_ + dst;
      if (!ranged_ && active_data_[leaf] == 0) [[unlikely]] {
        active_data_[leaf] = 1;
        acc_->note_touched(leaf);
      }
      recv_data_[leaf] += count;
      split_data_[(v_ + id_) >> std::bit_width(id_ ^ dst)] += count;
    }

    /// Flush the batched send half; the driver calls this exactly once,
    /// after the body returns.
    [[gnu::always_inline]] void commit() {
      acc_->flush_sent(id_, cross_, local_);
    }

    CostBackend* backend_;
    DegreeAccumulator* acc_;
    Schedule* capture_;
    std::uint8_t* active_data_;
    std::uint64_t* recv_data_;
    std::uint64_t* split_data_;
    std::uint64_t id_;
    std::uint64_t v_;
    bool ranged_;  ///< the accumulator's open superstep is in range mode
    unsigned log_v_;
    unsigned breach_shift_;
    std::uint64_t cross_ = 0;  ///< messages sent to other VPs
    std::uint64_t local_ = 0;  ///< messages sent to itself
  };

  /// Create a counting backend for M(v). v must be a power of two.
  explicit CostBackend(std::uint64_t v)
      : SuperstepDriver(v), acc_(log_v()), trace_(log_v()) {}

  [[nodiscard]] const Trace& trace() const noexcept { return trace_; }
  /// Hand the recorded trace out by move; the backend is spent afterwards.
  [[nodiscard]] Trace take_trace() && noexcept { return std::move(trace_); }

 protected:
  /// Derived backends route a non-null `capture` to record every event.
  void set_capture(Schedule* capture) noexcept { capture_ = capture; }

 private:
  friend class SuperstepDriver<CostBackend>;
  static constexpr const char* kName = "CostBackend";

  /// A range superstep closes with a contiguous sweep when the range allows
  /// it (bsp/trace.hpp).
  template <typename Active>
  void open_superstep(Active active) {
    record_.label = label();
    record_.degree.assign(log_v() + 1, 0);
    if (capture_ != nullptr) capture_->steps.emplace_back(label());
    if constexpr (std::is_same_v<Active, VpRange>) {
      acc_.open_range(label(), active.first, active.last);
    }
  }

  template <typename Active, typename Body>
  void run_bodies(Active active, Body& body) {
    if (capture_ == nullptr) {
      run_vps<false>(active, body);
    } else {
      run_vps<true>(active, body);
    }
  }

  template <bool kCapture, typename Active, typename Body>
  void run_vps(Active active, Body& body) {
    for (std::uint64_t pos = 0; pos < active.size(); ++pos) {
      VpRefT<kCapture> vp(this, active[pos]);
      body(vp);
      vp.commit();
    }
  }

  void close_superstep() {
    acc_.finalize_into(record_);
    trace_.append(std::exchange(record_, SuperstepRecord{}));
  }

  DegreeAccumulator acc_;
  Trace trace_;
  Schedule* capture_ = nullptr;
  SuperstepRecord record_;
};

/// A CostBackend that additionally captures the program's communication
/// pattern as a Schedule. schedule().replay_trace() must reproduce trace()
/// bit-for-bit (pinned by tests/bsp/test_backend.cpp).
class RecordBackend : public CostBackend {
 public:
  explicit RecordBackend(std::uint64_t v) : CostBackend(v) {
    schedule_.log_v = log_v();
    set_capture(&schedule_);
  }

  [[nodiscard]] const Schedule& schedule() const noexcept { return schedule_; }

 private:
  Schedule schedule_;
};

/// What run_program hands back: the program's return value and the trace
/// the simulator recorded.
template <typename Output>
struct ProgramRun {
  Output output;
  Trace trace;
};

/// A program that returns nothing leaves only its trace.
template <>
struct ProgramRun<void> {
  Trace trace;
};

/// Run `program` (a callable taking `auto& backend`, typically a lambda
/// calling a kernel's `*_program`) on the simulator SimulateBackend<Payload>
/// of v VPs under `policy`, and return its output with the trace moved out.
/// v must be a power of two (std::invalid_argument otherwise, from the
/// backend).
template <typename Payload, typename ProgramFn>
[[nodiscard]] auto run_program(std::uint64_t v, ProgramFn&& program,
                               ExecutionPolicy policy = {}) {
  SimulateBackend<Payload> backend(v, policy);
  using Output = std::invoke_result_t<ProgramFn&, SimulateBackend<Payload>&>;
  if constexpr (std::is_void_v<Output>) {
    program(backend);
    return ProgramRun<void>{std::move(backend).take_trace()};
  } else {
    Output output = program(backend);
    return ProgramRun<Output>{std::move(output),
                              std::move(backend).take_trace()};
  }
}

/// Run `program` (a callable taking `auto& backend`) on a machine of v VPs
/// under the selected backend and return the recorded trace. The record
/// backend returns the trace re-derived from its Schedule, so every
/// `--backend record` run exercises the record -> replay path end to end.
/// The simulating backend runs as SimulateBackend<void>: only the trace
/// leaves this function, so no payload is routed.
template <typename ProgramFn>
[[nodiscard]] Trace run_for_trace(std::uint64_t v, const RunOptions& options,
                                  ProgramFn&& program) {
  switch (options.backend) {
    case BackendKind::kCost: {
      CostBackend backend(v);
      program(backend);
      return std::move(backend).take_trace();
    }
    case BackendKind::kRecord: {
      RecordBackend backend(v);
      program(backend);
      if (options.capture != nullptr) *options.capture = backend.schedule();
      return backend.schedule().replay_trace();
    }
    case BackendKind::kAnalytic:
      // Only the registry layer can answer analytically: it knows the
      // kernel's closed form. A bare program reaching this point is a
      // plumbing error, not a user error.
      throw std::invalid_argument(
          "run_for_trace: the analytic backend is dispatched by the "
          "algorithm registry (core/analytic.hpp), not by run_for_trace");
    case BackendKind::kDistributed:
      // Type-erase the program: the shard backend is one concrete class,
      // so the fork/merge machinery lives out of line in dist/backend.cpp.
      return dist::run_distributed(
          v, options.dist, options.measure,
          [&program](dist::DistributedBackend& backend) { program(backend); });
    case BackendKind::kSimulate:
    default:
      return run_program<void>(v, program, options.policy).trace;
  }
}

}  // namespace nobl
