// AuditBackend: the non-executing obliviousness analyzer.
//
// The sixth interpreter of the Program IR (after simulate / cost / record /
// analytic / distributed): it drives the same superstep bodies as
// CostBackend — sequentially, payload-free, through the same superstep
// driver and validation (bsp/superstep.hpp) — but instead of degree
// accounting it performs taint-style abstract interpretation of the
// communication structure. A program instantiated with Tainted payloads
// (audit/taint.hpp) runs once; the backend classifies every superstep:
//
//   * tainted destination — a send whose dst is a tracked value carrying
//     taint: the message's endpoint depends on input data;
//   * tainted count — a send_dummy whose burst size carries taint;
//   * control dependence — declassification events (tracked -> raw
//     collapses: branches on tracked comparisons, dep::index) recorded on
//     the thread-local sink since the previous superstep closed; they mark
//     the superstep they precede (or occur inside), because the raw values
//     they produce steer that step's host-mirrored structure: who is active,
//     what the roster holds, how many messages a VP emits.
//
// A kernel is *network-oblivious* in the audited sense iff its report is
// event-free: no step has a tainted destination, a tainted count, or an
// attributed declassification, and nothing declassifies after the last
// superstep. That is precisely the paper's requirement that the
// communication pattern be a function of (n, v) alone.
#pragma once

#include <cstdint>
#include <type_traits>
#include <vector>

#include "audit/taint.hpp"
#include "bsp/superstep.hpp"
#include "util/dep.hpp"

namespace nobl::audit {

/// Per-superstep classification.
struct StepAudit {
  unsigned label = 0;
  std::uint64_t sends = 0;         ///< real send events
  std::uint64_t dummy_bursts = 0;  ///< send_dummy events (count > 0)
  std::uint64_t tainted_destinations = 0;
  std::uint64_t tainted_counts = 0;
  /// Declassifications attributed to this step: pending on the sink when
  /// the step opened (host-phase events) plus those recorded by its bodies.
  std::uint64_t declassifications = 0;

  [[nodiscard]] bool data_dependent() const noexcept {
    return tainted_destinations != 0 || tainted_counts != 0 ||
           declassifications != 0;
  }
};

/// The audit of one program run.
struct AuditReport {
  unsigned log_v = 0;
  std::vector<StepAudit> steps;
  /// Declassifications recorded after the last superstep closed (final
  /// host mirrors that collapse tracked indices, e.g. writing outputs).
  std::uint64_t trailing_declassifications = 0;

  [[nodiscard]] std::uint64_t tainted_destinations() const noexcept {
    std::uint64_t total = 0;
    for (const StepAudit& step : steps) total += step.tainted_destinations;
    return total;
  }
  [[nodiscard]] std::uint64_t tainted_counts() const noexcept {
    std::uint64_t total = 0;
    for (const StepAudit& step : steps) total += step.tainted_counts;
    return total;
  }
  [[nodiscard]] std::uint64_t declassifications() const noexcept {
    std::uint64_t total = trailing_declassifications;
    for (const StepAudit& step : steps) total += step.declassifications;
    return total;
  }
  /// Indices of the data-dependent supersteps.
  [[nodiscard]] std::vector<std::size_t> flagged_steps() const {
    std::vector<std::size_t> flagged;
    for (std::size_t i = 0; i < steps.size(); ++i) {
      if (steps[i].data_dependent()) flagged.push_back(i);
    }
    return flagged;
  }
  /// The audited obliviousness verdict: no step (and no trailing host
  /// phase) shows input influence on the communication structure.
  [[nodiscard]] bool oblivious() const noexcept {
    if (trailing_declassifications != 0) return false;
    for (const StepAudit& step : steps) {
      if (step.data_dependent()) return false;
    }
    return true;
  }
};

/// The taint-interpreting backend. It shares the superstep driver with
/// CostBackend, so a program that audits also certifies, and vice versa.
class AuditBackend : public SuperstepDriver<AuditBackend> {
 public:
  static constexpr bool delivers = false;

  class VpRef {
   public:
    [[nodiscard]] std::uint64_t id() const noexcept { return id_; }
    [[nodiscard]] std::uint64_t v() const noexcept { return backend_->v(); }
    [[nodiscard]] unsigned log_v() const noexcept { return backend_->log_v(); }

    /// Classify and validate a real message. The destination may be a raw
    /// index or a tracked one; tracked-and-tainted destinations flag the
    /// step. Payloads are accepted for call-site compatibility and
    /// discarded — taint flows through host mirrors, not inboxes.
    template <typename Dst, typename Payload>
    void send(const Dst& dst, Payload&&) {
      const std::uint64_t raw_dst = resolve(dst, &StepAudit::tainted_destinations);
      backend_->check_send(id_, raw_dst);
      ++backend_->step_.sends;
    }

    /// Classify and validate a dummy burst; tainted counts flag the step.
    template <typename Dst, typename Count = std::uint64_t>
    void send_dummy(const Dst& dst, const Count& count = Count{1}) {
      const std::uint64_t raw_count = resolve(count, &StepAudit::tainted_counts);
      if (raw_count == 0) return;
      const std::uint64_t raw_dst = resolve(dst, &StepAudit::tainted_destinations);
      backend_->check_send(id_, raw_dst);
      ++backend_->step_.dummy_bursts;
    }

   private:
    friend class AuditBackend;
    VpRef(AuditBackend* backend, std::uint64_t id)
        : backend_(backend), id_(id) {}

    /// Unwrap a possibly-tracked operand; a tainted one bumps `counter` on
    /// the open step. Does NOT declassify: the taint event is attributed
    /// structurally, not through the generic sink.
    template <typename V>
    std::uint64_t resolve(const V& value, std::uint64_t StepAudit::* counter) {
      if constexpr (dep::is_tracked_v<std::decay_t<V>>) {
        if (value.tainted()) ++(backend_->step_.*counter);
        return static_cast<std::uint64_t>(value.raw());
      } else {
        return static_cast<std::uint64_t>(value);
      }
    }

    AuditBackend* backend_;
    std::uint64_t id_;
  };

  /// Create an audit backend for M(v). v must be a power of two. Drains any
  /// stale events off the thread's sink so reports never inherit history.
  explicit AuditBackend(std::uint64_t v) : SuperstepDriver(v) {
    report_.log_v = log_v();
    (void)take_declassifications();
  }

  /// Finish the run: attribute any post-superstep declassifications (final
  /// host mirrors) and return the report. The backend may not drive further
  /// supersteps through the returned snapshot's run.
  [[nodiscard]] AuditReport take_report() {
    report_.trailing_declassifications += take_declassifications();
    return report_;
  }

 private:
  friend class SuperstepDriver<AuditBackend>;
  static constexpr const char* kName = "AuditBackend";

  template <typename Active>
  void open_superstep(Active) {
    step_ = StepAudit{};
    step_.label = label();
    // Host-phase declassifications since the previous barrier shaped THIS
    // step's structure (rosters, per-VP send counts) — attribute them here.
    step_.declassifications = take_declassifications();
  }

  template <typename Active, typename Body>
  void run_bodies(Active active, Body& body) {
    for (std::uint64_t pos = 0; pos < active.size(); ++pos) {
      VpRef vp(this, active[pos]);
      body(vp);
    }
  }

  void close_superstep() {
    // Declassifications inside bodies steer this step's own control flow.
    step_.declassifications += take_declassifications();
    report_.steps.push_back(step_);
  }

  StepAudit step_{};
  AuditReport report_;
};

}  // namespace nobl::audit
