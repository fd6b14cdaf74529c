// The superstep rules of M(v), written once for every backend.
//
// Section 2 of the paper defines a legal i-superstep of M(v): the label i
// lies below log v (M(1) keeps label 0 for local steps), supersteps do not
// nest, and every message stays inside its sender's i-cluster — the VPs
// sharing its i most significant index bits. SuperstepDriver owns that
// definition and the three superstep drivers every backend exposes:
//
//   superstep(label, body)                     all VPs: the range [0, v)
//   superstep_range(label, first, last, body)  first <= last <= v
//   superstep_sparse(label, active, body)      strictly increasing ids < v
//
// A driver validates the range or the sparse set, the label and the
// nesting before anything opens, then calls the backend's three hooks:
//
//   open_superstep(active)      open the superstep; label() is set
//   run_bodies(active, body)    run body(vp) over the VPs the backend drives
//   close_superstep()           the closing sync
//
// where `active` is a VpRange or a VpList, both indexable by position. A
// backend's send hook validates each message with check_send(), or tests
// leaves_cluster() inline and calls the cold fail_send() on a hit. Every
// exception's message starts with the backend's `kName` prefix.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>

#include "util/bits.hpp"

namespace nobl {

/// Thrown when an i-superstep sends a message outside the sender's i-cluster.
class ClusterViolation : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

/// Number of superstep labels of M(2^log_v): labels are 0 .. bound - 1
/// (M(1) still has label 0 for local steps).
[[nodiscard]] constexpr unsigned label_bound(unsigned log_v) noexcept {
  return log_v < 1 ? 1 : log_v;
}

/// Whether a message src -> dst leaves its sender's i-cluster, where
/// shift = log v - i: the endpoints differ in one of their top i bits.
[[nodiscard]] constexpr bool leaves_cluster(std::uint64_t src,
                                            std::uint64_t dst,
                                            unsigned shift) noexcept {
  return ((src ^ dst) >> shift) != 0;
}

/// The active VPs of superstep_range: [first, last).
struct VpRange {
  std::uint64_t first = 0;
  std::uint64_t last = 0;

  [[nodiscard]] std::uint64_t size() const noexcept { return last - first; }
  [[nodiscard]] std::uint64_t operator[](std::uint64_t pos) const noexcept {
    return first + pos;
  }
};

/// The active VPs of superstep_sparse: strictly increasing ids.
using VpList = std::span<const std::uint64_t>;

/// CRTP base of every backend (file comment). `Backend` supplies kName and
/// the three hooks, and befriends this class so the hooks can stay private.
template <typename Backend>
class SuperstepDriver {
 public:
  [[nodiscard]] std::uint64_t v() const noexcept { return v_; }
  [[nodiscard]] unsigned log_v() const noexcept { return log_v_; }

  /// An i-superstep over every VP.
  template <typename Body>
  void superstep(unsigned label, Body&& body) {
    superstep_range(label, 0, v_, std::forward<Body>(body));
  }

  /// An i-superstep whose active VPs are [first, last); requires
  /// first <= last <= v (std::invalid_argument otherwise). Idle VPs still
  /// take part in the closing sync.
  template <typename Body>
  void superstep_range(unsigned label, std::uint64_t first, std::uint64_t last,
                       Body&& body) {
    if (first > last || last > v_) {
      fail<std::invalid_argument>("superstep range needs first <= last <= v");
    }
    drive(label, VpRange{first, last}, body);
  }

  /// An i-superstep whose active VPs are the listed ones, which must be
  /// strictly increasing ids below v (std::invalid_argument otherwise), for
  /// a deterministic execution order.
  template <typename Body>
  void superstep_sparse(unsigned label, VpList active, Body&& body) {
    drive(label, active, body);
  }

 protected:
  /// M(v); v must be a power of two.
  explicit SuperstepDriver(std::uint64_t v) : log_v_(log2_exact(v)), v_(v) {}

  [[nodiscard]] bool in_superstep() const noexcept { return in_superstep_; }
  /// The open superstep's label.
  [[nodiscard]] unsigned label() const noexcept { return label_; }
  /// log v - label of the open superstep: leaves_cluster()'s shift.
  [[nodiscard]] unsigned breach_shift() const noexcept { return breach_shift_; }

  /// Validate one message of the open superstep.
  void check_send(std::uint64_t src, std::uint64_t dst) const {
    if (dst >= v_ || leaves_cluster(src, dst, breach_shift_)) [[unlikely]] {
      fail_send(src, dst);
    }
  }

  /// Cold path of check_send: the caller found `dst >= v` or a cluster
  /// breach, and exactly one of the two throws fires.
  [[noreturn]] void fail_send(std::uint64_t src, std::uint64_t dst) const {
    if (dst >= v_) fail<std::out_of_range>("destination VP out of range");
    fail<ClusterViolation>("message leaves the sender's " +
                           std::to_string(label_) +
                           "-cluster (src=" + std::to_string(src) +
                           ", dst=" + std::to_string(dst) + ")");
  }

 private:
  template <typename Error>
  [[noreturn]] static void fail(const std::string& what) {
    throw Error(std::string(Backend::kName) + ": " + what);
  }

  template <typename Active, typename Body>
  void drive(unsigned label, Active active, Body& body) {
    if (label >= label_bound(log_v_)) {
      fail<std::invalid_argument>("superstep label out of range");
    }
    if (in_superstep_) fail<std::logic_error>("nested superstep");
    if constexpr (std::is_same_v<Active, VpList>) {
      for (std::size_t i = 0; i < active.size(); ++i) {
        if (active[i] >= v_ || (i != 0 && active[i] <= active[i - 1])) {
          fail<std::invalid_argument>(
              "sparse active set must be strictly increasing VP ids");
        }
      }
    }
    in_superstep_ = true;
    label_ = label;
    breach_shift_ = log_v_ - label;
    auto& backend = static_cast<Backend&>(*this);
    backend.open_superstep(active);
    backend.run_bodies(active, body);
    backend.close_superstep();
    in_superstep_ = false;
  }

  unsigned log_v_;
  std::uint64_t v_;
  bool in_superstep_ = false;
  unsigned label_ = 0;
  unsigned breach_shift_ = 0;
};

}  // namespace nobl
