// Tracked values for taint-style abstract interpretation (the audit layer).
//
// Tainted<T> wraps a machine value with one bit of provenance: whether the
// value is influenced by program *input* (payload data). Kernel inputs are
// tainted at injection (source/source_all); arithmetic merges taint into its
// result; comparisons produce Tainted<bool>, whose contextual conversion to
// a raw bool is a *declassification* — the moment payload data starts
// steering control flow — recorded on a thread-local sink that the audit
// backend (audit/backend.hpp) drains at superstep boundaries.
//
// The declassification sink is the teeth of the analysis: a hand-written
// data-dependent program needs no special annotations to be caught, because
// any raw branch on payload-derived data (`if (x < y)`, std::sort with the
// default comparator, indexing a container with a payload-derived index via
// dep::index) necessarily crosses the Tainted<bool>/declassify() boundary.
// Conversely the dep:: helpers (util/dep.hpp) give oblivious kernels
// payload-safe spellings of value-order operations — compare-exchange,
// payload-segment sorting, rank computation — that keep results
// payload-typed and therefore event-free.
//
// The wrapper is deliberately transparent: implicit construction from a raw
// T (untainted — program constants stay clean), the full arithmetic and
// comparison surface including mixed tracked/raw operands, and value
// semantics throughout, so the value-generic kernels under src/algorithms/
// instantiate with Tainted payloads without textual change.
#pragma once

#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/dep.hpp"
#include "util/matrix.hpp"

namespace nobl::audit {

namespace taint_detail {

/// The per-thread declassification counter. Thread-local because registry
/// runners may execute under the parallel engine elsewhere in the process;
/// the audit backend itself drives bodies on one thread.
inline std::uint64_t& pending() noexcept {
  thread_local std::uint64_t count = 0;
  return count;
}

}  // namespace taint_detail

/// Record one declassification event on the calling thread's sink.
inline void note_declassify() noexcept { ++taint_detail::pending(); }

/// Events recorded since the last take_declassifications().
[[nodiscard]] inline std::uint64_t pending_declassifications() noexcept {
  return taint_detail::pending();
}

/// Drain the sink, returning the drained count.
inline std::uint64_t take_declassifications() noexcept {
  std::uint64_t& count = taint_detail::pending();
  const std::uint64_t drained = count;
  count = 0;
  return drained;
}

template <typename T>
class Tainted;

namespace taint_detail {

template <typename T>
struct is_tainted : std::false_type {};
template <typename T>
struct is_tainted<Tainted<T>> : std::true_type {};
template <typename T>
inline constexpr bool is_tainted_v = is_tainted<std::decay_t<T>>::value;

}  // namespace taint_detail

/// A machine value of type T carrying an input-influence bit.
template <typename T>
class Tainted {
 public:
  using raw_type = T;

  constexpr Tainted() = default;
  // NOLINTNEXTLINE(runtime/explicit): raw literals enter untainted by design
  constexpr Tainted(T value) : value_(std::move(value)) {}
  constexpr Tainted(T value, bool tainted)
      : value_(std::move(value)), tainted_(tainted) {}

  [[nodiscard]] constexpr const T& raw() const noexcept { return value_; }
  [[nodiscard]] constexpr bool tainted() const noexcept { return tainted_; }

  /// Collapse to the raw value, recording a declassification event when the
  /// value is tainted. This is the only sanctioned tracked -> raw door; the
  /// audit backend attributes the event to the enclosing (or next) superstep.
  [[nodiscard]] T declassify() const {
    if (tainted_) note_declassify();
    return value_;
  }

  /// Contextual conversion of a tracked bool — `if (a < b)` on tracked
  /// operands lands here — is a declassification like any other.
  explicit operator bool() const
    requires std::same_as<T, bool>
  {
    if (tainted_) note_declassify();
    return value_;
  }

  [[nodiscard]] constexpr Tainted operator-() const {
    return Tainted(static_cast<T>(-value_), tainted_);
  }

  template <typename U>
  constexpr Tainted& operator+=(const U& other) {
    assign(*this + other);
    return *this;
  }
  template <typename U>
  constexpr Tainted& operator-=(const U& other) {
    assign(*this - other);
    return *this;
  }
  template <typename U>
  constexpr Tainted& operator*=(const U& other) {
    assign(*this * other);
    return *this;
  }

 private:
  template <typename R>
  constexpr void assign(const Tainted<R>& result) {
    value_ = static_cast<T>(result.raw());
    tainted_ = result.tainted();
  }

  T value_{};
  bool tainted_ = false;
};

// Binary arithmetic: tracked op tracked merges taint; mixed tracked/raw
// operands keep the tracked side's taint. The raw-operand overloads are
// constrained so deduction never races the tracked/tracked form.
#define NOBL_AUDIT_TAINT_BINARY_OP(op)                                        \
  template <typename A, typename B>                                           \
  [[nodiscard]] constexpr auto operator op(const Tainted<A>& a,               \
                                           const Tainted<B>& b)               \
      ->Tainted<decltype(a.raw() op b.raw())> {                               \
    return {a.raw() op b.raw(), a.tainted() || b.tainted()};                  \
  }                                                                           \
  template <typename A, typename B>                                           \
    requires(!taint_detail::is_tainted_v<B>)                                  \
  [[nodiscard]] constexpr auto operator op(const Tainted<A>& a, const B& b)   \
      ->Tainted<decltype(a.raw() op b)> {                                     \
    return {a.raw() op b, a.tainted()};                                       \
  }                                                                           \
  template <typename A, typename B>                                           \
    requires(!taint_detail::is_tainted_v<A>)                                  \
  [[nodiscard]] constexpr auto operator op(const A& a, const Tainted<B>& b)   \
      ->Tainted<decltype(a op b.raw())> {                                     \
    return {a op b.raw(), b.tainted()};                                       \
  }

NOBL_AUDIT_TAINT_BINARY_OP(+)
NOBL_AUDIT_TAINT_BINARY_OP(-)
NOBL_AUDIT_TAINT_BINARY_OP(*)
NOBL_AUDIT_TAINT_BINARY_OP(/)
NOBL_AUDIT_TAINT_BINARY_OP(%)
NOBL_AUDIT_TAINT_BINARY_OP(^)
NOBL_AUDIT_TAINT_BINARY_OP(&)
NOBL_AUDIT_TAINT_BINARY_OP(|)

#undef NOBL_AUDIT_TAINT_BINARY_OP

// Comparisons yield a *tracked* bool; branching on it declassifies.
#define NOBL_AUDIT_TAINT_COMPARE_OP(op)                                       \
  template <typename A, typename B>                                           \
  [[nodiscard]] constexpr auto operator op(const Tainted<A>& a,               \
                                           const Tainted<B>& b)               \
      ->Tainted<decltype(a.raw() op b.raw())> {                               \
    return {a.raw() op b.raw(), a.tainted() || b.tainted()};                  \
  }                                                                           \
  template <typename A, typename B>                                           \
    requires(!taint_detail::is_tainted_v<B>)                                  \
  [[nodiscard]] constexpr auto operator op(const Tainted<A>& a, const B& b)   \
      ->Tainted<decltype(a.raw() op b)> {                                     \
    return {a.raw() op b, a.tainted()};                                       \
  }                                                                           \
  template <typename A, typename B>                                           \
    requires(!taint_detail::is_tainted_v<A>)                                  \
  [[nodiscard]] constexpr auto operator op(const A& a, const Tainted<B>& b)   \
      ->Tainted<decltype(a op b.raw())> {                                     \
    return {a op b.raw(), b.tainted()};                                       \
  }

NOBL_AUDIT_TAINT_COMPARE_OP(==)
NOBL_AUDIT_TAINT_COMPARE_OP(!=)
NOBL_AUDIT_TAINT_COMPARE_OP(<)
NOBL_AUDIT_TAINT_COMPARE_OP(<=)
NOBL_AUDIT_TAINT_COMPARE_OP(>)
NOBL_AUDIT_TAINT_COMPARE_OP(>=)

#undef NOBL_AUDIT_TAINT_COMPARE_OP

/// Taint one input value at the injection boundary.
template <typename T>
[[nodiscard]] Tainted<T> source(const T& value) {
  return Tainted<T>(value, true);
}

/// Taint a whole input vector at the injection boundary.
template <typename T>
[[nodiscard]] std::vector<Tainted<T>> source_all(const std::vector<T>& values) {
  std::vector<Tainted<T>> tracked;
  tracked.reserve(values.size());
  for (const T& value : values) tracked.push_back(source(value));
  return tracked;
}

/// Taint every element of an input matrix at the injection boundary.
template <typename T>
[[nodiscard]] Matrix<Tainted<T>> source_all(const Matrix<T>& values) {
  Matrix<Tainted<T>> tracked(values.rows(), values.cols());
  for (std::size_t i = 0; i < values.rows(); ++i) {
    for (std::size_t j = 0; j < values.cols(); ++j) {
      tracked(i, j) = source(values(i, j));
    }
  }
  return tracked;
}

}  // namespace nobl::audit

namespace nobl::dep {

template <typename T>
inline constexpr bool is_tracked_v<audit::Tainted<T>> = true;

template <typename T>
struct index_type<audit::Tainted<T>> {
  using type = audit::Tainted<std::uint64_t>;
};

}  // namespace nobl::dep
