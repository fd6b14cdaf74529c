#include "core/wiseness.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace nobl {
namespace {

void check(const Trace& trace, unsigned log_p) {
  if (log_p == 0 || log_p > trace.log_v()) {
    throw std::out_of_range("wiseness: log_p out of range");
  }
}

}  // namespace

double wiseness_alpha(const Trace& trace, unsigned log_p) {
  check(trace, log_p);
  double alpha = 1.0;
  const double p = static_cast<double>(std::uint64_t{1} << log_p);
  for (unsigned j = 1; j <= log_p; ++j) {
    const double rhs = p / static_cast<double>(std::uint64_t{1} << j) *
                       static_cast<double>(trace.partial_F(j, log_p));
    if (rhs == 0.0) continue;  // vacuous fold
    const double lhs = static_cast<double>(trace.total_F(j));
    alpha = std::min(alpha, lhs / rhs);
  }
  return alpha;
}

double fullness_gamma(const Trace& trace, unsigned log_p) {
  check(trace, log_p);
  double gamma = std::numeric_limits<double>::infinity();
  const double p = static_cast<double>(std::uint64_t{1} << log_p);
  bool constrained = false;
  for (unsigned j = 1; j <= log_p; ++j) {
    const double rhs = p / static_cast<double>(std::uint64_t{1} << j) *
                       static_cast<double>(trace.total_S(j));
    if (rhs == 0.0) continue;
    const double lhs = static_cast<double>(trace.total_F(j));
    gamma = std::min(gamma, lhs / rhs);
    constrained = true;
  }
  return constrained ? gamma : 0.0;
}

bool folding_inequality_holds(const Trace& trace, unsigned log_p) {
  check(trace, log_p);
  const std::uint64_t p = std::uint64_t{1} << log_p;
  for (unsigned j = 1; j <= log_p; ++j) {
    // Lemma 3.1 bounds the j-fold total by (p/2^j) times the p-fold total,
    // restricted to supersteps with label < j: both sides are cached trace
    // sums, so the whole sweep is O(log p).
    if (trace.total_F(j) > (p >> j) * trace.partial_F(j, log_p)) return false;
  }
  return true;
}

}  // namespace nobl
