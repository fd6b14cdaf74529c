// Deterministic workload generators shared by the registry runners, the
// bench binaries, and the CLI campaign runner.
//
// Most algorithms in this repo are network-oblivious in the strong sense:
// their communication traces do not depend on input *values*, only on
// sizes, so the fixed seeds below merely pin output values for conformance
// checks. The exception is sample-sort, whose routing degrees follow the
// key distribution — there the fixed seed pins the *trace* too, keeping
// golden replays and cross-engine conformance exact.
#pragma once

#include <complex>
#include <cstdint>
#include <vector>

#include "util/matrix.hpp"
#include "util/rng.hpp"

namespace nobl::workloads {

inline Matrix<long> random_matrix(std::uint64_t m, std::uint64_t seed) {
  Matrix<long> a(m, m);
  Xoshiro256 rng(seed);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      a(i, j) = static_cast<long>(rng.below(128)) - 64;
    }
  }
  return a;
}

inline std::vector<std::uint64_t> random_keys(std::uint64_t n,
                                              std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<std::uint64_t> keys(n);
  for (auto& k : keys) k = rng.below(std::uint64_t{1} << 48);
  return keys;
}

inline std::vector<std::complex<double>> random_signal(std::uint64_t n,
                                                       std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<std::complex<double>> x(n);
  for (auto& v : x) v = {rng.unit() * 2 - 1, rng.unit() * 2 - 1};
  return x;
}

inline std::vector<double> random_rod(std::uint64_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<double> x(n);
  for (auto& v : x) v = rng.unit();
  return x;
}

/// Small summands for prefix-scan runs (partial sums stay far from 2^64,
/// so host-side reference sums need no modular reasoning).
inline std::vector<std::uint64_t> random_addends(std::uint64_t n,
                                                 std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<std::uint64_t> x(n);
  for (auto& v : x) v = rng.below(1024);
  return x;
}

/// Keys drawn from a tiny alphabet — the adversarial input for
/// data-dependent splitter selection: sample-sort's buckets collapse onto
/// a handful of clusters while correctness must hold regardless.
inline std::vector<std::uint64_t> duplicate_heavy_keys(
    std::uint64_t n, std::uint64_t seed, std::uint64_t distinct = 4) {
  Xoshiro256 rng(seed);
  std::vector<std::uint64_t> keys(n);
  for (auto& k : keys) k = rng.below(distinct) * 1000 + 7;
  return keys;
}

/// The 1-D heat rule used by every stencil1 experiment in the repo. Generic,
/// so the taint pass runs the same rule on tracked values.
inline constexpr auto heat_rule = [](const auto& l, const auto& c,
                                     const auto& r) {
  return 0.25 * l + 0.5 * c + 0.25 * r;
};

}  // namespace nobl::workloads
