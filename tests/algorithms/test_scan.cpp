// Property tests for the network-oblivious prefix-scan: output correctness
// against std::partial_sum over fixed-seed sweeps, the exact closed form
// H = 2·log p·(1+σ), degree conformance against the
// ReferenceDegreeAccumulator oracle, and rejection of non-power-of-two
// (odd) sizes.
#include "algorithms/scan.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "core/experiment.hpp"
#include "core/lower_bounds.hpp"
#include "core/predictions.hpp"
#include "core/wiseness.hpp"
#include "core/workloads.hpp"
#include "degree_check.hpp"
#include "util/bits.hpp"

namespace nobl {
namespace {

using testing_detail::ExpectedStep;

std::vector<ExpectedStep> expected_scan_steps(std::uint64_t n) {
  const unsigned log_n = log2_exact(n);
  std::vector<ExpectedStep> steps;
  for (unsigned t = 0; t < log_n; ++t) {  // upsweep
    ExpectedStep step{log_n - (t + 1), {}};
    const std::uint64_t block = std::uint64_t{1} << t;
    for (std::uint64_t r = block; r < n; r += 2 * block) {
      step.messages.push_back({r, r - block, 1});
    }
    steps.push_back(std::move(step));
  }
  for (unsigned t = log_n; t-- > 0;) {  // downsweep
    ExpectedStep step{log_n - (t + 1), {}};
    const std::uint64_t block = std::uint64_t{1} << t;
    for (std::uint64_t r = 0; r < n; r += 2 * block) {
      step.messages.push_back({r, r + block, 1});
    }
    steps.push_back(std::move(step));
  }
  return steps;
}

TEST(Scan, MatchesPartialSumAcrossSweep) {
  for (const std::uint64_t n : {1u, 2u, 4u, 16u, 64u, 256u, 1024u}) {
    const auto values = workloads::random_addends(n, n);
    std::vector<std::uint64_t> want(n);
    std::partial_sum(values.begin(), values.end(), want.begin());
    auto scan = [&](auto& bk) { return scan_program(bk, values); };
    EXPECT_EQ(run_program<std::uint64_t>(n, scan).output, want)
        << "n=" << n << " [seq]";
    EXPECT_EQ(
        run_program<std::uint64_t>(n, scan, ExecutionPolicy::parallel(3))
            .output,
        want)
        << "n=" << n << " [par:3]";
  }
}

TEST(Scan, RejectsNonPowerOfTwoSizes) {
  for (const std::size_t n : {0u, 3u, 5u, 7u, 12u, 63u, 65u}) {
    const std::vector<std::uint64_t> values(n);
    auto scan = [&](auto& bk) { return scan_program(bk, values); };
    EXPECT_THROW((void)run_program<std::uint64_t>(n, scan),
                 std::invalid_argument)
        << "n=" << n;
  }
}

TEST(Scan, DegreesMatchReferenceAccumulator) {
  for (const std::uint64_t n : {4u, 16u, 64u}) {
    const auto values = workloads::random_addends(n, n);
    const auto run = run_program<std::uint64_t>(
        n, [&](auto& bk) { return scan_program(bk, values); });
    testing_detail::expect_trace_matches_reference(run.trace,
                                                   expected_scan_steps(n));
    testing_detail::expect_cost_queries_consistent(run.trace);
  }
}

TEST(Scan, ClosedFormIsExact) {
  // Two degree-1 supersteps per label < log p, so H = 2 log p (1 + σ)
  // exactly — the predicted/measured ratio is identically 1.
  for (const std::uint64_t n : {4u, 64u, 1024u}) {
    const auto values = workloads::random_addends(n, n);
    const auto run = run_program<std::uint64_t>(
        n, [&](auto& bk) { return scan_program(bk, values); });
    for (const std::uint64_t p : pow2_range(n)) {
      const unsigned log_p = log2_exact(p);
      for (const double sigma : {0.0, 1.0, 16.0}) {
        EXPECT_DOUBLE_EQ(communication_complexity(run.trace, log_p, sigma),
                         predict::scan(n, p, sigma))
            << "n=" << n << " p=" << p;
      }
    }
  }
}

TEST(Scan, TreeWisenessIsTwoOverP) {
  // Like the broadcast of Section 4.5, a tree cannot densify under folding:
  // α(p) = 2/p exactly, and Lemma 3.1's folding inequality still holds.
  const auto values = workloads::random_addends(256, 1);
  const auto run = run_program<std::uint64_t>(
      256, [&](auto& bk) { return scan_program(bk, values); });
  for (unsigned log_p = 1; log_p <= 8; ++log_p) {
    EXPECT_DOUBLE_EQ(wiseness_alpha(run.trace, log_p),
                     2.0 / static_cast<double>(std::uint64_t{1} << log_p));
    EXPECT_TRUE(folding_inequality_holds(run.trace, log_p));
  }
}

TEST(Scan, OptimalAgainstGatherBoundAtConstantSigma) {
  const auto values = workloads::random_addends(1024, 2);
  const auto run = run_program<std::uint64_t>(
      1024, [&](auto& bk) { return scan_program(bk, values); });
  for (const std::uint64_t p : pow2_range(1024)) {
    const unsigned log_p = log2_exact(p);
    const double h0 = communication_complexity(run.trace, log_p, 0.0);
    EXPECT_LE(h0, 1.0 * lb::scan(p, 0.0) + 1e-9) << "p=" << p;  // ratio 1
    const double h1 = communication_complexity(run.trace, log_p, 1.0);
    EXPECT_LE(h1, 2.0 * lb::scan(p, 1.0) + 1e-9) << "p=" << p;  // ratio 2
  }
}

}  // namespace
}  // namespace nobl
