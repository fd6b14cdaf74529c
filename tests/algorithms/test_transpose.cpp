// Property tests for the recursive block transposition: output correctness
// (including the involution A^TT = A) over fixed-seed sweeps, the exact
// closed form for p <= m, degree conformance against the
// ReferenceDegreeAccumulator oracle, and rejection of non-square /
// odd-sided matrices.
#include "algorithms/transpose.hpp"

#include <gtest/gtest.h>

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

std::vector<ExpectedStep> expected_transpose_steps(std::uint64_t m) {
  const unsigned log_m = log2_exact(m);
  std::vector<ExpectedStep> steps;
  for (unsigned d = 0; d < log_m; ++d) {
    ExpectedStep step{d, {}};
    for (std::uint64_t i = 0; i < m; ++i) {
      for (std::uint64_t j = 0; j < m; ++j) {
        // (i, j) moves at the depth where row and column bits first split.
        if ((i ^ j) >> (log_m - d) != 0) continue;
        if (((i ^ j) >> (log_m - d - 1)) == 0) continue;
        step.messages.push_back({i * m + j, j * m + i, 1});
      }
    }
    steps.push_back(std::move(step));
  }
  return steps;
}

TEST(Transpose, MatchesHostTransposeAcrossSweep) {
  for (const std::uint64_t m : {1u, 2u, 4u, 8u, 16u, 32u}) {
    const Matrix<long> a = workloads::random_matrix(m, m);
    Matrix<long> want(m, m);
    for (std::uint64_t i = 0; i < m; ++i) {
      for (std::uint64_t j = 0; j < m; ++j) want(j, i) = a(i, j);
    }
    auto transpose = [&](auto& bk) { return transpose_program(bk, a); };
    EXPECT_EQ(run_program<long>(m * m, transpose).output, want)
        << "m=" << m << " [seq]";
    EXPECT_EQ(
        run_program<long>(m * m, transpose, ExecutionPolicy::parallel(3))
            .output,
        want)
        << "m=" << m << " [par:3]";
  }
}

TEST(Transpose, TwiceIsIdentity) {
  const Matrix<long> a = workloads::random_matrix(16, 5);
  const auto twice = run_program<long>(256, [&](auto& bk) {
    return transpose_program(bk, transpose_program(bk, a));
  });
  EXPECT_EQ(twice.output, a);
}

TEST(Transpose, RejectsBadShapes) {
  // Empty, not square, then odd / non-power-of-two sides.
  std::vector<Matrix<long>> bad{Matrix<long>(0, 0), Matrix<long>(4, 8)};
  for (const std::size_t m : {3u, 5u, 7u, 12u}) bad.emplace_back(m, m);
  for (const Matrix<long>& a : bad) {
    auto transpose = [&](auto& bk) { return transpose_program(bk, a); };
    EXPECT_THROW((void)run_program<long>(a.rows() * a.rows(), transpose),
                 std::invalid_argument)
        << a.rows() << "x" << a.cols();
  }
}

TEST(Transpose, DegreesMatchReferenceAccumulator) {
  for (const std::uint64_t m : {2u, 4u, 8u}) {
    const auto a = workloads::random_matrix(m, m);
    const auto run = run_program<long>(
        m * m, [&](auto& bk) { return transpose_program(bk, a); });
    testing_detail::expect_trace_matches_reference(run.trace,
                                                   expected_transpose_steps(m));
    testing_detail::expect_cost_queries_consistent(run.trace);
  }
}

TEST(Transpose, ClosedFormIsExactAtEveryFold) {
  // Whole-row folds (p <= m): level degrees are exactly n/(p·2^{d+1}), so
  // H = (n/p)(1 - 1/p) + σ·log p. Sub-row folds: the aligned moving run of
  // each row clips to the cluster window, min(n/p, m/2^{d+1}) — also exact.
  for (const std::uint64_t m : {8u, 32u}) {
    const std::uint64_t n = m * m;
    const auto a = workloads::random_matrix(m, m);
    const auto run = run_program<long>(
        n, [&](auto& bk) { return transpose_program(bk, a); });
    for (const std::uint64_t p : pow2_range(n)) {
      const unsigned log_p = log2_exact(p);
      for (const double sigma : {0.0, 1.0, 9.0}) {
        EXPECT_DOUBLE_EQ(predict::transpose(n, p, sigma),
                         communication_complexity(run.trace, log_p, sigma))
            << "m=" << m << " p=" << p << " sigma=" << sigma;
        if (p <= m) {
          const double np = static_cast<double>(n) / static_cast<double>(p);
          EXPECT_DOUBLE_EQ(communication_complexity(run.trace, log_p, sigma),
                           np * (1.0 - 1.0 / static_cast<double>(p)) +
                               sigma * static_cast<double>(log_p))
              << "m=" << m << " p=" << p;
        }
      }
    }
  }
}

TEST(Transpose, WiseWithoutDummiesAndNearLowerBound) {
  const std::uint64_t m = 32;
  const auto a = workloads::random_matrix(m, m);
  const auto run = run_program<long>(
      m * m, [&](auto& bk) { return transpose_program(bk, a); });
  for (unsigned log_p = 1; log_p <= run.trace.log_v(); ++log_p) {
    // Θ(1)-wise with no dummy traffic over the whole-row fold range; the
    // constant degrades gracefully (but stays bounded) on sub-row folds.
    const double floor = (std::uint64_t{1} << log_p) <= m ? 0.5 : 0.15;
    EXPECT_GE(wiseness_alpha(run.trace, log_p), floor) << "p=2^" << log_p;
    EXPECT_TRUE(folding_inequality_holds(run.trace, log_p));
  }
  // Bandwidth term matches the counting lower bound exactly at σ = 0 for
  // whole-row folds.
  for (std::uint64_t p = 2; p <= m; p *= 2) {
    EXPECT_DOUBLE_EQ(
        communication_complexity(run.trace, log2_exact(p), 0.0),
        lb::transpose(m * m, p, 0.0))
        << "p=" << p;
  }
}

}  // namespace
}  // namespace nobl
