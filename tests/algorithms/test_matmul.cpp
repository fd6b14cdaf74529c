#include "algorithms/matmul.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "bsp/cost.hpp"
#include "core/lower_bounds.hpp"
#include "core/predictions.hpp"
#include "core/wiseness.hpp"
#include "util/rng.hpp"

namespace nobl {
namespace {

Matrix<long> random_matrix(std::uint64_t m, std::uint64_t seed) {
  Matrix<long> a(m, m);
  Xoshiro256 rng(seed);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      a(i, j) = static_cast<long>(rng.below(64)) - 32;
    }
  }
  return a;
}

class MatmulCorrectness : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MatmulCorrectness, MatchesNaiveProduct) {
  const std::uint64_t m = GetParam();
  const Matrix<long> a = random_matrix(m, 2 * m);
  const Matrix<long> b = random_matrix(m, 2 * m + 1);
  const auto run = run_program<MatmulMsg<long>>(
      m * m, [&](auto& bk) { return matmul_program(bk, a, b); });
  EXPECT_EQ(run.output.c, multiply_naive(a, b)) << "m=" << m;
}

// m = 8 and 64 are the exact powers of 8 (log n divisible by 3); the others
// exercise the 2- and 4-VP tail segments.
INSTANTIATE_TEST_SUITE_P(Sides, MatmulCorrectness,
                         ::testing::Values(1u, 2u, 4u, 8u, 16u, 32u, 64u));

TEST(Matmul, RejectsNonPowerOfTwoAndNonSquare) {
  Matrix<long> a(3, 3), b(3, 3);
  auto odd_side = [&](auto& bk) { return matmul_program(bk, a, b); };
  EXPECT_THROW((void)run_program<MatmulMsg<long>>(9, odd_side),
               std::invalid_argument);
  Matrix<long> c(4, 2), d(2, 4);
  auto not_square = [&](auto& bk) { return matmul_program(bk, c, d); };
  EXPECT_THROW((void)run_program<MatmulMsg<long>>(16, not_square),
               std::invalid_argument);
}

TEST(Matmul, WorksWithDoubles) {
  const std::uint64_t m = 8;
  Matrix<double> a(m, m), b(m, m);
  Xoshiro256 rng(9);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      a(i, j) = rng.unit();
      b(i, j) = rng.unit();
    }
  }
  const auto run = run_program<MatmulMsg<double>>(
      m * m, [&](auto& bk) { return matmul_program(bk, a, b); });
  const auto ref = multiply_naive(a, b);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      EXPECT_NEAR(run.output.c(i, j), ref(i, j), 1e-9);
    }
  }
}

TEST(Matmul, SuperstepLabelsAreMultiplesOfThree) {
  const auto a = random_matrix(64, 1);
  const auto b = random_matrix(64, 2);
  const auto run = run_program<MatmulMsg<long>>(
      64 * 64, [&](auto& bk) { return matmul_program(bk, a, b); });
  for (const auto& s : run.trace.steps()) {
    EXPECT_EQ(s.label % 3, 0u);
  }
}

TEST(Matmul, MemoryBlowupIsCubeRoot) {
  // Theorem 4.2's algorithm incurs Θ(n^{1/3}) entries per VP.
  const auto a8 = random_matrix(8, 1);
  const auto b8 = random_matrix(8, 2);
  const auto run8 = run_program<MatmulMsg<long>>(
      8 * 8, [&](auto& bk) { return matmul_program(bk, a8, b8); });
  const auto a64 = random_matrix(64, 1);
  const auto b64 = random_matrix(64, 2);
  const auto run64 = run_program<MatmulMsg<long>>(
      64 * 64, [&](auto& bk) { return matmul_program(bk, a64, b64); });
  const double n8 = 64.0, n64 = 4096.0;
  EXPECT_LE(run8.output.peak_vp_entries, 8 * std::cbrt(n8));
  EXPECT_LE(run64.output.peak_vp_entries, 8 * std::cbrt(n64));
  // And it genuinely grows (i.e. the algorithm is not the space-efficient
  // variant): blow-up at n = 4096 strictly exceeds blow-up at n = 64.
  EXPECT_GT(run64.output.peak_vp_entries, run8.output.peak_vp_entries);
}

TEST(Matmul, CommunicationComplexityMatchesTheorem42) {
  // H_MM(n,p,σ) = O(n/p^{2/3} + σ log p): measured/predicted bounded on both
  // sides across all folds for n = 4096.
  const auto a = random_matrix(64, 3);
  const auto b = random_matrix(64, 4);
  const auto run = run_program<MatmulMsg<long>>(
      64 * 64, [&](auto& bk) { return matmul_program(bk, a, b); });
  const std::uint64_t n = 4096;
  for (unsigned log_p = 1; log_p <= run.trace.log_v(); ++log_p) {
    const std::uint64_t p = 1ULL << log_p;
    for (const double sigma : {0.0, 4.0, 64.0}) {
      const double measured = communication_complexity(run.trace, log_p, sigma);
      const double predicted = predict::matmul(n, p, sigma);
      EXPECT_LE(measured, 40.0 * predicted) << "p=" << p << " sigma=" << sigma;
      EXPECT_GE(measured, 0.05 * predicted) << "p=" << p << " sigma=" << sigma;
    }
  }
}

TEST(Matmul, WiseAndOptimalAtEveryFold) {
  const auto a = random_matrix(64, 5);
  const auto b = random_matrix(64, 6);
  const auto run = run_program<MatmulMsg<long>>(
      64 * 64, [&](auto& bk) { return matmul_program(bk, a, b); });
  const std::uint64_t n = 4096;
  for (unsigned log_p = 1; log_p <= run.trace.log_v(); ++log_p) {
    EXPECT_GE(wiseness_alpha(run.trace, log_p), 0.2) << "log_p=" << log_p;
    // Θ(1)-optimality vs Lemma 4.1 at σ = 0.
    const double h = communication_complexity(run.trace, log_p, 0.0);
    const double lower = lb::matmul(n, 1ULL << log_p, 0.0);
    EXPECT_LE(h, 40.0 * lower) << "log_p=" << log_p;
  }
}

TEST(Matmul, DummiesOnlyAffectDegrees) {
  const Matrix<long> a = random_matrix(16, 7);
  const Matrix<long> b = random_matrix(16, 8);
  const auto with = run_program<MatmulMsg<long>>(
      256, [&](auto& bk) { return matmul_program(bk, a, b, true); });
  const auto without = run_program<MatmulMsg<long>>(
      256, [&](auto& bk) { return matmul_program(bk, a, b, false); });
  EXPECT_EQ(with.output.c, without.output.c);
  EXPECT_EQ(with.trace.supersteps(), without.trace.supersteps());
  EXPECT_GE(with.trace.total_messages(), without.trace.total_messages());
}

TEST(Matmul, FoldingInequalityHolds) {
  const auto a = random_matrix(32, 9);
  const auto b = random_matrix(32, 10);
  const auto run = run_program<MatmulMsg<long>>(
      32 * 32, [&](auto& bk) { return matmul_program(bk, a, b); });
  for (unsigned log_p = 1; log_p <= run.trace.log_v(); ++log_p) {
    EXPECT_TRUE(folding_inequality_holds(run.trace, log_p));
  }
}

}  // namespace
}  // namespace nobl
