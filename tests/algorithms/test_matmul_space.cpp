#include "algorithms/matmul_space.hpp"

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

class MatmulSpaceCorrectness : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(MatmulSpaceCorrectness, MatchesNaiveProduct) {
  const std::uint64_t m = GetParam();
  const Matrix<long> a = random_matrix(m, 3 * m);
  const Matrix<long> b = random_matrix(m, 3 * m + 1);
  const auto run = run_program<MatmulSpaceMsg<long>>(
      m * m, [&](auto& bk) { return matmul_space_program(bk, a, b); });
  EXPECT_EQ(run.output, multiply_naive(a, b)) << "m=" << m;
}

INSTANTIATE_TEST_SUITE_P(Sides, MatmulSpaceCorrectness,
                         ::testing::Values(1u, 2u, 4u, 8u, 16u, 32u));

TEST(MatmulSpace, RejectsBadShapes) {
  Matrix<long> a(6, 6), b(6, 6);
  auto matmul = [&](auto& bk) { return matmul_space_program(bk, a, b); };
  EXPECT_THROW((void)run_program<MatmulSpaceMsg<long>>(36, matmul),
               std::invalid_argument);
}

TEST(MatmulSpace, ConstantBlowupPerLevelStack) {
  // §4.1.1: O(1) matrix entries per VP plus an O(log n) recursion stack of
  // constant-size records. Our audit counts the full stack.
  EXPECT_LE(matmul_space_peak_entries(16 * 16), 3 * (4 + 1));
  EXPECT_LE(matmul_space_peak_entries(32 * 32), 3 * (5 + 1));
}

TEST(MatmulSpace, LabelsAreEven) {
  const auto a = random_matrix(16, 5);
  const auto b = random_matrix(16, 6);
  const auto run = run_program<MatmulSpaceMsg<long>>(
      16 * 16, [&](auto& bk) { return matmul_space_program(bk, a, b); });
  for (const auto& s : run.trace.steps()) {
    EXPECT_EQ(s.label % 2, 0u);
  }
}

TEST(MatmulSpace, SuperstepCountIsSqrtN) {
  // Θ(2^i) 2i-supersteps at level i: total Θ(√n).
  const auto a16 = random_matrix(16, 7);
  const auto b16 = random_matrix(16, 8);
  const auto run16 = run_program<MatmulSpaceMsg<long>>(
      16 * 16, [&](auto& bk) { return matmul_space_program(bk, a16, b16); });
  const auto a32 = random_matrix(32, 7);
  const auto b32 = random_matrix(32, 8);
  const auto run32 = run_program<MatmulSpaceMsg<long>>(
      32 * 32, [&](auto& bk) { return matmul_space_program(bk, a32, b32); });
  const double s16 = static_cast<double>(run16.trace.supersteps());
  const double s32 = static_cast<double>(run32.trace.supersteps());
  // Doubling m doubles sqrt(n): superstep count should scale ~2x.
  EXPECT_NEAR(s32 / s16, 2.0, 0.35);
}

TEST(MatmulSpace, CommunicationMatchesSection411) {
  // H = O(n/√p + σ√p).
  const auto a = random_matrix(32, 9);
  const auto b = random_matrix(32, 10);
  const auto run = run_program<MatmulSpaceMsg<long>>(
      32 * 32, [&](auto& bk) { return matmul_space_program(bk, a, b); });
  const std::uint64_t n = 1024;
  for (unsigned log_p = 1; log_p <= run.trace.log_v(); ++log_p) {
    const std::uint64_t p = 1ULL << log_p;
    for (const double sigma : {0.0, 2.0, 16.0}) {
      const double measured =
          communication_complexity(run.trace, log_p, sigma);
      const double predicted = predict::matmul_space(n, p, sigma);
      EXPECT_LE(measured, 30.0 * predicted) << "p=" << p << " s=" << sigma;
      EXPECT_GE(measured, 0.05 * predicted) << "p=" << p << " s=" << sigma;
    }
  }
}

TEST(MatmulSpace, PaysMoreCommunicationThanCubeRootVariant) {
  // The space/communication trade-off: H = Θ(n/√p) exceeds Θ(n/p^{2/3}).
  const auto a = random_matrix(32, 11);
  const auto b = random_matrix(32, 12);
  const auto run = run_program<MatmulSpaceMsg<long>>(
      32 * 32, [&](auto& bk) { return matmul_space_program(bk, a, b); });
  const unsigned log_p = run.trace.log_v();
  const double h = communication_complexity(run.trace, log_p, 0.0);
  EXPECT_GT(h, lb::matmul(1024, 1024, 0.0));        // above the n/p^{2/3} form
  EXPECT_LE(h, 30.0 * lb::matmul_space(1024, 1024, 0.0));
}

TEST(MatmulSpace, WiseAtEveryFold) {
  const auto a = random_matrix(16, 13);
  const auto b = random_matrix(16, 14);
  const auto run = run_program<MatmulSpaceMsg<long>>(
      16 * 16, [&](auto& bk) { return matmul_space_program(bk, a, b); });
  for (unsigned log_p = 1; log_p <= run.trace.log_v(); ++log_p) {
    EXPECT_GE(wiseness_alpha(run.trace, log_p), 0.2) << "log_p=" << log_p;
    EXPECT_TRUE(folding_inequality_holds(run.trace, log_p));
  }
}

TEST(MatmulSpace, DummiesDoNotChangeResult) {
  const Matrix<long> a = random_matrix(8, 15);
  const Matrix<long> b = random_matrix(8, 16);
  const auto with = run_program<MatmulSpaceMsg<long>>(
      64, [&](auto& bk) { return matmul_space_program(bk, a, b, true); });
  const auto without = run_program<MatmulSpaceMsg<long>>(
      64, [&](auto& bk) { return matmul_space_program(bk, a, b, false); });
  EXPECT_EQ(with.output, without.output);
}

}  // namespace
}  // namespace nobl
