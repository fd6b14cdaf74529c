#include "algorithms/stencil2d.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "bsp/cost.hpp"
#include "core/predictions.hpp"
#include "core/wiseness.hpp"
#include "util/rng.hpp"

namespace nobl {
namespace {

double average9(const std::array<double, 9>& hood) {
  double sum = 0;
  for (const double v : hood) sum += v;
  return sum / 9.0;
}

TEST(Stencil2Reference, ZeroStepsIsIdentity) {
  Matrix<double> plane(4, 4, 1.5);
  const auto out = stencil2_reference(plane, average9, 0);
  EXPECT_EQ(out, plane);
}

TEST(Stencil2Reference, UniformPlaneInteriorStaysUniform) {
  Matrix<double> plane(8, 8, 9.0);
  const auto out = stencil2_reference(plane, average9, 1);
  // Interior cells average nine 9s; border cells see zero padding.
  EXPECT_DOUBLE_EQ(out(4, 4), 9.0);
  EXPECT_LT(out(0, 0), 9.0);
}

TEST(Stencil2Reference, MatchesHandComputedCell) {
  Matrix<double> plane(3, 3, 0.0);
  plane(1, 1) = 9.0;
  const auto out = stencil2_reference(plane, average9, 1);
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_DOUBLE_EQ(out(i, j), 1.0);  // every cell sees the center once
    }
  }
}

TEST(Stencil2Schedule, SeventeenStages) {
  const auto run = run_program<std::uint8_t>(
      16 * 16, [&](auto& bk) { return stencil2_program(bk, 16); });
  EXPECT_EQ(kStencil2Stages, 17u);
  // n = 16: v = 256, k = 4 (⌈√4⌉ = 2), radices {16, 16}: per stage
  // (4·4−3) + (4·4−3)² supersteps.
  EXPECT_EQ(run.output, (std::vector<std::uint64_t>{16, 16}));
  EXPECT_EQ(run.trace.supersteps(), 17u * (13u + 13u * 13u));
}

TEST(Stencil2Schedule, LabelLadder) {
  const auto run = run_program<std::uint8_t>(
      16 * 16, [&](auto& bk) { return stencil2_program(bk, 16); });
  // Level 1 -> label 0, level 2 -> label 2·log k = 4.
  EXPECT_EQ(run.trace.S(0), 17u * 13u);
  EXPECT_EQ(run.trace.S(4), 17u * 13u * 13u);
}

TEST(Stencil2Schedule, CommunicationMatchesTheorem413) {
  const std::uint64_t n = 64;
  const auto run = run_program<std::uint8_t>(
      n * n, [&](auto& bk) { return stencil2_program(bk, n); });
  const std::uint64_t v = n * n;
  for (unsigned log_p = 1; log_p <= run.trace.log_v(); log_p += 3) {
    const std::uint64_t p = 1ULL << log_p;
    for (const double sigma : {0.0, static_cast<double>(v / p)}) {
      const double measured =
          communication_complexity(run.trace, log_p, sigma);
      const double predicted = predict::stencil2(n, p, sigma);
      EXPECT_LE(measured, 40.0 * predicted) << "p=" << p << " s=" << sigma;
      EXPECT_GE(measured, 0.001 * predicted) << "p=" << p << " s=" << sigma;
    }
  }
}

TEST(Stencil2Schedule, WiseAtEveryFold) {
  const auto run = run_program<std::uint8_t>(
      16 * 16, [&](auto& bk) { return stencil2_program(bk, 16); });
  for (unsigned log_p = 1; log_p <= run.trace.log_v(); ++log_p) {
    EXPECT_GE(wiseness_alpha(run.trace, log_p), 0.5) << "log_p=" << log_p;
    EXPECT_TRUE(folding_inequality_holds(run.trace, log_p));
  }
}

TEST(Stencil2Schedule, Validation) {
  auto odd_n = [](auto& bk) { return stencil2_program(bk, 6); };
  EXPECT_THROW((void)run_program<std::uint8_t>(36, odd_n),
               std::invalid_argument);
  auto bad_k = [](auto& bk) { return stencil2_program(bk, 16, true, 3); };
  EXPECT_THROW((void)run_program<std::uint8_t>(256, bad_k),
               std::invalid_argument);
}

TEST(Stencil2Schedule, KOverrideChangesPhaseCount) {
  const auto k2 = run_program<std::uint8_t>(
      16 * 16, [&](auto& bk) { return stencil2_program(bk, 16, true, 2); });
  const auto k4 = run_program<std::uint8_t>(
      16 * 16, [&](auto& bk) { return stencil2_program(bk, 16, true, 4); });
  EXPECT_NE(k2.trace.supersteps(), k4.trace.supersteps());
}

}  // namespace
}  // namespace nobl
