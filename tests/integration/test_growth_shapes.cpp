// Quantitative growth-shape verification: the empirical log-log slope of
// measured H against p (at σ = 0, p well below n) must match each theorem's
// exponent. This is the strongest scale-free check available — constants
// cancel entirely, leaving only the claimed power law.
#include <gtest/gtest.h>

#include "algorithms/fft.hpp"
#include "algorithms/matmul.hpp"
#include "algorithms/matmul_space.hpp"
#include "algorithms/stencil2d.hpp"
#include "bsp/cost.hpp"
#include "core/experiment.hpp"
#include "core/predictions.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace nobl {
namespace {

/// Log-log slope of measured H(p) at σ = 0 over p = 2 .. 2^max_log_p.
double h_slope(const Trace& trace, unsigned max_log_p) {
  std::vector<double> ps, hs;
  for (unsigned log_p = 1; log_p <= max_log_p; ++log_p) {
    ps.push_back(static_cast<double>(std::uint64_t{1} << log_p));
    hs.push_back(communication_complexity(trace, log_p, 0.0));
  }
  return loglog_slope(ps, hs);
}

/// Log-log slope of a closed-form prediction over the same discrete window
/// — at finite n the power law has staircase/transient corrections, and the
/// honest invariant is "measured slope tracks the formula's slope".
double formula_slope(const CostFormula& f, std::uint64_t n,
                     unsigned max_log_p) {
  std::vector<double> ps, hs;
  for (unsigned log_p = 1; log_p <= max_log_p; ++log_p) {
    const std::uint64_t p = std::uint64_t{1} << log_p;
    ps.push_back(static_cast<double>(p));
    hs.push_back(f(n, p, 0.0));
  }
  return loglog_slope(ps, hs);
}

Matrix<long> rm(std::uint64_t m, std::uint64_t seed) {
  Matrix<long> a(m, m);
  Xoshiro256 rng(seed);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      a(i, j) = static_cast<long>(rng.below(16));
    }
  }
  return a;
}

TEST(GrowthShapes, MatmulTracksTheTheorem42Exponent) {
  // Theorem 4.2: H ~ n/p^{2/3}. Over the full fold range the measured slope
  // must track the formula's slope over the same window (which itself
  // approaches -2/3 only asymptotically) within 0.15.
  const auto a = rm(64, 1);
  const auto b = rm(64, 2);
  const auto run = run_program<MatmulMsg<long>>(
      64 * 64, [&](auto& bk) { return matmul_program(bk, a, b); });
  const double measured = h_slope(run.trace, 12);
  const double predicted = formula_slope(predict::matmul, 4096, 12);
  EXPECT_NEAR(measured, predicted, 0.15);
  EXPECT_LT(measured, -0.4);  // clearly sublinear communication scaling
}

TEST(GrowthShapes, MatmulSpaceTracksTheSection411Exponent) {
  // §4.1.1: H ~ n/√p (the measured curve staircases with the two-round
  // recursion's even/odd fold alignment; the fit averages it out).
  const auto a = rm(64, 3);
  const auto b = rm(64, 4);
  const auto run = run_program<MatmulSpaceMsg<long>>(
      64 * 64, [&](auto& bk) { return matmul_space_program(bk, a, b); });
  const double measured = h_slope(run.trace, 12);
  const double predicted = formula_slope(predict::matmul_space, 4096, 12);
  EXPECT_NEAR(measured, predicted, 0.15);
  EXPECT_NEAR(predicted, -0.5, 0.05);  // the formula's own exponent
}

TEST(GrowthShapes, FftScalesAsPToMinusOne) {
  // Theorem 4.5: H ~ (n/p)·log n/log(n/p); away from p = n the slope is
  // close to -1 (the log ratio bends it up slightly).
  Xoshiro256 rng(5);
  std::vector<std::complex<double>> x(16384);
  for (auto& v : x) v = {rng.unit(), rng.unit()};
  const auto run = run_program<std::complex<double>>(
      16384, [&](auto& bk) { return fft_program(bk, x); });
  const double slope = h_slope(run.trace, 7);  // p up to 128 = n^{1/2}
  EXPECT_NEAR(slope, -1.0, 0.15);
}

TEST(GrowthShapes, Stencil2TracksTheTheorem413Exponent) {
  // Theorem 4.13: H ~ n²/√p. The measured curve is a staircase (whole
  // recursion levels fold local at once); the full-range fit averages to
  // the formula's -1/2.
  const auto run = run_program<std::uint8_t>(
      64 * 64, [](auto& bk) { return stencil2_program(bk, 64); });
  const double measured = h_slope(run.trace, 12);
  EXPECT_NEAR(measured, -0.5, 0.15);
}

TEST(GrowthShapes, MatmulScaleInvarianceAcrossN) {
  // H(n, p)/LB-shape must be identical for n = 64 and n = 4096 at matching
  // folds (the ratio table's "2.381 at p = 2 for every n" observation).
  const auto a8 = rm(8, 6);
  const auto b8 = rm(8, 7);
  const auto small = run_program<MatmulMsg<long>>(
      8 * 8, [&](auto& bk) { return matmul_program(bk, a8, b8); });
  const auto a64 = rm(64, 6);
  const auto b64 = rm(64, 7);
  const auto large = run_program<MatmulMsg<long>>(
      64 * 64, [&](auto& bk) { return matmul_program(bk, a64, b64); });
  const double r_small = communication_complexity(small.trace, 1, 0.0) / 64.0;
  const double r_large =
      communication_complexity(large.trace, 1, 0.0) / 4096.0;
  EXPECT_NEAR(r_small, r_large, 1e-9);  // per-element cost identical
}

}  // namespace
}  // namespace nobl
