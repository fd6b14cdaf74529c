#include "algorithms/fft.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "bsp/cost.hpp"
#include "core/lower_bounds.hpp"
#include "core/predictions.hpp"
#include "core/wiseness.hpp"
#include "util/rng.hpp"

namespace nobl {
namespace {

std::vector<std::complex<double>> random_signal(std::uint64_t n,
                                                std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<std::complex<double>> x(n);
  for (auto& v : x) v = {rng.unit() * 2 - 1, rng.unit() * 2 - 1};
  return x;
}

void expect_close(const std::vector<std::complex<double>>& a,
                  const std::vector<std::complex<double>>& b, double tol) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(a[i].real(), b[i].real(), tol) << "k=" << i;
    EXPECT_NEAR(a[i].imag(), b[i].imag(), tol) << "k=" << i;
  }
}

class FftCorrectness : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FftCorrectness, MatchesNaiveDft) {
  const std::uint64_t n = GetParam();
  const auto x = random_signal(n, n);
  const auto run = run_program<std::complex<double>>(
      n, [&](auto& bk) { return fft_program(bk, x); });
  expect_close(run.output, dft_naive(x), 1e-8 * static_cast<double>(n));
}

INSTANTIATE_TEST_SUITE_P(Sizes, FftCorrectness,
                         ::testing::Values(1u, 2u, 4u, 8u, 16u, 32u, 64u,
                                           128u, 256u, 512u));

TEST(Fft, ImpulseGivesFlatSpectrum) {
  std::vector<std::complex<double>> x(64, 0.0);
  x[0] = 1.0;
  const auto run = run_program<std::complex<double>>(
      64, [&](auto& bk) { return fft_program(bk, x); });
  for (const auto& v : run.output) {
    EXPECT_NEAR(v.real(), 1.0, 1e-12);
    EXPECT_NEAR(v.imag(), 0.0, 1e-12);
  }
}

TEST(Fft, SingleToneConcentrates) {
  const std::uint64_t n = 128, tone = 5;
  std::vector<std::complex<double>> x(n);
  for (std::uint64_t j = 0; j < n; ++j) {
    const double angle =
        2.0 * std::numbers::pi * static_cast<double>(tone * j) /
        static_cast<double>(n);
    x[j] = std::polar(1.0, angle);
  }
  const auto run = run_program<std::complex<double>>(
      n, [&](auto& bk) { return fft_program(bk, x); });
  for (std::uint64_t k = 0; k < n; ++k) {
    const double expected = k == tone ? static_cast<double>(n) : 0.0;
    EXPECT_NEAR(std::abs(run.output[k]), expected, 1e-8) << "k=" << k;
  }
}

TEST(Fft, SuperstepCountIsLogarithmic) {
  // S(n) = 2·S(√n) + 3 = Θ(log n).
  const auto x = random_signal(1024, 1);
  const auto run = run_program<std::complex<double>>(
      1024, [&](auto& bk) { return fft_program(bk, x); });
  EXPECT_LE(run.trace.supersteps(), 4u * 10u);
  EXPECT_GE(run.trace.supersteps(), 10u);
}

TEST(Fft, CommunicationMatchesTheorem45) {
  const std::uint64_t n = 1024;
  const auto x = random_signal(n, 2);
  const auto run = run_program<std::complex<double>>(
      n, [&](auto& bk) { return fft_program(bk, x); });
  for (unsigned log_p = 1; log_p <= run.trace.log_v(); ++log_p) {
    const std::uint64_t p = 1ULL << log_p;
    for (const double sigma : {0.0, 2.0, 32.0}) {
      const double measured =
          communication_complexity(run.trace, log_p, sigma);
      const double predicted = predict::fft(n, p, sigma);
      EXPECT_LE(measured, 12.0 * predicted) << "p=" << p << " s=" << sigma;
      EXPECT_GE(measured, 0.1 * predicted) << "p=" << p << " s=" << sigma;
    }
  }
}

TEST(Fft, OptimalAgainstLemma44) {
  const std::uint64_t n = 4096;
  const auto x = random_signal(n, 3);
  const auto run = run_program<std::complex<double>>(
      n, [&](auto& bk) { return fft_program(bk, x); });
  for (unsigned log_p = 1; log_p <= run.trace.log_v(); ++log_p) {
    const double h = communication_complexity(run.trace, log_p, 0.0);
    EXPECT_LE(h, 15.0 * lb::fft(n, 1ULL << log_p, 0.0)) << "log_p=" << log_p;
  }
}

TEST(Fft, WiseAtEveryFold) {
  const auto x = random_signal(256, 4);
  const auto run = run_program<std::complex<double>>(
      256, [&](auto& bk) { return fft_program(bk, x); });
  for (unsigned log_p = 1; log_p <= run.trace.log_v(); ++log_p) {
    EXPECT_GE(wiseness_alpha(run.trace, log_p), 0.2) << "log_p=" << log_p;
    EXPECT_TRUE(folding_inequality_holds(run.trace, log_p));
  }
}

TEST(Fft, DummiesDoNotChangeOutput) {
  const auto x = random_signal(128, 5);
  const auto with = run_program<std::complex<double>>(
      128, [&](auto& bk) { return fft_program(bk, x, true); });
  const auto without = run_program<std::complex<double>>(
      128, [&](auto& bk) { return fft_program(bk, x, false); });
  expect_close(with.output, without.output, 1e-12);
}

TEST(Fft, InverseRoundTrip) {
  for (const std::uint64_t n : {2u, 16u, 128u, 1024u}) {
    const auto x = random_signal(n, n + 3);
    const auto back = run_program<std::complex<double>>(n, [&](auto& bk) {
      return ifft_program(bk, fft_program(bk, x));
    });
    expect_close(back.output, x, 1e-9 * static_cast<double>(n));
  }
}

TEST(Fft, LinearityOfTheTransform) {
  const std::uint64_t n = 256;
  const auto a = random_signal(n, 21);
  const auto b = random_signal(n, 22);
  std::vector<std::complex<double>> combo(n);
  const std::complex<double> ca(2.0, -1.0), cb(0.5, 3.0);
  for (std::uint64_t j = 0; j < n; ++j) combo[j] = ca * a[j] + cb * b[j];
  const auto fa = run_program<std::complex<double>>(
      n, [&](auto& bk) { return fft_program(bk, a); });
  const auto fb = run_program<std::complex<double>>(
      n, [&](auto& bk) { return fft_program(bk, b); });
  const auto fc = run_program<std::complex<double>>(
      n, [&](auto& bk) { return fft_program(bk, combo); });
  for (std::uint64_t k = 0; k < n; ++k) {
    const auto expected = ca * fa.output[k] + cb * fb.output[k];
    EXPECT_NEAR(std::abs(fc.output[k] - expected), 0.0, 1e-9);
  }
}

TEST(Fft, ParsevalEnergyConservation) {
  const std::uint64_t n = 512;
  const auto x = random_signal(n, 23);
  const auto spectrum = run_program<std::complex<double>>(
      n, [&](auto& bk) { return fft_program(bk, x); });
  double time_energy = 0, freq_energy = 0;
  for (const auto& v : x) time_energy += std::norm(v);
  for (const auto& v : spectrum.output) freq_energy += std::norm(v);
  EXPECT_NEAR(freq_energy, time_energy * static_cast<double>(n),
              1e-7 * time_energy * static_cast<double>(n));
}

TEST(Fft, LabelsFollowRecursiveStructure) {
  // Top-level supersteps carry label 0; level-1 segments of √n VPs carry
  // label log n / 2 (n a power of 4).
  const auto x = random_signal(256, 6);
  const auto run = run_program<std::complex<double>>(
      256, [&](auto& bk) { return fft_program(bk, x); });
  EXPECT_EQ(run.trace.S(0), 3u);  // three top-level transposes
  EXPECT_GT(run.trace.S(4), 0u);  // √256 = 16-VP segments -> label 4
}

}  // namespace
}  // namespace nobl
