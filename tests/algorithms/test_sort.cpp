#include "algorithms/sort.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "bsp/cost.hpp"
#include "core/lower_bounds.hpp"
#include "core/predictions.hpp"
#include "core/wiseness.hpp"
#include "util/rng.hpp"

namespace nobl {
namespace {

std::vector<std::uint64_t> random_keys(std::uint64_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<std::uint64_t> keys(n);
  for (auto& k : keys) k = rng.below(std::uint64_t{1} << 40);
  return keys;
}

class SortCorrectness : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SortCorrectness, SortsRandomKeys) {
  const std::uint64_t n = GetParam();
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    auto keys = random_keys(n, seed * 7 + n);
    const auto run = run_program<std::uint64_t>(
        n, [&](auto& bk) { return sort_program(bk, keys); });
    std::sort(keys.begin(), keys.end());
    EXPECT_EQ(run.output, keys) << "n=" << n << " seed=" << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, SortCorrectness,
                         ::testing::Values(1u, 2u, 4u, 8u, 16u, 32u, 64u,
                                           128u, 256u, 512u, 1024u));

TEST(Sort, AdversarialPatterns) {
  for (const std::uint64_t n : {64u, 256u, 1024u}) {
    // Already sorted, reverse sorted, all equal, two-valued.
    std::vector<std::uint64_t> asc(n);
    std::iota(asc.begin(), asc.end(), 0u);
    std::vector<std::uint64_t> desc(asc.rbegin(), asc.rend());
    std::vector<std::uint64_t> same(n, 42);
    std::vector<std::uint64_t> organ(n);
    for (std::uint64_t i = 0; i < n; ++i) organ[i] = i % 2 ? 7 : 3;
    for (const auto* keys : {&asc, &desc, &same, &organ}) {
      auto want = *keys;
      std::sort(want.begin(), want.end());
      const auto run = run_program<std::uint64_t>(
          n, [&](auto& bk) { return sort_program(bk, *keys); });
      EXPECT_EQ(run.output, want) << "n=" << n;
    }
  }
}

TEST(Sort, RejectsNonPowerOfTwoInput) {
  std::vector<std::uint64_t> three(3, 0);
  auto sort = [&](auto& bk) { return sort_program(bk, three); };
  EXPECT_THROW((void)run_program<std::uint64_t>(3, sort),
               std::invalid_argument);
}

TEST(Sort, FullWidthKeys) {
  std::vector<std::uint64_t> keys{~std::uint64_t{0}, 0, std::uint64_t{1} << 63,
                                  42};
  const auto run = run_program<std::uint64_t>(
      4, [&](auto& bk) { return sort_program(bk, keys); });
  auto sorted = keys;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(run.output, sorted);
}

TEST(Sort, CommunicationMatchesTheorem48) {
  const std::uint64_t n = 1024;
  const auto keys = random_keys(n, 3);
  const auto run = run_program<std::uint64_t>(
      n, [&](auto& bk) { return sort_program(bk, keys); });
  for (unsigned log_p = 1; log_p <= run.trace.log_v(); ++log_p) {
    const std::uint64_t p = 1ULL << log_p;
    for (const double sigma : {0.0, 2.0}) {
      const double measured =
          communication_complexity(run.trace, log_p, sigma);
      const double predicted = predict::sort(n, p, sigma);
      EXPECT_LE(measured, 30.0 * predicted) << "p=" << p << " s=" << sigma;
      // The lower-bound side uses the FFT/sort lower bound (Lemma 4.7).
      EXPECT_GE(measured, 0.3 * lb::sort(n, p, sigma)) << "p=" << p;
    }
  }
}

TEST(Sort, OptimalForSublinearParallelism) {
  // Theorem 4.8: Θ(1)-optimality for p = O(n^{1-δ}); at small p the
  // polylog sorting premium vanishes.
  const std::uint64_t n = 1024;
  const auto keys = random_keys(n, 4);
  const auto run = run_program<std::uint64_t>(
      n, [&](auto& bk) { return sort_program(bk, keys); });
  for (unsigned log_p = 1; log_p <= 5; ++log_p) {  // p <= 32 = n^{1/2}
    const double h = communication_complexity(run.trace, log_p, 0.0);
    EXPECT_LE(h, 25.0 * lb::sort(n, 1ULL << log_p, 0.0))
        << "log_p=" << log_p;
  }
}

TEST(Sort, WiseAtEveryFold) {
  const auto keys = random_keys(256, 5);
  const auto run = run_program<std::uint64_t>(
      256, [&](auto& bk) { return sort_program(bk, keys); });
  for (unsigned log_p = 1; log_p <= run.trace.log_v(); ++log_p) {
    EXPECT_GE(wiseness_alpha(run.trace, log_p), 0.2) << "log_p=" << log_p;
    EXPECT_TRUE(folding_inequality_holds(run.trace, log_p));
  }
}

TEST(Sort, SuperstepCountIsPolylog) {
  // Θ((log n)^{log_{3/2} 4}) supersteps at full parallelism.
  const auto keys256 = random_keys(256, 6);
  const auto keys1024 = random_keys(1024, 6);
  const auto run256 = run_program<std::uint64_t>(
      256, [&](auto& bk) { return sort_program(bk, keys256); });
  const auto run1024 = run_program<std::uint64_t>(
      1024, [&](auto& bk) { return sort_program(bk, keys1024); });
  EXPECT_LT(run1024.trace.supersteps(), 8 * run256.trace.supersteps());
  EXPECT_LT(run1024.trace.supersteps(), 3000u);
}

TEST(Sort, DummiesDoNotChangeOutput) {
  const auto keys = random_keys(128, 7);
  const auto with = run_program<std::uint64_t>(
      128, [&](auto& bk) { return sort_program(bk, keys, true); });
  const auto without = run_program<std::uint64_t>(
      128, [&](auto& bk) { return sort_program(bk, keys, false); });
  EXPECT_EQ(with.output, without.output);
}

}  // namespace
}  // namespace nobl
