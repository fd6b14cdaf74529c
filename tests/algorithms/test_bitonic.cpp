#include "algorithms/bitonic.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "algorithms/sort.hpp"
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
  for (auto& k : keys) k = rng.below(std::uint64_t{1} << 50);
  return keys;
}

class BitonicCorrectness : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BitonicCorrectness, SortsRandomKeys) {
  const std::uint64_t n = GetParam();
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    auto keys = random_keys(n, seed + n);
    const auto run = run_program<std::uint64_t>(
        n, [&](auto& bk) { return bitonic_sort_program(bk, keys); });
    std::sort(keys.begin(), keys.end());
    EXPECT_EQ(run.output, keys) << "n=" << n << " seed=" << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, BitonicCorrectness,
                         ::testing::Values(1u, 2u, 4u, 8u, 32u, 128u, 512u,
                                           2048u));

TEST(Bitonic, AdversarialPatterns) {
  std::vector<std::uint64_t> asc(256);
  std::iota(asc.begin(), asc.end(), 0u);
  std::vector<std::uint64_t> desc(asc.rbegin(), asc.rend());
  std::vector<std::uint64_t> same(256, 9);
  for (const auto* keys : {&asc, &desc, &same}) {
    auto want = *keys;
    std::sort(want.begin(), want.end());
    const auto run = run_program<std::uint64_t>(
        256, [&](auto& bk) { return bitonic_sort_program(bk, *keys); });
    EXPECT_EQ(run.output, want);
  }
}

TEST(Bitonic, StageCountIsQuadraticInLogN) {
  const auto keys = random_keys(1024, 1);
  const auto run = run_program<std::uint64_t>(
      1024, [&](auto& bk) { return bitonic_sort_program(bk, keys); });
  EXPECT_EQ(run.trace.supersteps(), 10u * 11u / 2u);
}

TEST(Bitonic, EveryStageIsAOneRelation) {
  const auto keys = random_keys(256, 2);
  const auto run = run_program<std::uint64_t>(
      256, [&](auto& bk) { return bitonic_sort_program(bk, keys); });
  for (const auto& s : run.trace.steps()) {
    EXPECT_EQ(s.degree[run.trace.log_v()], 1u);
  }
}

TEST(Bitonic, MeasuredHMatchesClosedFormExactly) {
  const std::uint64_t n = 1024;
  const auto keys = random_keys(n, 3);
  const auto run = run_program<std::uint64_t>(
      n, [&](auto& bk) { return bitonic_sort_program(bk, keys); });
  for (const std::uint64_t p : {2u, 16u, 256u, 1024u}) {
    for (const double sigma : {0.0, 4.0}) {
      EXPECT_DOUBLE_EQ(
          communication_complexity(run.trace, log2_exact(p), sigma),
          bitonic_predicted(n, p, sigma))
          << "p=" << p << " sigma=" << sigma;
    }
  }
}

TEST(Bitonic, ConstantsVsAsymptotics) {
  // The honest crossover story (also the bench table): at every testable
  // size bitonic's unit constants beat Columnsort's measured H, because at
  // fixed p bitonic's crossing-stage count is *constant* in n while its
  // advantage per key shrinks. Asymptotically (fixed p, n -> inf) the
  // closed forms flip: Columnsort's (log n / log(n/p))^{log_{3/2}4} factor
  // tends to 1 while bitonic keeps its ~(log p · (log p+1)/2) stages —
  // checked on the formulas at n = 2^12 vs n = 2^40.
  const std::uint64_t n = 4096;
  const auto keys = random_keys(n, 4);
  const auto bit = run_program<std::uint64_t>(
      n, [&](auto& bk) { return bitonic_sort_program(bk, keys); });
  const auto col = run_program<std::uint64_t>(
      n, [&](auto& bk) { return sort_program(bk, keys); });
  const double hb = communication_complexity(bit.trace, 6, 0.0);
  const double hc = communication_complexity(col.trace, 6, 0.0);
  EXPECT_LT(hb, hc);  // constants win at practical sizes

  const double ratio_small =
      bitonic_predicted(1ULL << 12, 64, 0.0) / predict::sort(1ULL << 12, 64, 0.0);
  const double ratio_huge =
      bitonic_predicted(1ULL << 40, 64, 0.0) / predict::sort(1ULL << 40, 64, 0.0);
  EXPECT_GT(ratio_huge, 2.0 * ratio_small);  // bitonic decays relative to sort
}

TEST(Bitonic, WiseAtEveryFold) {
  const auto keys = random_keys(256, 6);
  const auto run = run_program<std::uint64_t>(
      256, [&](auto& bk) { return bitonic_sort_program(bk, keys); });
  for (unsigned log_p = 1; log_p <= run.trace.log_v(); ++log_p) {
    EXPECT_GE(wiseness_alpha(run.trace, log_p), 0.5) << log_p;
    EXPECT_TRUE(folding_inequality_holds(run.trace, log_p));
  }
}

TEST(Bitonic, Validation) {
  const std::vector<std::uint64_t> keys(3);
  auto sort = [&](auto& bk) { return bitonic_sort_program(bk, keys); };
  EXPECT_THROW((void)run_program<std::uint64_t>(3, sort),
               std::invalid_argument);
  EXPECT_THROW((void)bitonic_predicted(64, 128, 0.0), std::invalid_argument);
  EXPECT_THROW((void)bitonic_predicted(63, 8, 0.0), std::invalid_argument);
}

}  // namespace
}  // namespace nobl
