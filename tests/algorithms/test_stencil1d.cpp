#include "algorithms/stencil1d.hpp"

#include <gtest/gtest.h>

#include "bsp/cost.hpp"
#include "bsp/topology.hpp"
#include "core/lower_bounds.hpp"
#include "core/predictions.hpp"
#include "core/wiseness.hpp"
#include "util/rng.hpp"

namespace nobl {
namespace {

std::vector<double> random_input(std::uint64_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<double> x(n);
  for (auto& v : x) v = rng.unit() * 2 - 1;
  return x;
}

double heat(double l, double c, double r) { return 0.25 * l + 0.5 * c + 0.25 * r; }

class Stencil1Correctness : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Stencil1Correctness, MatchesSequentialReference) {
  const std::uint64_t n = GetParam();
  const auto input = random_input(n, n + 1);
  const auto run = run_program<double>(
      n, [&](auto& bk) { return stencil1_program(bk, input, heat); });
  const auto ref = stencil1_reference(input, heat);
  for (std::uint64_t t = 0; t < n; ++t) {
    for (std::uint64_t x = 0; x < n; ++x) {
      ASSERT_DOUBLE_EQ(run.output(t, x), ref(t, x))
          << "n=" << n << " t=" << t << " x=" << x;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, Stencil1Correctness,
                         ::testing::Values(2u, 4u, 8u, 16u, 32u, 64u, 128u,
                                           256u));

TEST(Stencil1, RowwiseBaselineMatchesReference) {
  const auto input = random_input(64, 9);
  const auto run = run_program<double>(
      64, [&](auto& bk) { return stencil1_rowwise_program(bk, input, heat); });
  const auto ref = stencil1_reference(input, heat);
  for (std::uint64_t t = 0; t < 64; ++t) {
    for (std::uint64_t x = 0; x < 64; ++x) {
      ASSERT_DOUBLE_EQ(run.output(t, x), ref(t, x));
    }
  }
}

TEST(Stencil1, KOverrideStillCorrect) {
  // Ablation hook: other recursion widths produce the same values.
  const auto input = random_input(64, 10);
  const auto ref = stencil1_reference(input, heat);
  for (const std::uint64_t k : {2u, 4u, 16u}) {
    const auto run = run_program<double>(64, [&](auto& bk) {
      return stencil1_program(bk, input, heat, true, k);
    });
    for (std::uint64_t t = 0; t < 64; ++t) {
      for (std::uint64_t x = 0; x < 64; ++x) {
        ASSERT_DOUBLE_EQ(run.output(t, x), ref(t, x)) << "k=" << k;
      }
    }
  }
}

TEST(Stencil1, NonlinearRule) {
  // The schedule is value-agnostic: max-plus works as well as averaging.
  const auto input = random_input(32, 11);
  const auto rule = [](double l, double c, double r) {
    return std::max({l + 0.5, c, r - 0.25});
  };
  const auto run = run_program<double>(
      32, [&](auto& bk) { return stencil1_program(bk, input, rule); });
  const auto ref = stencil1_reference(input, rule);
  for (std::uint64_t t = 0; t < 32; ++t) {
    for (std::uint64_t x = 0; x < 32; ++x) {
      ASSERT_DOUBLE_EQ(run.output(t, x), ref(t, x));
    }
  }
}

TEST(Stencil1, SuperstepCensusMatchesPaper) {
  // §4.4.1: (2k−1)^i supersteps of label (i−1)·log k at every level i.
  // n = 256: k = 2^⌈√8⌉ = 8, radices 8·8·4, labels 0 / 3 / 6.
  const std::uint64_t n = 256;
  const DiamondSchedule sched(n);
  const auto input = random_input(n, 12);
  const auto run = run_program<double>(
      n, [&](auto& bk) { return stencil1_program(bk, input, heat); });
  EXPECT_EQ(sched.leaf_steps(), 15u * 15u * 7u);
  EXPECT_EQ(sched.total_steps(), 15u + 15u * 15u + 15u * 15u * 7u);
  EXPECT_EQ(run.trace.supersteps(), sched.total_steps());
  EXPECT_EQ(run.trace.S(0), 15u);
  EXPECT_EQ(run.trace.S(3), 225u);
  EXPECT_EQ(run.trace.S(6), 1575u);
  EXPECT_EQ(sched.level_label(1), 0u);
  EXPECT_EQ(sched.level_label(2), 3u);
  EXPECT_EQ(sched.level_label(3), 6u);
}

TEST(Stencil1, CommunicationWithinTheorem411Envelope) {
  const std::uint64_t n = 256;
  const auto input = random_input(n, 13);
  const auto run = run_program<double>(
      n, [&](auto& bk) { return stencil1_program(bk, input, heat); });
  for (unsigned log_p = 1; log_p <= run.trace.log_v(); ++log_p) {
    const std::uint64_t p = 1ULL << log_p;
    const double sigma_max = static_cast<double>(n) / static_cast<double>(p);
    for (const double sigma : {0.0, sigma_max}) {
      const double measured =
          communication_complexity(run.trace, log_p, sigma);
      // Theorem 4.11: O(n·4^{√log n}) for σ = O(n/p).
      EXPECT_LE(measured, 8.0 * predict::stencil1_closed(n))
          << "p=" << p << " sigma=" << sigma;
    }
    // And at least the Lemma 4.10 lower bound Ω(n).
    EXPECT_GE(communication_complexity(run.trace, log_p, 0.0),
              0.5 * lb::stencil(n, 1, p, 0.0));
  }
}

TEST(Stencil1, WiseAtEveryFold) {
  const auto input = random_input(64, 14);
  const auto run = run_program<double>(
      64, [&](auto& bk) { return stencil1_program(bk, input, heat); });
  for (unsigned log_p = 1; log_p <= run.trace.log_v(); ++log_p) {
    EXPECT_GE(wiseness_alpha(run.trace, log_p), 0.1) << "log_p=" << log_p;
    EXPECT_TRUE(folding_inequality_holds(run.trace, log_p));
  }
}

TEST(Stencil1, DiamondBeatsRowwiseOnLatencyBoundMachines) {
  // The point of the decomposition: on a high-latency machine the row-wise
  // schedule pays n·ℓ_0 while the diamond schedule localizes most barriers.
  const std::uint64_t n = 256;
  const auto input = random_input(n, 15);
  const auto diamond = run_program<double>(
      n, [&](auto& bk) { return stencil1_program(bk, input, heat); });
  const auto rowwise = run_program<double>(
      n, [&](auto& bk) { return stencil1_rowwise_program(bk, input, heat); });
  const auto params = topology::uniform(4, 1.0, 1000.0);
  EXPECT_LT(communication_time(diamond.trace, params),
            0.25 * communication_time(rowwise.trace, params));
}

TEST(Stencil1, ScheduleGeometryInvariants) {
  const DiamondSchedule sched(64);
  // Every leaf is active in exactly one leaf step; input supersteps cover
  // every cross-band boundary pair of the matching class exactly once.
  std::vector<int> seen(64 * 64, 0);
  std::uint64_t leaf_steps = 0;
  sched.for_each_step([&](const DiamondSchedule::Step& step) {
    if (!step.is_leaf(sched)) {
      for (const auto& t : sched.boundary_transfers(step)) {
        ASSERT_LT(t.beta + 1, 64u);
        ASSERT_LT(t.alpha_lo, t.alpha_hi);
        ASSERT_EQ(sched.pair_class(t.beta), step.level);
      }
      return;
    }
    ++leaf_steps;
    const auto active = sched.active_leaves(step.prefix);
    ASSERT_EQ(active.beta.size(), active.alpha.size());
    for (std::size_t i = 0; i < active.beta.size(); ++i) {
      ASSERT_LT(active.beta[i], 64u);
      ASSERT_LT(active.alpha[i], 64u);
      if (i > 0) {
        ASSERT_GT(active.beta[i], active.beta[i - 1]);
      }
      seen[active.alpha[i] * 64 + active.beta[i]] += 1;
    }
  });
  EXPECT_EQ(leaf_steps, sched.leaf_steps());
  for (const int count : seen) EXPECT_EQ(count, 1);
}

TEST(Stencil1, ValidatesInput) {
  const std::vector<double> three(3, 0.0);
  auto stencil = [&](auto& bk) { return stencil1_program(bk, three, heat); };
  EXPECT_THROW((void)run_program<double>(3, stencil), std::invalid_argument);
  EXPECT_THROW(DiamondSchedule(1), std::invalid_argument);
  EXPECT_THROW(DiamondSchedule(64, 3), std::invalid_argument);
}

}  // namespace
}  // namespace nobl
