#include "algorithms/broadcast.hpp"

#include <gtest/gtest.h>

#include <utility>

#include "core/lower_bounds.hpp"
#include "core/predictions.hpp"

namespace nobl {
namespace {

void expect_all_received(const std::vector<std::uint64_t>& values,
                         std::uint64_t value) {
  for (std::size_t r = 0; r < values.size(); ++r) {
    EXPECT_EQ(values[r], value) << "VP " << r;
  }
}

class BroadcastSweep
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, double>> {};

TEST_P(BroadcastSweep, AwareDeliversEverywhere) {
  const auto [v, sigma] = GetParam();
  const std::uint64_t kappa = broadcast_aware_kappa(v, sigma);
  const auto run = run_program<std::uint64_t>(v, [&](auto& bk) {
    return broadcast_program(bk, kappa, std::uint64_t{77});
  });
  expect_all_received(run.output, 77);
}

TEST_P(BroadcastSweep, AwareMeetsTheorem415Bound) {
  const auto [v, sigma] = GetParam();
  if (v < 2) return;
  const std::uint64_t kappa = broadcast_aware_kappa(v, sigma);
  const auto run = run_program<std::uint64_t>(v, [&](auto& bk) {
    return broadcast_program(bk, kappa, std::uint64_t{1});
  });
  const double h =
      communication_complexity(run.trace, run.trace.log_v(), sigma);
  EXPECT_LE(h, 8.0 * lb::broadcast(v, sigma)) << "v=" << v << " s=" << sigma;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, BroadcastSweep,
    ::testing::Combine(::testing::Values(1u, 2u, 16u, 256u, 4096u),
                       ::testing::Values(0.0, 1.0, 4.0, 33.0, 1000.0)));

TEST(Broadcast, ObliviousDeliversEverywhere) {
  for (const std::uint64_t kappa : {2u, 4u, 16u}) {
    const auto run = run_program<std::uint64_t>(1024, [&](auto& bk) {
      return broadcast_program(bk, kappa, std::uint64_t{5});
    });
    expect_all_received(run.output, 5);
  }
}

TEST(Broadcast, ObliviousMatchesClosedForm) {
  // H of the fixed-fanout tree = (κ-1+σ)·log_κ p exactly (unit messages).
  const auto run = run_program<std::uint64_t>(1024, [&](auto& bk) {
    return broadcast_program(bk, 2, std::uint64_t{1});
  });
  for (const double sigma : {0.0, 8.0, 64.0}) {
    const double h =
        communication_complexity(run.trace, run.trace.log_v(), sigma);
    EXPECT_DOUBLE_EQ(h, predict::broadcast_oblivious(1024, sigma, 2));
  }
}

TEST(Broadcast, AwareBeatsObliviousAtLargeSigma) {
  // The core of §4.5: for σ >> the fanout the oblivious binary tree pays
  // log₂p·σ while the aware algorithm pays ~σ·log_σ p.
  const std::uint64_t v = 4096;
  const double sigma = 512.0;
  const std::uint64_t kappa = broadcast_aware_kappa(v, sigma);
  const auto aware = run_program<std::uint64_t>(v, [&](auto& bk) {
    return broadcast_program(bk, kappa, std::uint64_t{1});
  });
  const auto oblivious = run_program<std::uint64_t>(v, [&](auto& bk) {
    return broadcast_program(bk, 2, std::uint64_t{1});
  });
  const double h_aware =
      communication_complexity(aware.trace, aware.trace.log_v(), sigma);
  const double h_obl = communication_complexity(
      oblivious.trace, oblivious.trace.log_v(), sigma);
  EXPECT_LT(3.0 * h_aware, h_obl);
}

TEST(Broadcast, GapGrowsWithSigmaRange) {
  // Theorem 4.16: any oblivious algorithm's GAP grows with σ2.
  const auto run = run_program<std::uint64_t>(4096, [&](auto& bk) {
    return broadcast_program(bk, 2, std::uint64_t{1});
  });
  const unsigned log_p = run.trace.log_v();
  const double gap_small = broadcast_gap_measured(run.trace, log_p, 0, 4);
  const double gap_large =
      broadcast_gap_measured(run.trace, log_p, 0, 4096);
  EXPECT_GT(gap_large, 2.0 * gap_small);
  // And it respects the theorem's lower bound at unit constants (up to a
  // modest factor on the measured side).
  EXPECT_GE(4.0 * gap_large, lb::broadcast_gap(0, 4096));
}

TEST(Broadcast, SuperstepCountMatchesKappa) {
  // Aware: κ = 2^⌈log σ⌉ = 32 at σ = 20 -> 2 rounds on p = 1024.
  EXPECT_EQ(broadcast_aware_kappa(1024, 20.0), 32u);
  EXPECT_EQ(broadcast_aware_kappa(1024, 0.0), 2u);
  for (const auto& [kappa, rounds] :
       {std::pair<std::uint64_t, std::uint64_t>{2, 10}, {32, 2}}) {
    const auto run = run_program<std::uint64_t>(1024, [&](auto& bk) {
      return broadcast_program(bk, kappa, std::uint64_t{1});
    });
    EXPECT_EQ(run.trace.supersteps(), rounds) << "kappa=" << kappa;
  }
}

TEST(Broadcast, LabelsTrackShrinkingClusters) {
  const auto run = run_program<std::uint64_t>(64, [&](auto& bk) {
    return broadcast_program(bk, 2, std::uint64_t{1});
  });
  unsigned expected = 0;
  for (const auto& s : run.trace.steps()) {
    EXPECT_EQ(s.label, expected);
    ++expected;
  }
}

TEST(Broadcast, Validation) {
  for (const auto& [v, kappa] :
       {std::pair<std::uint64_t, std::uint64_t>{24, 2}, {16, 3}}) {
    auto broadcast = [&](auto& bk) {
      return broadcast_program(bk, kappa, std::uint64_t{1});
    };
    EXPECT_THROW((void)run_program<std::uint64_t>(v, broadcast),
                 std::invalid_argument)
        << "v=" << v << " kappa=" << kappa;
  }
  EXPECT_THROW((void)broadcast_gap_measured(Trace(3), 3, 8, 4),
               std::invalid_argument);
}

TEST(Broadcast, TrivialMachine) {
  const std::uint64_t kappa = broadcast_aware_kappa(1, 10.0);
  const auto run = run_program<std::uint64_t>(1, [&](auto& bk) {
    return broadcast_program(bk, kappa, std::uint64_t{9});
  });
  EXPECT_EQ(run.output.size(), 1u);
  EXPECT_EQ(run.output[0], 9u);
  EXPECT_EQ(run.trace.supersteps(), 1u);
}

}  // namespace
}  // namespace nobl
