// The analytic backend (core/analytic.hpp): closed-form synthesizers must
// reproduce the executed kernels' traces bit for bit, and analytic, cost and
// simulate must agree on the trace and on H at every (kernel, n, fold, σ)
// cell.
#include "core/analytic.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <vector>

#include "bsp/backend.hpp"
#include "bsp/cost.hpp"
#include "core/registry.hpp"

namespace nobl {
namespace {

void expect_traces_identical(const Trace& a, const Trace& b) {
  ASSERT_EQ(a.log_v(), b.log_v());
  ASSERT_EQ(a.supersteps(), b.supersteps());
  for (std::size_t s = 0; s < a.supersteps(); ++s) {
    EXPECT_EQ(a.steps()[s].label, b.steps()[s].label) << "superstep " << s;
    EXPECT_EQ(a.steps()[s].degree, b.steps()[s].degree) << "superstep " << s;
    EXPECT_EQ(a.steps()[s].messages, b.steps()[s].messages)
        << "superstep " << s;
  }
}

Trace run_backend(const AlgoEntry& entry, std::uint64_t n, BackendKind kind) {
  RunOptions options;
  options.backend = kind;
  return entry.runner(n, options);
}

TEST(Analytic, SynthesizersMatchExecutedTracesBitForBit) {
  // Every kernel carrying a closed-form synthesizer must produce, for every
  // admitted size in its sweeps, the exact superstep/degree/message trace
  // the cost interpreter derives by running the program.
  std::size_t synthesized = 0;
  for (const AlgoEntry& entry : AlgoRegistry::instance().entries()) {
    if (entry.analytic == nullptr) continue;
    std::vector<std::uint64_t> sizes = entry.smoke_sizes;
    sizes.insert(sizes.end(), entry.bench_sizes.begin(),
                 entry.bench_sizes.end());
    if (entry.admits(1)) sizes.push_back(1);
    for (const std::uint64_t n : sizes) {
      SCOPED_TRACE(entry.name + " n=" + std::to_string(n));
      expect_traces_identical(run_backend(entry, n, BackendKind::kCost),
                              entry.analytic(n));
      ++synthesized;
    }
  }
  EXPECT_GE(synthesized, 6u);  // at least one size per exact kernel
}

TEST(Analytic, HAgreesAcrossAnalyticCostSimulateEverywhere) {
  // Every kernel at every smoke size, σ-randomized: the analytic trace must
  // equal the cost interpreter's, and the H surface — every fold, every σ —
  // must be bitwise-identical under analytic, cost, and simulate. This is
  // the `nobl check` conformance rule as a unit test.
  std::mt19937_64 rng(20260807);
  std::uniform_real_distribution<double> sigma_dist(0.0, 8.0);
  for (const AlgoEntry& entry : AlgoRegistry::instance().entries()) {
    for (const std::uint64_t n : entry.smoke_sizes) {
      SCOPED_TRACE(entry.name + " n=" + std::to_string(n));
      const Trace analytic = run_backend(entry, n, BackendKind::kAnalytic);
      const Trace cost = run_backend(entry, n, BackendKind::kCost);
      const Trace simulate = run_backend(entry, n, BackendKind::kSimulate);
      expect_traces_identical(analytic, cost);
      const std::vector<double> sigmas{0.0, 1.0, sigma_dist(rng),
                                       sigma_dist(rng)};
      for (unsigned log_p = 0; log_p <= analytic.log_v(); ++log_p) {
        for (const double sigma : sigmas) {
          const double h = communication_complexity(analytic, log_p, sigma);
          EXPECT_EQ(h, communication_complexity(cost, log_p, sigma))
              << "p=" << (1u << log_p) << " sigma=" << sigma;
          EXPECT_EQ(h, communication_complexity(simulate, log_p, sigma))
              << "p=" << (1u << log_p) << " sigma=" << sigma;
        }
      }
    }
  }
}

}  // namespace
}  // namespace nobl
