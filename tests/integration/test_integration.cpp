// Cross-module integration tests: the full pipeline the benches rely on —
// algorithm execution -> trace -> serialization -> folding metrics ->
// optimality certification -> protocol transforms — exercised end to end.
#include <gtest/gtest.h>

#include <sstream>

#include "algorithms/broadcast.hpp"
#include "algorithms/fft.hpp"
#include "algorithms/matmul.hpp"
#include "algorithms/sort.hpp"
#include "algorithms/stencil1d.hpp"
#include "bsp/cost.hpp"
#include "bsp/topology.hpp"
#include "bsp/trace_io.hpp"
#include "core/experiment.hpp"
#include "core/lower_bounds.hpp"
#include "core/optimality.hpp"
#include "core/wiseness.hpp"
#include "dbsp/ascend_descend.hpp"
#include "util/rng.hpp"

namespace nobl {
namespace {

Matrix<long> random_matrix(std::uint64_t m, std::uint64_t seed) {
  Matrix<long> a(m, m);
  Xoshiro256 rng(seed);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      a(i, j) = static_cast<long>(rng.below(64));
    }
  }
  return a;
}

TEST(Integration, TraceSurvivesSerializationWithIdenticalCertification) {
  const auto ma = random_matrix(16, 1);
  const auto mb = random_matrix(16, 2);
  const auto run = run_program<MatmulMsg<long>>(
      256, [&](auto& bk) { return matmul_program(bk, ma, mb); });
  std::stringstream ss;
  write_trace_csv(ss, run.trace);
  const Trace restored = read_trace_csv(ss);

  const auto lower = [](std::uint64_t n, std::uint64_t p, double s) {
    return lb::matmul(n, p, s);
  };
  const auto sigmas = sigma_grid(256, 16);
  const auto a = certify_optimality(run.trace, 256, 4, lower, sigmas);
  const auto b = certify_optimality(restored, 256, 4, lower, sigmas);
  EXPECT_DOUBLE_EQ(a.alpha, b.alpha);
  EXPECT_DOUBLE_EQ(a.gamma, b.gamma);
  EXPECT_DOUBLE_EQ(a.beta_min, b.beta_min);
  for (const auto& params : topology::standard_suite(16)) {
    EXPECT_DOUBLE_EQ(communication_time(run.trace, params),
                     communication_time(restored, params));
  }
}

TEST(Integration, HIsMonotoneInSigmaAndDecreasingPerProcessorInP) {
  Xoshiro256 rng(3);
  std::vector<std::uint64_t> keys(512);
  for (auto& k : keys) k = rng.below(1ULL << 40);
  const auto run = run_program<std::uint64_t>(
      512, [&](auto& bk) { return sort_program(bk, keys); });
  for (unsigned log_p = 1; log_p <= run.trace.log_v(); ++log_p) {
    EXPECT_LE(communication_complexity(run.trace, log_p, 1.0),
              communication_complexity(run.trace, log_p, 2.0));
    if (log_p >= 2) {
      // Halving the machine can at most double the per-superstep degree and
      // never adds supersteps: H(p/2) <= 2·H(p) at sigma = 0.
      EXPECT_LE(communication_complexity(run.trace, log_p - 1, 0.0),
                2.0 * communication_complexity(run.trace, log_p, 0.0) + 1e-9);
    }
  }
}

TEST(Integration, DbspTimeBracketsByUniformMachines) {
  // For any monotone (g, ell): D is between the uniform machine with the
  // finest parameters and the one with the coarsest.
  Xoshiro256 rng(4);
  std::vector<std::complex<double>> x(1024);
  for (auto& v : x) v = {rng.unit(), rng.unit()};
  const auto run = run_program<std::complex<double>>(
      1024, [&](auto& bk) { return fft_program(bk, x); });
  for (const auto& params : topology::standard_suite(64)) {
    DbspParams lo;
    lo.g.assign(params.log_p(), params.g.back());
    lo.ell.assign(params.log_p(), params.ell.back());
    DbspParams hi;
    hi.g.assign(params.log_p(), params.g.front());
    hi.ell.assign(params.log_p(), params.ell.front());
    const double d = communication_time(run.trace, params);
    EXPECT_LE(communication_time(run.trace, lo), d + 1e-9) << params.name;
    EXPECT_GE(communication_time(run.trace, hi), d - 1e-9) << params.name;
  }
}

TEST(Integration, AscendDescendPreservesHUpToLogFactors) {
  // Theorem 5.3's H accounting: H(Ã) = O((1 + 1/γ) log²p · H(A)).
  const auto rod = [] {
    Xoshiro256 rng(5);
    std::vector<double> x(64);
    for (auto& v : x) v = rng.unit();
    return x;
  }();
  const auto run = run_program<double>(64, [&](auto& bk) {
    return stencil1_program(
        bk, rod, [](double l, double c, double r) { return l + c + r; });
  });
  for (const unsigned log_p : {2u, 4u, 6u}) {
    const Trace transformed = ascend_descend_transform(run.trace, log_p);
    const double h_a = communication_complexity(run.trace, log_p, 1.0);
    const double h_t = communication_complexity(transformed, log_p, 1.0);
    const double gamma = fullness_gamma(run.trace, log_p);
    ASSERT_GT(gamma, 0.0);
    const double lp = static_cast<double>(log_p);
    EXPECT_LE(h_t, 8.0 * (1.0 + 1.0 / gamma) * lp * lp * h_a)
        << "log_p=" << log_p;
  }
}

TEST(Integration, AwareAlgorithmFoldsLikeAnyMachineAlgorithm) {
  // Section 2: an M(p,σ)-algorithm is an M(p) algorithm once σ is fixed and
  // can itself be folded to smaller machines. The σ-aware broadcast's folds
  // stay within the Theorem 4.15 envelope of the *smaller* machines.
  const double sigma = 16.0;
  const auto run = run_program<std::uint64_t>(1024, [&](auto& bk) {
    return broadcast_program(bk, broadcast_aware_kappa(1024, sigma),
                             std::uint64_t{1});
  });
  for (unsigned log_p = 2; log_p <= run.trace.log_v(); ++log_p) {
    const double h = communication_complexity(run.trace, log_p, sigma);
    EXPECT_LE(h, 10.0 * lb::broadcast(1ULL << log_p, sigma))
        << "log_p=" << log_p;
  }
}

TEST(Integration, WisenessMonotoneUnderFoldRestriction) {
  // (α,p)-wise implies (α,p')-wise for p' <= p (the remark after Def. 3.2):
  // measured α can only go up when the fold shrinks... verified as: the
  // definition holds at p' with the α measured at p.
  const auto a = random_matrix(32, 5);
  const auto b = random_matrix(32, 6);
  const auto run = run_program<MatmulMsg<long>>(
      1024, [&](auto& bk) { return matmul_program(bk, a, b); });
  const unsigned log_v = run.trace.log_v();
  const double alpha_full = wiseness_alpha(run.trace, log_v);
  for (unsigned log_p = 1; log_p < log_v; ++log_p) {
    EXPECT_GE(wiseness_alpha(run.trace, log_p), alpha_full - 1e-12)
        << "log_p=" << log_p;
  }
}

}  // namespace
}  // namespace nobl
