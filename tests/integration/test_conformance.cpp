// Conformance suite: invariants every specification-model algorithm must
// satisfy, run uniformly over all of them. Complements the per-algorithm
// suites with breadth: the producers are the AlgoRegistry's entries at
// each of their smoke sizes, so any new algorithm added to the registry is
// automatically held to the framework's contracts.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "algorithms/broadcast.hpp"
#include "bsp/backend.hpp"
#include "bsp/cost.hpp"
#include "bsp/topology.hpp"
#include "bsp/trace_io.hpp"
#include "core/registry.hpp"
#include "core/wiseness.hpp"

namespace nobl {
namespace {

struct Producer {
  std::string name;  ///< a gtest parameter name: [A-Za-z0-9_] only
  std::function<Trace()> make;
};

/// The sigma-aware broadcast is no registry kernel: its fanout depends on
/// the machine's sigma, which a network-oblivious entry may not know.
Trace broadcast_aware_trace() {
  const std::uint64_t kappa = broadcast_aware_kappa(256, 8.0);
  auto run = run_program<std::uint64_t>(256, [&](auto& bk) {
    return broadcast_program(bk, kappa, std::uint64_t{1});
  });
  return std::move(run.trace);
}

std::vector<Producer> producers() {
  std::vector<Producer> out;
  for (const AlgoEntry& entry : AlgoRegistry::instance().entries()) {
    std::string name = entry.name;
    std::replace(name.begin(), name.end(), '-', '_');
    for (const std::uint64_t n : entry.smoke_sizes) {
      out.push_back({name + "_" + std::to_string(n),
                     [&entry, n] { return entry.runner(n, RunOptions{}); }});
    }
  }
  out.push_back({"broadcast_aware", broadcast_aware_trace});
  return out;
}

class Conformance : public ::testing::TestWithParam<Producer> {};

TEST_P(Conformance, FoldingInequalityAtEveryFold) {
  const Trace trace = GetParam().make();
  for (unsigned log_p = 1; log_p <= trace.log_v(); ++log_p) {
    EXPECT_TRUE(folding_inequality_holds(trace, log_p)) << "fold " << log_p;
  }
}

TEST_P(Conformance, DegreesNestAcrossFolds) {
  // Per superstep: h(2^j) <= 2·h(2^{j+1}) and h(2^j) <= (v/2^j)·h(v).
  const Trace trace = GetParam().make();
  const unsigned log_v = trace.log_v();
  for (const auto& s : trace.steps()) {
    for (unsigned j = 1; j < log_v; ++j) {
      EXPECT_LE(s.degree[j], 2 * s.degree[j + 1]);
      EXPECT_LE(s.degree[j], (trace.v() >> j) * s.degree[log_v]);
    }
  }
}

TEST_P(Conformance, HMonotoneInSigmaAndBoundedAcrossFolds) {
  const Trace trace = GetParam().make();
  for (unsigned log_p = 1; log_p <= trace.log_v(); ++log_p) {
    double prev = -1;
    for (const double sigma : {0.0, 1.0, 8.0, 64.0}) {
      const double h = communication_complexity(trace, log_p, sigma);
      EXPECT_GE(h, prev);
      prev = h;
    }
    if (log_p >= 2) {
      EXPECT_LE(communication_complexity(trace, log_p - 1, 0.0),
                2.0 * communication_complexity(trace, log_p, 0.0) + 1e-9);
    }
  }
}

TEST_P(Conformance, SerializationPreservesAllCosts) {
  const Trace trace = GetParam().make();
  std::stringstream ss;
  write_trace_csv(ss, trace);
  const Trace restored = read_trace_csv(ss);
  for (unsigned log_p = 1; log_p <= trace.log_v(); ++log_p) {
    EXPECT_DOUBLE_EQ(communication_complexity(restored, log_p, 3.0),
                     communication_complexity(trace, log_p, 3.0));
    EXPECT_DOUBLE_EQ(wiseness_alpha(restored, log_p),
                     wiseness_alpha(trace, log_p));
  }
}

TEST_P(Conformance, DbspTimeOrderedByTopologyStrength) {
  // With equal g0/ell0 scales the hypercube's (g, ell) vectors are
  // pointwise dominated by both mesh families, so its D never loses. (Mesh
  // vs linear array is NOT pointwise ordered at the deepest level — 2·√2 >
  // 2 — so only the hypercube comparisons are invariants.)
  const Trace trace = GetParam().make();
  const std::uint64_t p = std::min<std::uint64_t>(64, trace.v());
  if (p < 4) return;
  const double cube = communication_time(trace, topology::hypercube(p));
  const double mesh = communication_time(trace, topology::mesh(p, 2));
  const double line = communication_time(trace, topology::linear_array(p));
  EXPECT_LE(cube, mesh + 1e-9);
  EXPECT_LE(cube, line + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, Conformance,
                         ::testing::ValuesIn(producers()),
                         [](const auto& param_info) {
                           return param_info.param.name;
                         });

}  // namespace
}  // namespace nobl
