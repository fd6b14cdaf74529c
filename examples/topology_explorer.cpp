// Topology explorer: one trace per algorithm, every D-BSP in the standard
// suite — the "run unchanged, yet efficiently, on a variety of machines"
// claim of the paper's abstract, made tangible.
//
// For each Section-4 algorithm we print the communication time on each
// topology together with the folding-derived D-BSP lower bound
// (core/optimality.hpp) and the measured wiseness α driving Theorem 3.4's
// guarantee αβ/(1+α).
//
// Build & run:  ./examples/topology_explorer
#include <iostream>
#include <vector>

#include "algorithms/fft.hpp"
#include "algorithms/matmul.hpp"
#include "algorithms/sort.hpp"
#include "bsp/cost.hpp"
#include "bsp/topology.hpp"
#include "core/lower_bounds.hpp"
#include "core/optimality.hpp"
#include "core/wiseness.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

nobl::Matrix<long> random_matrix(std::uint64_t m, std::uint64_t seed) {
  nobl::Matrix<long> a(m, m);
  nobl::Xoshiro256 rng(seed);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      a(i, j) = static_cast<long>(rng.below(100));
    }
  }
  return a;
}

}  // namespace

int main() {
  using namespace nobl;
  constexpr std::uint64_t p = 64;

  struct Entry {
    std::string name;
    std::uint64_t n;
    Trace trace;
    LowerBoundFn lower;
  };
  std::vector<Entry> entries;

  {
    const auto a = random_matrix(64, 1);
    const auto b = random_matrix(64, 2);
    auto run = run_program<MatmulMsg<long>>(
        4096, [&](auto& bk) { return matmul_program(bk, a, b); });
    entries.push_back({"matmul n=4096", 4096, std::move(run.trace),
                       [](std::uint64_t n, std::uint64_t pp, double s) {
                         return lb::matmul(n, pp, s);
                       }});
  }
  {
    Xoshiro256 rng(3);
    std::vector<std::complex<double>> x(4096);
    for (auto& v : x) v = {rng.unit(), rng.unit()};
    auto run = run_program<std::complex<double>>(
        4096, [&](auto& bk) { return fft_program(bk, x); });
    entries.push_back({"fft n=4096", 4096, std::move(run.trace),
                       [](std::uint64_t n, std::uint64_t pp, double s) {
                         return lb::fft(n, pp, s);
                       }});
  }
  {
    Xoshiro256 rng(4);
    std::vector<std::uint64_t> keys(4096);
    for (auto& k : keys) k = rng.below(1ULL << 32);
    auto run = run_program<std::uint64_t>(
        4096, [&](auto& bk) { return sort_program(bk, keys); });
    entries.push_back({"sort n=4096", 4096, std::move(run.trace),
                       [](std::uint64_t n, std::uint64_t pp, double s) {
                         return lb::sort(n, pp, s);
                       }});
  }

  for (const auto& entry : entries) {
    const unsigned log_p = log2_exact(p);
    Table t(entry.name + " on every topology (p = 64), one trace",
            {"topology", "D measured", "D lower bound", "ratio"});
    for (const auto& params : topology::standard_suite(p)) {
      const double d = communication_time(entry.trace, params);
      const double lower = dbsp_lower_bound(entry.lower, entry.n, params);
      t.row().add(params.name).add(d).add(lower).add(
          lower > 0 ? d / lower : 0.0);
    }
    std::cout << t << "  wiseness alpha(p=64) = "
              << wiseness_alpha(entry.trace, log_p) << "\n\n";
  }
  std::cout << "Same binaries, same traces - only the (g, ell) vectors "
               "changed.\n";
  return 0;
}
