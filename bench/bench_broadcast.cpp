// E-T415 / E-T416: Theorems 4.15 and 4.16 — broadcast, and the limits of
// the oblivious approach.
#include "algorithms/broadcast.hpp"

#include "bench_common.hpp"
#include "core/lower_bounds.hpp"
#include "core/predictions.hpp"

namespace nobl {
namespace {

void report() {
  benchx::banner(
      "E-T415 Theorem 4.15: the sigma-aware kappa-ary broadcast meets "
      "Omega(max{2,sigma} log_{max{2,sigma}} p)");
  Table t("aware broadcast vs the lower bound",
          {"p", "sigma", "kappa chosen", "H measured", "lower bound",
           "meas/LB"});
  for (const std::uint64_t p : {64u, 1024u, 16384u}) {
    for (const double sigma : {0.0, 4.0, 32.0, 256.0, 4096.0}) {
      const std::uint64_t kappa = broadcast_aware_kappa(p, sigma);
      const auto run = run_program<std::uint64_t>(
          p,
          [&](auto& bk) {
            return broadcast_program(bk, kappa, std::uint64_t{1});
          },
          benchx::engine());
      const double h =
          communication_complexity(run.trace, run.trace.log_v(), sigma);
      const double lower = lb::broadcast(p, sigma);
      t.row().add(p).add(sigma).add(kappa).add(h).add(lower).add(h / lower);
    }
  }
  std::cout << t;

  benchx::banner(
      "E-T416 Theorem 4.16: any oblivious broadcast pays a growing GAP");
  Table g("fixed-fanout broadcasts vs the best sigma-adapted algorithm, "
          "p = 4096",
          {"fanout kappa", "sigma range", "measured GAP",
           "theorem LB on GAP"});
  const std::uint64_t p = 4096;
  for (const std::uint64_t kappa : {2u, 8u, 64u}) {
    const auto run = run_program<std::uint64_t>(
        p,
        [&](auto& bk) {
          return broadcast_program(bk, kappa, std::uint64_t{1});
        },
        benchx::engine());
    for (const double sigma2 : {16.0, 256.0, 65536.0}) {
      g.row()
          .add(kappa)
          .add("[0, " + Table::format_double(sigma2) + "]")
          .add(broadcast_gap_measured(run.trace, run.trace.log_v(), 0,
                                      sigma2))
          .add(lb::broadcast_gap(0, sigma2));
    }
  }
  std::cout << g
            << "\nNo fanout column stays flat as sigma2 grows: obliviousness "
               "provably costs here\n(contrast with the Theta(1)-optimal "
               "tables of the other benches).\n";

  benchx::banner("Crossover: which fixed fanout wins at which sigma");
  Table c("H(p = 4096, sigma) of fixed-fanout trees",
          {"sigma", "kappa=2", "kappa=8", "kappa=64", "aware (adaptive)"});
  for (const double sigma : {0.0, 2.0, 8.0, 64.0, 1024.0}) {
    c.row().add(sigma);
    for (const std::uint64_t kappa :
         {std::uint64_t{2}, std::uint64_t{8}, std::uint64_t{64},
          broadcast_aware_kappa(p, sigma)}) {
      const auto run = run_program<std::uint64_t>(
          p,
          [&](auto& bk) {
            return broadcast_program(bk, kappa, std::uint64_t{1});
          },
          benchx::engine());
      c.add(communication_complexity(run.trace, run.trace.log_v(), sigma));
    }
  }
  std::cout << c;
}

void BM_BroadcastAware(benchmark::State& state) {
  const auto p = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    auto run = run_program<std::uint64_t>(
        p,
        [&](auto& bk) {
          return broadcast_program(bk, broadcast_aware_kappa(p, 16.0),
                                   std::uint64_t{1});
        },
        benchx::engine());
    benchmark::DoNotOptimize(run.output);
  }
}
BENCHMARK(BM_BroadcastAware)->Arg(1024)->Arg(65536);

}  // namespace
}  // namespace nobl

int main(int argc, char** argv) {
  nobl::report();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
