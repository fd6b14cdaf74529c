// E-SCAN: the two-sweep tree prefix-scan — an exact closed form, and the
// tree-pattern twin of the Section 4.5 broadcast limitation.
#include "algorithms/scan.hpp"

#include "bench_common.hpp"
#include "core/lower_bounds.hpp"
#include "core/predictions.hpp"
#include "core/wiseness.hpp"

namespace nobl {
namespace {

void report() {
  const AlgoEntry& scan = benchx::algo("scan");
  benchx::banner("E-SCAN  H_scan(n,p,sigma) = 2 log p (1 + sigma), exactly");
  const auto runs = benchx::bench_runs("scan");
  std::cout << h_table("n-scan vs the gather/scatter bound (Thm 4.15 dual)",
                       runs, scan.predicted, scan.lower_bound);

  Table exact("closed form is exact: measured / predicted across folds",
              {"n", "p", "sigma", "H measured", "2 log p (1+sigma)",
               "ratio"});
  for (const auto& run : runs) {
    for (const std::uint64_t p : {2u, 64u, 1024u}) {
      if (p > run.trace.v()) continue;
      const unsigned log_p = log2_exact(p);
      for (const double sigma : {0.0, 8.0}) {
        const double h = communication_complexity(run.trace, log_p, sigma);
        const double pred = scan.predicted(run.n, p, sigma);
        exact.row().add(run.n).add(p).add(sigma).add(h).add(pred).add(
            h / pred);
      }
    }
  }
  std::cout << exact;

  benchx::banner(
      "Tree limitation (Thm 4.16 pattern): fixed fanout pays a GAP at "
      "large sigma, and folding cannot densify a tree (alpha = 2/p)");
  Table gap("scan vs the sigma-adapted gather cost, largest run",
            {"p", "sigma", "H scan", "best aware gather", "GAP"});
  const auto& big = runs.back();
  for (const std::uint64_t p : {64u, 1024u, 16384u}) {
    if (p > big.trace.v()) continue;
    const unsigned log_p = log2_exact(p);
    for (const double sigma : {0.0, 4.0, 64.0, 1024.0}) {
      const double h = communication_complexity(big.trace, log_p, sigma);
      const double best = lb::scan(p, sigma);
      gap.row().add(p).add(sigma).add(h).add(best).add(h / best);
    }
  }
  std::cout << gap;

  benchx::banner("E-W    wiseness");
  std::cout << wiseness_table("n-scan wiseness across folds", runs);
}

void BM_ScanOblivious(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  const auto values = benchx::random_addends(n, 11);
  for (auto _ : state) {
    auto run = run_program<std::uint64_t>(
        n, [&](auto& bk) { return scan_program(bk, values); },
        benchx::engine());
    benchmark::DoNotOptimize(run.output);
  }
}
BENCHMARK(BM_ScanOblivious)->Arg(1024)->Arg(16384)->Arg(65536);

}  // namespace
}  // namespace nobl

int main(int argc, char** argv) {
  nobl::report();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
