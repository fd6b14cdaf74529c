// E-T45 / E-C46: Theorem 4.5 and Corollary 4.6 — network-oblivious FFT.
#include "algorithms/fft.hpp"

#include "bench_common.hpp"
#include "util/stats.hpp"

namespace nobl {
namespace {

void report() {
  const AlgoEntry& fft = benchx::algo("fft");
  benchx::banner(
      "E-T45  Theorem 4.5: H_FFT = O((n/p + sigma) log n / log(n/p))");
  const auto runs = benchx::bench_runs("fft");
  std::cout << h_table("n-FFT vs Lemma 4.4 (Scquizzato-Silvestri Thm 11)",
                       runs, fft.predicted, fft.lower_bound);

  benchx::banner("Growth-shape check: log-log slope of H in p at sigma = 0");
  // H ~ (n/p)·log n/log(n/p): between p = 2 and p = sqrt(n) the slope in p
  // is close to -1 (the log factor bends it up slightly near p -> n).
  const auto& big = runs.back();
  std::vector<double> ps, hs;
  for (std::uint64_t p = 2; p * p <= big.n; p *= 2) {
    ps.push_back(static_cast<double>(p));
    hs.push_back(communication_complexity(big.trace, log2_exact(p), 0));
  }
  std::cout << "  slope(H vs p), p in [2, sqrt(n)], n = " << big.n << ": "
            << loglog_slope(ps, hs) << "  (ideal -1)\n";

  benchx::banner("E-W    wiseness");
  std::cout << wiseness_table("n-FFT wiseness across folds", runs);

  benchx::banner("E-C46  Corollary 4.6: D-BSP optimality");
  std::cout << dbsp_table("n-FFT on the standard suite (p = 64)", runs, 64,
                          fft.lower_bound);
}

void BM_FftOblivious(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  const auto x = benchx::random_signal(n, 5);
  for (auto _ : state) {
    auto run = run_program<std::complex<double>>(
        n, [&](auto& bk) { return fft_program(bk, x); }, benchx::engine());
    benchmark::DoNotOptimize(run.output);
  }
}
BENCHMARK(BM_FftOblivious)->Arg(256)->Arg(4096)->Arg(16384);

}  // namespace
}  // namespace nobl

int main(int argc, char** argv) {
  nobl::report();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
