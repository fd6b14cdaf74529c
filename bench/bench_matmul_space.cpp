// E-MMS: Section 4.1.1 — space-efficient matrix multiplication.
//
// Tables: H(n,p,σ) against O(n/√p + σ√p) and the Irony et al. lower bound
// for constant-memory algorithms; the communication/space trade-off against
// the Θ(n^{1/3})-blow-up algorithm of Theorem 4.2; wiseness.
#include "algorithms/matmul_space.hpp"

#include "algorithms/matmul.hpp"
#include "bench_common.hpp"

namespace nobl {
namespace {

void report() {
  const AlgoEntry& matmul_space = benchx::algo("matmul-space");
  benchx::banner(
      "E-MMS  Section 4.1.1: H_MM-space(n,p,sigma) = O(n/sqrt(p) + "
      "sigma sqrt(p))");
  const auto runs = benchx::bench_runs("matmul-space");
  std::cout << h_table("space-efficient n-MM vs Irony-Toledo-Tiskin bound",
                       runs, matmul_space.predicted,
                       matmul_space.lower_bound);

  benchx::banner("Communication/space trade-off (same n, both algorithms)");
  Table t("H at sigma = 0, fold p, n = 4096",
          {"p", "H cube-root blow-up", "H constant memory", "space / cube"});
  const auto a = benchx::random_matrix(64, 1);
  const auto b = benchx::random_matrix(64, 2);
  const auto cube = run_program<MatmulMsg<long>>(
      4096, [&](auto& bk) { return matmul_program(bk, a, b); },
      benchx::engine());
  const auto flat = run_program<MatmulSpaceMsg<long>>(
      4096, [&](auto& bk) { return matmul_space_program(bk, a, b); },
      benchx::engine());
  for (std::uint64_t p = 4; p <= 4096; p *= 4) {
    const unsigned log_p = log2_exact(p);
    const double hc = communication_complexity(cube.trace, log_p, 0);
    const double hs = communication_complexity(flat.trace, log_p, 0);
    t.row().add(p).add(hc).add(hs).add(hs / hc);
  }
  std::cout << t << "\n  peak VP entries: cube-root variant = "
            << cube.output.peak_vp_entries
            << ", constant-memory variant = " << matmul_space_peak_entries(4096)
            << " (stack of " << matmul_space_peak_entries(4096) / 3
            << " levels)\n";

  benchx::banner("E-W    wiseness of the space-efficient recursion");
  std::cout << wiseness_table("space-efficient n-MM", runs);
}

void BM_MatmulSpace(benchmark::State& state) {
  const auto m = static_cast<std::uint64_t>(state.range(0));
  const auto a = benchx::random_matrix(m, 3);
  const auto b = benchx::random_matrix(m, 4);
  for (auto _ : state) {
    auto run = run_program<MatmulSpaceMsg<long>>(
        m * m, [&](auto& bk) { return matmul_space_program(bk, a, b); },
        benchx::engine());
    benchmark::DoNotOptimize(run.output);
  }
}
BENCHMARK(BM_MatmulSpace)->Arg(8)->Arg(32);

}  // namespace
}  // namespace nobl

int main(int argc, char** argv) {
  nobl::report();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
