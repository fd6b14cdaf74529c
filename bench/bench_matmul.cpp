// E-T42 / E-C43: Theorem 4.2 and Corollary 4.3 — network-oblivious matrix
// multiplication.
//
// Tables: measured H(n,p,σ) against the paper's O(n/p^{2/3} + σ log p) and
// Lemma 4.1's Ω(n/p^{2/3} + σ); wiseness (Def. 3.2); D-BSP communication
// time vs the folding-derived lower bound on the standard topology suite;
// memory blow-up audit (Θ(n^{1/3}) per VP).
#include "algorithms/matmul.hpp"

#include "bench_common.hpp"

namespace nobl {
namespace {

void report() {
  const AlgoEntry& matmul = benchx::algo("matmul");
  benchx::banner(
      "E-T42  Theorem 4.2: H_MM(n,p,sigma) = O(n/p^{2/3} + sigma log p)");
  const auto runs = benchx::bench_runs("matmul");
  std::cout << h_table("n-MM: measured vs predicted vs Lemma 4.1", runs,
                       matmul.predicted, matmul.lower_bound);

  benchx::banner("E-W    Definition 3.2/5.2: wiseness and fullness");
  std::cout << wiseness_table("n-MM wiseness across folds", runs);

  benchx::banner(
      "E-C43  Corollary 4.3: D-BSP optimality for ell0/g0 = O(n/p)");
  std::cout << dbsp_table("n-MM on the standard topology suite (p = 64)",
                          runs, 64, matmul.lower_bound);

  benchx::banner("Memory blow-up audit (Theta(n^{1/3}) per VP)");
  Table t("peak matrix entries resident at any VP",
          {"n", "peak entries", "n^(1/3)", "peak / n^(1/3)"});
  for (const std::uint64_t m : {8u, 64u, 128u}) {
    const auto a = benchx::random_matrix(m, 2 * m);
    const auto b = benchx::random_matrix(m, 2 * m + 1);
    const auto run = run_program<MatmulMsg<long>>(
        m * m, [&](auto& bk) { return matmul_program(bk, a, b); },
        benchx::engine());
    const double n = static_cast<double>(m) * static_cast<double>(m);
    const double root = std::cbrt(n);
    t.row()
        .add(static_cast<std::uint64_t>(n))
        .add(static_cast<std::uint64_t>(run.output.peak_vp_entries))
        .add(root)
        .add(static_cast<double>(run.output.peak_vp_entries) / root);
  }
  std::cout << t;
}

void BM_MatmulOblivious(benchmark::State& state) {
  const auto m = static_cast<std::uint64_t>(state.range(0));
  const auto a = benchx::random_matrix(m, 1);
  const auto b = benchx::random_matrix(m, 2);
  std::uint64_t messages = 0;
  for (auto _ : state) {
    auto run = run_program<MatmulMsg<long>>(
        m * m, [&](auto& bk) { return matmul_program(bk, a, b); },
        benchx::engine());
    benchmark::DoNotOptimize(run.output);
    messages = run.trace.total_messages();
  }
  state.counters["VPs"] = static_cast<double>(m * m);
  state.counters["messages"] = static_cast<double>(messages);
}
BENCHMARK(BM_MatmulOblivious)->Arg(8)->Arg(32)->Arg(64);

}  // namespace
}  // namespace nobl

int main(int argc, char** argv) {
  nobl::report();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
