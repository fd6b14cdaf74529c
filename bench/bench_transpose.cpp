// E-TRANS: recursive block matrix transposition — exact bandwidth under
// whole-row folds, and the D-BSP payoff of exposing permutation locality
// level by level instead of as one flat 0-superstep.
#include "algorithms/transpose.hpp"

#include "algorithms/primitives.hpp"
#include "bench_common.hpp"
#include "bsp/topology.hpp"
#include "core/lower_bounds.hpp"
#include "core/predictions.hpp"

namespace nobl {
namespace {

/// The flat alternative: the whole permutation in a single 0-superstep
/// (primitives.hpp::transpose). Same messages, no locality structure.
Trace flat_transpose_trace(std::uint64_t m, const ExecutionPolicy& policy) {
  auto values = benchx::random_matrix(m, m).data();
  auto run = run_program<long>(
      m * m, [&](auto& bk) { transpose(bk, std::span<long>(values), m, m); },
      policy);
  return std::move(run.trace);
}

void report() {
  const AlgoEntry& entry = benchx::algo("transpose");
  benchx::banner(
      "E-TRANS  H_T(n,p,sigma) = (n/p)(1 - 1/p) + sigma log p for p <= "
      "sqrt(n), matching the counting bound on the bandwidth term");
  const auto runs = benchx::bench_runs("transpose");
  std::cout << h_table("n-transposition vs the counting lower bound", runs,
                       entry.predicted, entry.lower_bound);

  benchx::banner("E-W    wiseness (Theta(1)-wise with no dummy traffic)");
  std::cout << wiseness_table("n-transposition wiseness across folds", runs);

  benchx::banner(
      "Ablation: recursive levels vs one flat 0-superstep. Equal message "
      "volume; the recursion trades log p barriers of latency for "
      "confining depth-d traffic to level-d clusters (cheap deep g_d)");
  Table ab("D-BSP communication time, recursive / flat",
           {"n", "topology", "p", "D recursive", "D flat", "rec/flat"});
  for (const std::uint64_t m : {32u, 64u}) {
    const auto a = benchx::random_matrix(m, m);
    const auto rec = run_program<long>(
        m * m, [&](auto& bk) { return transpose_program(bk, a); },
        benchx::engine());
    const Trace flat = flat_transpose_trace(m, benchx::engine());
    for (const DbspParams& params : topology::standard_suite(64)) {
      ab.row()
          .add(m * m)
          .add(params.name)
          .add(params.p())
          .add(communication_time(rec.trace, params))
          .add(communication_time(flat, params))
          .add(communication_time(rec.trace, params) /
               communication_time(flat, params));
    }
  }
  std::cout << ab
            << "\nThe flat permutation charges every message the root gap "
               "g_0 but syncs once;\nthe recursive schedule pays depth-d "
               "traffic at the cheaper g_d at the price of\nlog p "
               "barriers. Bandwidth-bound regimes (larger n/p, steep g "
               "gradients: meshes,\nlinear array at n=4096) reward the "
               "locality; latency-bound ones favor the flat\nsuperstep — "
               "the D-BSP tradeoff surface in one table.\n";
}

void BM_TransposeOblivious(benchmark::State& state) {
  const auto m = static_cast<std::uint64_t>(state.range(0));
  const auto a = benchx::random_matrix(m, 13);
  for (auto _ : state) {
    auto run = run_program<long>(
        m * m, [&](auto& bk) { return transpose_program(bk, a); },
        benchx::engine());
    benchmark::DoNotOptimize(run.output);
  }
}
BENCHMARK(BM_TransposeOblivious)->Arg(32)->Arg(64)->Arg(128);

}  // namespace
}  // namespace nobl

int main(int argc, char** argv) {
  nobl::report();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
