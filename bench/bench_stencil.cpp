// E-F1 / E-T411 / E-C412: Figure 1 and Theorem 4.11 — the (n,1)-stencil
// diamond decomposition.
//
// Figure 1 census: per recursion level, the number of supersteps and their
// labels — Π_{j<=i}(2k_j − 1) supersteps of label (i−1)·log k.
// Theorem 4.11: H = O(n·4^{√log n}) for σ = O(n/p); the algorithm is
// Ω(1/4^{√log n})-optimal against Lemma 4.10's Ω(n).
#include "algorithms/stencil1d.hpp"

#include "bench_common.hpp"
#include "bsp/topology.hpp"
#include "core/predictions.hpp"

namespace nobl {
namespace {

double heat(double l, double c, double r) {
  return 0.25 * l + 0.5 * c + 0.25 * r;
}

void report() {
  const AlgoEntry& stencil1 = benchx::algo("stencil1");
  benchx::banner(
      "E-F1   Figure 1: recursive diamond decomposition census "
      "(stripes/phases per level)");
  for (const std::uint64_t n : {64u, 256u, 1024u}) {
    const DiamondSchedule sched(n);
    const AlgoRun run{n, stencil1.runner(n, benchx::engine())};
    Table t("n = " + std::to_string(n) + ", k = " + std::to_string(sched.k()) +
                ", radices per level as below",
            {"level i", "radix k_i", "label (i-1)logk", "supersteps S^label",
             "paper: prod (2k_j-1)"});
    std::uint64_t expected = 1;
    for (unsigned level = 1; level <= sched.depth(); ++level) {
      expected *= 2 * sched.radices()[level - 1] - 1;
      const unsigned label = sched.level_label(level);
      t.row()
          .add(level)
          .add(sched.radices()[level - 1])
          .add(label)
          .add(run.trace.S(label))
          .add(expected);
    }
    std::cout << t;
  }

  benchx::banner(
      "E-T411 Theorem 4.11: H = O(n 4^{sqrt(log n)}) for sigma = O(n/p)");
  const auto runs = benchx::bench_runs("stencil1");
  std::cout << h_table("(n,1)-stencil vs the closed form and Lemma 4.10",
                       runs, stencil1.predicted, stencil1.lower_bound);

  Table gap("measured optimality factor vs the theorem's 1/4^{sqrt(log n)}",
            {"n", "H(p=v, sigma=0)", "LB", "LB/H (beta)",
             "1/4^{sqrt(log n)}"});
  for (const auto& run : runs) {
    const double h =
        communication_complexity(run.trace, run.trace.log_v(), 0);
    const double lower = stencil1.lower_bound(run.n, run.trace.v(), 0);
    gap.row()
        .add(run.n)
        .add(h)
        .add(lower)
        .add(lower / h)
        .add(static_cast<double>(run.n) / predict::stencil1_closed(run.n));
  }
  std::cout << gap;

  benchx::banner("E-C412 D-BSP communication time + row-wise ablation");
  std::cout << dbsp_table("(n,1)-stencil on the standard suite (p = 16)",
                          runs, 16, stencil1.lower_bound);
  Table ab("ablation: diamond vs row-wise schedule, D on uniform(p=4, "
           "ell = 1000)",
           {"n", "D diamond", "D row-wise", "row/diamond"});
  for (const std::uint64_t n : {64u, 256u, 1024u}) {
    const auto rod = benchx::random_rod(n, n + 7);
    const auto d = run_program<double>(
        n, [&](auto& bk) { return stencil1_program(bk, rod, heat); },
        benchx::engine());
    const auto r = run_program<double>(
        n, [&](auto& bk) { return stencil1_rowwise_program(bk, rod, heat); },
        benchx::engine());
    const auto params = topology::uniform(4, 1.0, 1000.0);
    const double dd = communication_time(d.trace, params);
    const double dr = communication_time(r.trace, params);
    ab.row().add(n).add(dd).add(dr).add(dr / dd);
  }
  std::cout << ab;

  benchx::banner("Ablation: recursion width k (paper: k = 2^{ceil sqrt log n})");
  Table ka("H(p = v, sigma = 0) and supersteps as k varies, n = 256",
           {"k", "supersteps", "H", "D on hypercube(16)"});
  for (const std::uint64_t k : {2u, 4u, 8u, 16u}) {
    const auto rod = benchx::random_rod(256, 3);
    const auto run = run_program<double>(
        256,
        [&](auto& bk) { return stencil1_program(bk, rod, heat, true, k); },
        benchx::engine());
    ka.row()
        .add(k)
        .add(run.trace.supersteps())
        .add(communication_complexity(run.trace, run.trace.log_v(), 0))
        .add(communication_time(run.trace, topology::hypercube(16)));
  }
  std::cout << ka;
}

void BM_Stencil1Diamond(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  const auto rod = benchx::random_rod(n, 11);
  for (auto _ : state) {
    auto run = run_program<double>(
        n, [&](auto& bk) { return stencil1_program(bk, rod, heat); },
        benchx::engine());
    benchmark::DoNotOptimize(run.output);
  }
}
BENCHMARK(BM_Stencil1Diamond)->Arg(64)->Arg(256);

}  // namespace
}  // namespace nobl

int main(int argc, char** argv) {
  nobl::report();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
