// E-T413: Theorem 4.13 — the (n,2)-stencil schedule.
#include "algorithms/stencil2d.hpp"

#include "bench_common.hpp"
#include "core/predictions.hpp"
#include "core/wiseness.hpp"

namespace nobl {
namespace {

void report() {
  const AlgoEntry& stencil2 = benchx::algo("stencil2");
  benchx::banner(
      "E-T413 Theorem 4.13: H_2-stencil = O((n^2/sqrt(p)) 8^{sqrt(log n)})");
  Table t("17-stage octahedron/tetrahedron schedule (cost-faithful; "
          "DESIGN.md substitution)",
          {"n", "v = n^2", "p", "sigma", "H measured", "H predicted",
           "meas/pred", "LB (Lemma 4.10)", "meas/LB"});
  for (const std::uint64_t n : {16u, 64u, 128u}) {
    const Trace trace = stencil2.runner(n, benchx::engine());
    const std::uint64_t v = n * n;
    for (const std::uint64_t p : {4u, 64u, static_cast<unsigned>(v)}) {
      const unsigned log_p = log2_exact(p);
      for (const double sigma :
           {0.0, static_cast<double>(v / p)}) {
        const double measured =
            communication_complexity(trace, log_p, sigma);
        const double predicted = stencil2.predicted(n, p, sigma);
        const double lower = stencil2.lower_bound(n, p, sigma);
        t.row()
            .add(n)
            .add(v)
            .add(p)
            .add(sigma)
            .add(measured)
            .add(predicted)
            .add(measured / predicted)
            .add(lower)
            .add(measured / lower);
      }
    }
  }
  std::cout << t;

  benchx::banner("Schedule census: per-level phases (4k-3 stripes)");
  Table c("per-level superstep counts", {"n", "k", "level labels S^label"});
  for (const std::uint64_t n : {16u, 64u}) {
    const Trace trace = stencil2.runner(n, benchx::engine());
    std::string labels;
    for (unsigned i = 0; i <= trace.max_label(); ++i) {
      const auto count = trace.S(i);
      if (count) {
        labels += "S^" + std::to_string(i) + "=" +
                  std::to_string(count) + "  ";
      }
    }
    c.row().add(n).add(predict::stencil_k(n)).add(labels);
  }
  std::cout << c;

  benchx::banner("E-W    wiseness of the schedule");
  Table w("alpha at selected folds", {"n", "p=4", "p=64", "p=v"});
  for (const std::uint64_t n : {16u, 64u}) {
    const Trace trace = stencil2.runner(n, benchx::engine());
    w.row()
        .add(n)
        .add(wiseness_alpha(trace, 2))
        .add(wiseness_alpha(trace, 6))
        .add(wiseness_alpha(trace, trace.log_v()));
  }
  std::cout << w;
}

void BM_Stencil2Schedule(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    auto run = run_program<std::uint8_t>(
        n * n, [&](auto& bk) { return stencil2_program(bk, n); },
        benchx::engine());
    benchmark::DoNotOptimize(run.trace);
  }
}
BENCHMARK(BM_Stencil2Schedule)->Arg(16)->Arg(64);

void BM_Stencil2Reference(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  Matrix<double> plane(n, n, 1.0);
  const auto rule = [](const std::array<double, 9>& h) {
    double s = 0;
    for (const double x : h) s += x;
    return s / 9.0;
  };
  for (auto _ : state) {
    auto out = stencil2_reference(plane, rule, 8);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_Stencil2Reference)->Arg(32)->Arg(64);

}  // namespace
}  // namespace nobl

int main(int argc, char** argv) {
  nobl::report();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
