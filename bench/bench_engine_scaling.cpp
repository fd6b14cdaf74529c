// E-ENG: execution-engine scaling — wall-clock speedup of the parallel
// superstep engine over the sequential reference, per kernel and thread
// count, at specification-model sizes v >= 2^12 where the per-superstep
// work is large enough to amortize the barrier.
//
// The report section first verifies (cheaply, on the FFT) that the two
// engines agree bit-for-bit at the bench size, then prints the speedup
// table; the binary exits 1 when the engines disagree. The google-benchmark section exposes the same runs to the timing
// harness: BM_*/threads:N, with threads == 0 meaning the sequential engine.
//
// Engine selection for the *other* bench binaries rides on
// execution_policy_from_env(): NOBL_ENGINE=par NOBL_THREADS=8 bench_fft.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "algorithms/bitonic.hpp"
#include "algorithms/fft.hpp"
#include "algorithms/matmul.hpp"
#include "algorithms/sort.hpp"
#include "bench_common.hpp"
#include "bsp/execution.hpp"
#include "util/table.hpp"

namespace nobl {
namespace {

constexpr std::uint64_t kV = std::uint64_t{1} << 12;  // 4096 VPs
constexpr unsigned kThreadGrid[] = {1, 2, 4, 8};

ExecutionPolicy policy_for(unsigned threads) {
  return threads == 0 ? ExecutionPolicy::sequential()
                      : ExecutionPolicy::parallel(threads);
}

struct Kernel {
  std::string name;
  std::function<void(const ExecutionPolicy&)> run;
};

std::vector<Kernel> kernels() {
  return {
      {"fft v=4096",
       [](const ExecutionPolicy& p) {
         (void)fft_oblivious(benchx::random_signal(kV, 11), true, p);
       }},
      {"bitonic v=4096",
       [](const ExecutionPolicy& p) {
         (void)bitonic_sort_oblivious(benchx::random_keys(kV, 12), p);
       }},
      {"columnsort v=4096",
       [](const ExecutionPolicy& p) {
         (void)sort_oblivious(benchx::random_keys(kV, 13), true, p);
       }},
      {"matmul v=4096",
       [](const ExecutionPolicy& p) {
         (void)matmul_oblivious(benchx::random_matrix(64, 14),
                                benchx::random_matrix(64, 15), true, p);
       }},
  };
}

double seconds_of(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

/// Prints the agreement check and the speedup table; returns false when
/// the engines disagree.
bool report() {
  benchx::banner("E-ENG  engine scaling: parallel speedup over sequential");

  // Bit-for-bit agreement spot check at the bench size.
  bool identical = true;
  {
    const auto signal = benchx::random_signal(kV, 11);
    const FftRun seq = fft_oblivious(signal);
    const FftRun par = fft_oblivious(signal, true, ExecutionPolicy::parallel(4));
    identical = seq.output == par.output &&
                seq.trace.supersteps() == par.trace.supersteps();
    for (std::size_t s = 0; identical && s < seq.trace.supersteps(); ++s) {
      identical = seq.trace.steps()[s].degree == par.trace.steps()[s].degree;
    }
    std::cout << "engine agreement at v=" << kV << ": "
              << (identical ? "bit-identical" : "MISMATCH — BUG") << "\n";
  }

  Table table("wall-clock per run (median-of-3), speedup vs sequential",
              {"kernel", "engine", "seconds", "speedup"});
  for (const Kernel& kernel : kernels()) {
    auto median3 = [&](const ExecutionPolicy& p) {
      std::vector<double> t;
      for (int rep = 0; rep < 3; ++rep) {
        t.push_back(seconds_of([&] { kernel.run(p); }));
      }
      std::sort(t.begin(), t.end());
      return t[1];
    };
    const double seq_s = median3(ExecutionPolicy::sequential());
    table.row().add(kernel.name).add("seq").add(seq_s).add(1.0);
    for (const unsigned threads : kThreadGrid) {
      const double par_s = median3(ExecutionPolicy::parallel(threads));
      table.row()
          .add(kernel.name)
          .add(to_string(ExecutionPolicy::parallel(threads)))
          .add(par_s)
          .add(par_s > 0 ? seq_s / par_s : 0.0);
    }
  }
  std::cout << table;
  return identical;
}

void BM_EngineFft(benchmark::State& state) {
  const auto signal = benchx::random_signal(kV, 11);
  const auto policy = policy_for(static_cast<unsigned>(state.range(0)));
  for (auto _ : state) {
    auto run = fft_oblivious(signal, true, policy);
    benchmark::DoNotOptimize(run.output);
  }
}
BENCHMARK(BM_EngineFft)->Arg(0)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_EngineBitonic(benchmark::State& state) {
  const auto keys = benchx::random_keys(kV, 12);
  const auto policy = policy_for(static_cast<unsigned>(state.range(0)));
  for (auto _ : state) {
    auto run = bitonic_sort_oblivious(keys, policy);
    benchmark::DoNotOptimize(run.output);
  }
}
BENCHMARK(BM_EngineBitonic)->Arg(0)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_EngineColumnsort(benchmark::State& state) {
  const auto keys = benchx::random_keys(kV, 13);
  const auto policy = policy_for(static_cast<unsigned>(state.range(0)));
  for (auto _ : state) {
    auto run = sort_oblivious(keys, true, policy);
    benchmark::DoNotOptimize(run.output);
  }
}
BENCHMARK(BM_EngineColumnsort)->Arg(0)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

}  // namespace
}  // namespace nobl

int main(int argc, char** argv) {
  const bool identical = nobl::report();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return identical ? 0 : 1;
}
