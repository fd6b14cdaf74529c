// E-ENG: execution-engine scaling — wall-clock of the parallel superstep
// engine against the sequential reference, per kernel and thread count, at
// specification-model sizes v >= 2^12 where the per-superstep work is large
// enough to amortize the barrier.
//
// The report section verifies (cheaply, on the FFT) that the two engines
// agree bit-for-bit at the bench size; the binary exits 1 when they
// disagree. The google-benchmark section times the kernels:
// BM_Engine<kernel>/N, with N == 0 meaning the sequential engine and N > 0
// the parallel engine on N threads; the speedup is the ratio of the two.
//
// Engine selection for the *other* bench binaries rides on
// execution_policy_from_env(): NOBL_ENGINE=par NOBL_THREADS=8 bench_fft.
#include <cstddef>
#include <cstdint>
#include <iostream>

#include "algorithms/bitonic.hpp"
#include "algorithms/fft.hpp"
#include "algorithms/matmul.hpp"
#include "algorithms/sort.hpp"
#include "bench_common.hpp"
#include "bsp/execution.hpp"

namespace nobl {
namespace {

constexpr std::uint64_t kV = std::uint64_t{1} << 12;  // 4096 VPs

ExecutionPolicy policy_for(unsigned threads) {
  return threads == 0 ? ExecutionPolicy::sequential()
                      : ExecutionPolicy::parallel(threads);
}

/// Prints the bit-for-bit agreement check at the bench size; returns false
/// when the engines disagree.
bool report() {
  benchx::banner("E-ENG  engine scaling: parallel against sequential");
  const auto signal = benchx::random_signal(kV, 11);
  auto fft = [&](auto& bk) { return fft_program(bk, signal); };
  const auto seq = run_program<std::complex<double>>(kV, fft);
  const auto par = run_program<std::complex<double>>(
      kV, fft, ExecutionPolicy::parallel(4));
  bool identical = seq.output == par.output &&
                   seq.trace.supersteps() == par.trace.supersteps();
  for (std::size_t s = 0; identical && s < seq.trace.supersteps(); ++s) {
    identical = seq.trace.steps()[s].degree == par.trace.steps()[s].degree;
  }
  std::cout << "engine agreement at v=" << kV << ": "
            << (identical ? "bit-identical" : "MISMATCH — BUG") << "\n";
  return identical;
}

void BM_EngineFft(benchmark::State& state) {
  const auto signal = benchx::random_signal(kV, 11);
  const auto policy = policy_for(static_cast<unsigned>(state.range(0)));
  for (auto _ : state) {
    auto run = run_program<std::complex<double>>(
        kV, [&](auto& bk) { return fft_program(bk, signal); }, policy);
    benchmark::DoNotOptimize(run.output);
  }
}
BENCHMARK(BM_EngineFft)->Arg(0)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_EngineBitonic(benchmark::State& state) {
  const auto keys = benchx::random_keys(kV, 12);
  const auto policy = policy_for(static_cast<unsigned>(state.range(0)));
  for (auto _ : state) {
    auto run = run_program<std::uint64_t>(
        kV, [&](auto& bk) { return bitonic_sort_program(bk, keys); }, policy);
    benchmark::DoNotOptimize(run.output);
  }
}
BENCHMARK(BM_EngineBitonic)->Arg(0)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_EngineColumnsort(benchmark::State& state) {
  const auto keys = benchx::random_keys(kV, 13);
  const auto policy = policy_for(static_cast<unsigned>(state.range(0)));
  for (auto _ : state) {
    auto run = run_program<std::uint64_t>(
        kV, [&](auto& bk) { return sort_program(bk, keys); }, policy);
    benchmark::DoNotOptimize(run.output);
  }
}
BENCHMARK(BM_EngineColumnsort)->Arg(0)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_EngineMatmul(benchmark::State& state) {
  const auto a = benchx::random_matrix(64, 14);
  const auto b = benchx::random_matrix(64, 15);
  const auto policy = policy_for(static_cast<unsigned>(state.range(0)));
  for (auto _ : state) {
    auto run = run_program<MatmulMsg<long>>(
        64 * 64, [&](auto& bk) { return matmul_program(bk, a, b); }, policy);
    benchmark::DoNotOptimize(run.output);
  }
}
BENCHMARK(BM_EngineMatmul)->Arg(0)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

}  // namespace
}  // namespace nobl

int main(int argc, char** argv) {
  const bool identical = nobl::report();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return identical ? 0 : 1;
}
