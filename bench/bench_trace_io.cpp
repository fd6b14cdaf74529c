// Trace store I/O: the two serialization formats head to head.
//
// Every registry kernel's smoke trace is serialized both ways — the
// human-readable CSV (bsp/trace_io.hpp) and the binary columnar block
// format (bsp/trace_store.hpp: delta-encoded degree columns, varint
// packing, per-block CRCs) — and the tables report
//
//   * file size per format and the bin/csv ratio (smaller is better),
//   * write throughput in supersteps/second (write_trace_bin vs CSV
//     formatting),
//   * read throughput in supersteps/second (read_trace_bin's checksummed
//     decode into a Trace vs CSV parsing).
//
// Acceptance bar (ISSUE 7): on the dense all-to-all — the degree-heaviest
// pattern M(v) can produce, driven at bulk dummy-burst intensity so the
// fold degrees carry the magnitudes a v = 2^12 dense certification run
// sees — the binary format is at least 4x smaller than the CSV. CSV pays
// one decimal digit per order of magnitude in EVERY cell of EVERY
// superstep line; the delta columns collapse repeated supersteps to
// zero-varints, so steady-state block size is constant in the magnitude.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <sstream>
#include <string>

#include "bench_common.hpp"
#include "bsp/backend.hpp"
#include "bsp/trace_io.hpp"
#include "util/table.hpp"

namespace nobl {
namespace {

/// Dense all-to-all trace: `supersteps` label-0 rounds in which every VP
/// sends a burst of `burst` dummy messages to every destination (v² sends
/// of multiplicity `burst` per round).
Trace dense_trace(std::uint64_t v, unsigned supersteps,
                  std::uint64_t burst = 1) {
  CostBackend backend(v);
  for (unsigned s = 0; s < supersteps; ++s) {
    backend.superstep(0, [v, burst](auto& vp) {
      for (std::uint64_t dst = 0; dst < v; ++dst) vp.send_dummy(dst, burst);
    });
  }
  return std::move(backend).take_trace();
}

std::string to_csv(const Trace& trace) {
  std::ostringstream os;
  write_trace_csv(os, trace);
  return os.str();
}

std::string to_bin(const Trace& trace) {
  std::ostringstream os;
  write_trace_bin(os, trace);
  return os.str();
}

Trace from_bin(const std::string& bin) {
  std::istringstream in(bin);
  return read_trace_bin(in);
}

/// Supersteps/second for one serialization or parse body, best of three
/// samples (noise only subtracts on a shared box).
template <typename Body>
double supersteps_per_second(std::uint64_t supersteps, unsigned reps,
                             Body&& body) {
  double best = 0.0;
  for (int sample = 0; sample < 3; ++sample) {
    const auto t0 = std::chrono::steady_clock::now();
    for (unsigned rep = 0; rep < reps; ++rep) body();
    const std::chrono::duration<double> dt =
        std::chrono::steady_clock::now() - t0;
    best = std::max(best,
                    static_cast<double>(supersteps) * reps / dt.count());
  }
  return best;
}

void size_and_throughput_table() {
  Table t("trace serialization per registry kernel (smoke size)",
          {"algorithm", "n", "supersteps", "csv bytes", "bin bytes",
           "bin/csv", "bin write ss/s", "bin read ss/s", "csv write ss/s",
           "csv read ss/s"});
  double worst_ratio = 0.0;
  for (const AlgoEntry& entry : AlgoRegistry::instance().entries()) {
    const std::uint64_t n = entry.smoke_sizes.back();
    const Trace trace = entry.runner(n, RunOptions{BackendKind::kCost});
    const std::string csv = to_csv(trace);
    const std::string bin = to_bin(trace);
    const double ratio =
        static_cast<double>(bin.size()) / static_cast<double>(csv.size());
    worst_ratio = std::max(worst_ratio, ratio);
    const std::uint64_t ss = trace.supersteps();
    // Enough reps to spend milliseconds per sample even on tiny traces.
    const auto reps = static_cast<unsigned>(20'000 / std::max<std::uint64_t>(
                                                         ss, 1) +
                                            1);
    const double bin_write = supersteps_per_second(ss, reps, [&] {
      benchmark::DoNotOptimize(to_bin(trace).size());
    });
    const double csv_write = supersteps_per_second(ss, reps, [&] {
      benchmark::DoNotOptimize(to_csv(trace).size());
    });
    const double bin_read = supersteps_per_second(ss, reps, [&] {
      benchmark::DoNotOptimize(from_bin(bin).total_messages());
    });
    const double csv_read = supersteps_per_second(ss, reps, [&] {
      std::istringstream in(csv);
      benchmark::DoNotOptimize(read_trace_csv(in).total_messages());
    });
    t.row()
        .add(entry.name)
        .add(n)
        .add(ss)
        .add(csv.size())
        .add(bin.size())
        .add(ratio)
        .add(bin_write)
        .add(bin_read)
        .add(csv_write)
        .add(csv_read);
  }
  std::cout << t;
  std::cout << "  worst bin/csv ratio across kernels: " << worst_ratio
            << "\n";
}

void dense_acceptance_table() {
  // Burst multiplicity 2^20 puts the per-superstep message count at the
  // magnitude a v = 2^12 dense certification run produces (~v^2 per fold
  // cell), which is exactly where decimal CSV is weakest.
  constexpr std::uint64_t kBurst = std::uint64_t{1} << 20;
  Table t("dense all-to-all (dummy burst 2^20): >= 4x size-reduction bar",
          {"v", "supersteps", "csv bytes", "bin bytes", "csv/bin",
           ">= 4x"});
  for (const std::uint64_t v : {64u, 256u, 1024u}) {
    const Trace trace = dense_trace(v, 64, kBurst);
    const std::string csv = to_csv(trace);
    const std::string bin = to_bin(trace);
    const double reduction =
        static_cast<double>(csv.size()) / static_cast<double>(bin.size());
    t.row()
        .add(v)
        .add(trace.supersteps())
        .add(csv.size())
        .add(bin.size())
        .add(reduction)
        .add(reduction >= 4.0 ? "PASS" : "FAIL");
  }
  std::cout << t;
}

void report() {
  benchx::banner("Trace store: binary columnar blocks vs CSV");
  size_and_throughput_table();
  dense_acceptance_table();
}

void BM_WriteBinDense(benchmark::State& state) {
  const Trace trace = dense_trace(static_cast<std::uint64_t>(state.range(0)),
                                  64);
  for (auto _ : state) benchmark::DoNotOptimize(to_bin(trace).size());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(trace.supersteps()));
}
BENCHMARK(BM_WriteBinDense)->Arg(64)->Arg(1024);

void BM_WriteCsvDense(benchmark::State& state) {
  const Trace trace = dense_trace(static_cast<std::uint64_t>(state.range(0)),
                                  64);
  for (auto _ : state) benchmark::DoNotOptimize(to_csv(trace).size());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(trace.supersteps()));
}
BENCHMARK(BM_WriteCsvDense)->Arg(64)->Arg(1024);

void BM_ReadBinDense(benchmark::State& state) {
  const std::string bin = to_bin(
      dense_trace(static_cast<std::uint64_t>(state.range(0)), 64));
  std::int64_t supersteps = 0;
  for (auto _ : state) {
    const Trace trace = from_bin(bin);
    supersteps = static_cast<std::int64_t>(trace.supersteps());
    benchmark::DoNotOptimize(trace.total_messages());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          supersteps);
}
BENCHMARK(BM_ReadBinDense)->Arg(64)->Arg(1024);

void BM_ReadCsvDense(benchmark::State& state) {
  const std::string csv = to_csv(
      dense_trace(static_cast<std::uint64_t>(state.range(0)), 64));
  std::int64_t supersteps = 0;
  for (auto _ : state) {
    std::istringstream in(csv);
    const Trace trace = read_trace_csv(in);
    supersteps = static_cast<std::int64_t>(trace.supersteps());
    benchmark::DoNotOptimize(trace.total_messages());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          supersteps);
}
BENCHMARK(BM_ReadCsvDense)->Arg(64)->Arg(1024);

}  // namespace
}  // namespace nobl

int main(int argc, char** argv) {
  nobl::report();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
