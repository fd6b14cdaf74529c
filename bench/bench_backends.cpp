// Backend sweep: the cost of interpretation per backend of the Program API.
//
// The same program — a dense all-to-all, the densest 0-superstep M(v) can
// express — is driven through the three executing backends:
//
//   simulate  full M(v) machine: payload staging, delivery, inboxes
//   cost      DegreeAccumulator bucketing only (no payloads, no delivery)
//   record    cost + schedule capture (one event per send)
//
// plus the schedule optimizer: the recorded schedule is classified and
// fused once (bsp/ir_opt.hpp), and every subsequent replay walks bulk
// records in O(supersteps · log v) instead of O(v²) events.
//
// Acceptance bars: the cost backend sustains >= 3x the simulate backend's
// messages/second on the dense all-to-all at v = 64, and the fused replay
// sustains >= 10x. The registry half then times one full
// `nobl certify`-shaped trace per kernel under simulate vs cost, and the
// analytic table runs a 100-point (n, σ) certify-style sweep through the
// analytic backend (closed forms, else the cost interpreter).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "bsp/backend.hpp"
#include "bsp/cost.hpp"
#include "bsp/ir_opt.hpp"
#include "bsp/machine.hpp"
#include "util/bits.hpp"
#include "util/table.hpp"

namespace nobl {
namespace {

constexpr unsigned kSupersteps = 4;

/// The workload: kSupersteps dense all-to-all 0-supersteps (v² messages
/// each, self-messages included), identical under every backend.
template <typename Backend>
void dense_program(Backend& bk) {
  const std::uint64_t v = bk.v();
  for (unsigned s = 0; s < kSupersteps; ++s) {
    bk.superstep(0, [v](auto& vp) {
      for (std::uint64_t dst = 0; dst < v; ++dst) {
        vp.send(dst, static_cast<int>(vp.id()));
      }
    });
  }
}

template <typename MakeBackend>
double messages_per_second_once(std::uint64_t v, unsigned reps,
                                MakeBackend&& make) {
  const auto t0 = std::chrono::steady_clock::now();
  std::uint64_t total = 0;
  for (unsigned rep = 0; rep < reps; ++rep) {
    auto backend = make(v);
    dense_program(backend);
    total += backend.trace().total_messages();
    benchmark::DoNotOptimize(total);
  }
  const std::chrono::duration<double> dt =
      std::chrono::steady_clock::now() - t0;
  return static_cast<double>(total) / dt.count();
}

/// Best of three samples: throughput is limited by the code, noise only
/// ever subtracts, so the max is the stable estimator on a shared box.
template <typename MakeBackend>
double messages_per_second(std::uint64_t v, unsigned reps,
                           MakeBackend&& make) {
  double best = 0.0;
  for (int sample = 0; sample < 3; ++sample) {
    best = std::max(best, messages_per_second_once(v, reps, make));
  }
  return best;
}

/// The fused-replay path: record + optimize once (outside the timer), then
/// time pure replays of the bulk records.
double fused_replay_rate_once(const OptimizedSchedule& optimized,
                              unsigned reps) {
  const auto t0 = std::chrono::steady_clock::now();
  std::uint64_t total = 0;
  for (unsigned rep = 0; rep < reps; ++rep) {
    total += optimized.replay_trace().total_messages();
    benchmark::DoNotOptimize(total);
  }
  const std::chrono::duration<double> dt =
      std::chrono::steady_clock::now() - t0;
  return static_cast<double>(total) / dt.count();
}

double fused_replay_rate(const OptimizedSchedule& optimized, unsigned reps) {
  double best = 0.0;
  for (int sample = 0; sample < 3; ++sample) {
    best = std::max(best, fused_replay_rate_once(optimized, reps));
  }
  return best;
}

void backend_storm_table() {
  Table t("dense all-to-all, messages/second per backend",
          {"v", "messages/run", "simulate msg/s", "cost msg/s",
           "record msg/s", "fused replay msg/s", "cost/simulate",
           "fused/simulate"});
  for (const std::uint64_t v : {16u, 64u, 256u}) {
    const std::uint64_t messages = kSupersteps * v * v;
    // Aim for several million messages per sample, after one warm-up.
    const auto reps = static_cast<unsigned>(8'000'000 / messages + 1);
    auto simulate = [](std::uint64_t size) {
      return SimulateBackend<int>(size);
    };
    auto cost = [](std::uint64_t size) { return CostBackend(size); };
    auto record = [](std::uint64_t size) { return RecordBackend(size); };
    (void)messages_per_second(v, 1, simulate);
    (void)messages_per_second(v, 1, cost);
    (void)messages_per_second(v, 1, record);
    const double sim_rate = messages_per_second(v, reps, simulate);
    const double cost_rate = messages_per_second(v, reps, cost);
    const double record_rate = messages_per_second(v, reps, record);
    RecordBackend recorder(v);
    dense_program(recorder);
    const OptimizedSchedule optimized = optimize_schedule(recorder.schedule());
    (void)fused_replay_rate(optimized, 1);
    // The replay is so much faster that it needs its own rep count to fill
    // a measurable window.
    const double fused_rate = fused_replay_rate(optimized, 64 * reps);
    t.row()
        .add(v)
        .add(messages)
        .add(sim_rate)
        .add(cost_rate)
        .add(record_rate)
        .add(fused_rate)
        .add(cost_rate / sim_rate)
        .add(fused_rate / sim_rate);
  }
  std::cout << t;
}

/// A certify-style sweep of >= 100 (n, σ) points answered entirely by the
/// analytic backend — closed forms for the exact kernels, the cost
/// interpreter for the rest — evaluating the full fold × σ H surface per
/// point. Acceptance: the whole sweep completes in under one second.
void analytic_sweep_table() {
  const std::vector<double> sigmas{0.0, 0.5, 1.0, 2.0, 4.0};
  std::size_t points = 0;
  std::size_t closed_form = 0;
  double h_checksum = 0.0;
  const auto t0 = std::chrono::steady_clock::now();
  for (const AlgoEntry& entry : AlgoRegistry::instance().entries()) {
    for (const std::uint64_t n : entry.smoke_sizes) {
      for (const double sigma : sigmas) {
        const Trace trace = entry.runner(n, RunOptions{BackendKind::kAnalytic});
        for (unsigned log_p = 0; log_p <= trace.log_v(); ++log_p) {
          h_checksum += communication_complexity(trace, log_p, sigma);
        }
        ++points;
        if (entry.analytic != nullptr) ++closed_form;
      }
    }
  }
  benchmark::DoNotOptimize(h_checksum);
  const std::chrono::duration<double> dt =
      std::chrono::steady_clock::now() - t0;
  Table t("analytic certify sweep: full fold x sigma H surface per point",
          {"(n, sigma) points", "seconds", "points/s", "closed form", "cost"});
  t.row()
      .add(points)
      .add(dt.count())
      .add(static_cast<double>(points) / dt.count())
      .add(closed_form)
      .add(points - closed_form);
  std::cout << t;
}

void registry_sweep_table() {
  Table t("registry kernels: one smoke-size trace, simulate vs cost",
          {"algorithm", "n", "simulate ms", "cost ms", "speedup"});
  for (const AlgoEntry& entry : AlgoRegistry::instance().entries()) {
    const std::uint64_t n = entry.smoke_sizes.back();
    auto time_once = [&](BackendKind kind) {
      // Warm once (workload generation, allocator), then time one run.
      (void)entry.runner(n, RunOptions{kind});
      const auto t0 = std::chrono::steady_clock::now();
      const Trace trace = entry.runner(n, RunOptions{kind});
      benchmark::DoNotOptimize(trace.total_messages());
      const std::chrono::duration<double, std::milli> dt =
          std::chrono::steady_clock::now() - t0;
      return dt.count();
    };
    const double simulate_ms = time_once(BackendKind::kSimulate);
    const double cost_ms = time_once(BackendKind::kCost);
    t.row()
        .add(entry.name)
        .add(n)
        .add(simulate_ms)
        .add(cost_ms)
        .add(simulate_ms / cost_ms);
  }
  std::cout << t;
}

void report() {
  benchx::banner(
      "Backend sweep: simulate vs cost vs record on one Program");
  backend_storm_table();
  registry_sweep_table();
  analytic_sweep_table();
}

template <typename Backend>
void run_dense(std::uint64_t v) {
  Backend backend(v);
  dense_program(backend);
  benchmark::DoNotOptimize(backend.trace().total_messages());
}

void BM_SimulateDenseAllToAll(benchmark::State& state) {
  const auto v = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) run_dense<SimulateBackend<int>>(v);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kSupersteps * static_cast<std::int64_t>(v * v));
}
BENCHMARK(BM_SimulateDenseAllToAll)->Arg(64)->Arg(256);

void BM_CostDenseAllToAll(benchmark::State& state) {
  const auto v = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) run_dense<CostBackend>(v);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kSupersteps * static_cast<std::int64_t>(v * v));
}
BENCHMARK(BM_CostDenseAllToAll)->Arg(64)->Arg(256);

void BM_RecordDenseAllToAll(benchmark::State& state) {
  const auto v = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) run_dense<RecordBackend>(v);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kSupersteps * static_cast<std::int64_t>(v * v));
}
BENCHMARK(BM_RecordDenseAllToAll)->Arg(64)->Arg(256);

void BM_FusedReplayDenseAllToAll(benchmark::State& state) {
  const auto v = static_cast<std::uint64_t>(state.range(0));
  RecordBackend recorder(v);
  dense_program(recorder);
  const OptimizedSchedule optimized = optimize_schedule(recorder.schedule());
  for (auto _ : state) {
    benchmark::DoNotOptimize(optimized.replay_trace().total_messages());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kSupersteps * static_cast<std::int64_t>(v * v));
}
BENCHMARK(BM_FusedReplayDenseAllToAll)->Arg(64)->Arg(256);

}  // namespace
}  // namespace nobl

int main(int argc, char** argv) {
  nobl::report();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
