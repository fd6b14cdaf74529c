// Trace hot-path microbenchmarks: per-message degree accounting and the
// per-superstep close, sync-time delivery, and the cached O(1) cost
// queries. Every paper metric is a pure function of the trace, so these
// three costs gate every experiment sweep in the suite.
//
// main() first prints a fast-vs-reference accumulator throughput table on
// dense all-to-all, matmul-shaped and deep-sparse-cluster message storms
// (the acceptance workloads), and on range storms whose supersteps the fast
// accumulator closes both ways: with the touched-node walk and with the
// range sweep (DegreeAccumulator::open_range). Then it hands over to
// google-benchmark for messages/sec and certify-sweep latency timings. It
// exits 1 when the fast and reference accumulators record different
// SuperstepRecords on any storm, in either close mode, so a run doubles as
// an equality check.
#include <benchmark/benchmark.h>

#include <array>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <string>
#include <type_traits>
#include <vector>

#include "bench_common.hpp"
#include "bsp/degree_reference.hpp"
#include "bsp/machine.hpp"
#include "bsp/trace.hpp"
#include "core/lower_bounds.hpp"
#include "core/optimality.hpp"
#include "util/bits.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace nobl {
namespace {

struct Storm {
  std::uint64_t src;
  std::uint64_t dst;
};
/// One superstep of a storm: its messages and, for range storms, the
/// superstep's label and active range [first, last).
struct StormStep {
  std::vector<Storm> msgs;
  unsigned label = 0;
  std::uint64_t first = 0;
  std::uint64_t last = 0;
};
using Storms = std::vector<StormStep>;

/// Dense all-to-all: every VP messages every VP (self-messages included) —
/// the densest 0-superstep M(v) can express, v² messages.
Storms dense_all_to_all(std::uint64_t v) {
  std::vector<Storm> msgs;
  msgs.reserve(v * v);
  for (std::uint64_t src = 0; src < v; ++src) {
    for (std::uint64_t dst = 0; dst < v; ++dst) {
      msgs.push_back(Storm{src, dst});
    }
  }
  return {StormStep{msgs}};
}

/// Matmul-shaped storm: the §4.1 recursion's communication silhouette on the
/// √v × √v VP grid — every VP exchanges with its row (A replication) and its
/// column (C reduction) — without the arithmetic. 2·v·√v messages.
Storms matmul_storm(std::uint64_t v) {
  const std::uint64_t m = sqrt_pow2(v);
  std::vector<Storm> msgs;
  msgs.reserve(2 * v * m);
  for (std::uint64_t r = 0; r < v; ++r) {
    const std::uint64_t row = r / m;
    const std::uint64_t col = r % m;
    for (std::uint64_t k = 0; k < m; ++k) {
      msgs.push_back(Storm{r, row * m + k});
      msgs.push_back(Storm{r, k * m + col});
    }
  }
  return {StormStep{msgs}};
}

/// Deep sparse cluster storm: one superstep per 128-VP cluster, in which
/// only that cluster's VPs talk — each to four peers inside it at distances
/// 1, 2, 3 and 64 — the shape of stencil2's level-2 supersteps (128 active
/// VPs of 4096). v/128 supersteps of 512 messages each; the per-superstep
/// close, not the per-message count, dominates.
Storms deep_sparse_cluster(std::uint64_t v) {
  constexpr std::uint64_t kCluster = 128;
  Storms steps;
  for (std::uint64_t base = 0; base < v; base += kCluster) {
    std::vector<Storm> msgs;
    for (std::uint64_t r = 0; r < kCluster; ++r) {
      for (const std::uint64_t d : {1u, 2u, 3u, 64u}) {
        msgs.push_back(Storm{base + r, base + (r + d) % kCluster});
      }
    }
    steps.push_back(StormStep{std::move(msgs)});
  }
  return steps;
}

/// Full-range dense storm: dense all-to-all as one 0-superstep over the
/// whole range [0, v).
Storms full_range_dense(std::uint64_t v) {
  Storms steps = dense_all_to_all(v);
  steps.front().last = v;
  return steps;
}

/// Stencil2-shaped half-cluster ranges: one superstep per 128-VP cluster,
/// the lower half of the cluster active — the range [base, base + 64) at
/// the 128-VP label — each active VP sending across the cluster's midpoint
/// (stencil2's boundary unit) and to its neighbour. The range covers half
/// its rounded-out cluster, the least range mode accepts; 128 messages per
/// superstep, so the close dominates.
Storms stencil2_half_cluster(std::uint64_t v) {
  constexpr std::uint64_t kCluster = 128;
  const unsigned label = log2_exact(v) - log2_exact(kCluster);
  Storms steps;
  for (std::uint64_t base = 0; base < v; base += kCluster) {
    StormStep step{{}, label, base, base + kCluster / 2};
    for (std::uint64_t r = step.first; r < step.last; ++r) {
      step.msgs.push_back(Storm{r, r + kCluster / 2});
      step.msgs.push_back(Storm{r, r ^ 1});
    }
    steps.push_back(std::move(step));
  }
  return steps;
}

std::uint64_t message_count(const Storms& steps) {
  std::uint64_t total = 0;
  for (const StormStep& step : steps) total += step.msgs.size();
  return total;
}

/// Count and close every superstep of `steps` `reps` times; returns
/// messages/s and leaves the last repetition's records in `records`. With
/// `ranged`, each superstep opens the fast accumulator over its range.
template <typename Accumulator>
double messages_per_second(unsigned log_v, const Storms& steps, unsigned reps,
                           std::vector<SuperstepRecord>& records,
                           bool ranged = false) {
  Accumulator acc(log_v);
  records.assign(steps.size(), SuperstepRecord{});
  for (SuperstepRecord& rec : records) rec.degree.assign(log_v + 1u, 0);
  const auto t0 = std::chrono::steady_clock::now();
  for (unsigned rep = 0; rep < reps; ++rep) {
    for (std::size_t k = 0; k < steps.size(); ++k) {
      if constexpr (std::is_same_v<Accumulator, DegreeAccumulator>) {
        if (ranged) {
          (void)acc.open_range(steps[k].label, steps[k].first, steps[k].last);
        }
      }
      for (const Storm& s : steps[k].msgs) acc.count(s.src, s.dst, 1);
      acc.finalize_into(records[k]);
      benchmark::DoNotOptimize(records[k].degree.data());
    }
  }
  const std::chrono::duration<double> dt =
      std::chrono::steady_clock::now() - t0;
  return static_cast<double>(message_count(steps)) * reps / dt.count();
}

/// False (and a MISMATCH line) when `fast` differs from `ref` anywhere.
bool records_agree(const std::vector<SuperstepRecord>& fast,
                   const std::vector<SuperstepRecord>& ref,
                   const std::string& what, std::uint64_t v) {
  for (std::size_t k = 0; k < ref.size(); ++k) {
    if (fast[k].degree != ref[k].degree ||
        fast[k].messages != ref[k].messages) {
      std::cerr << "MISMATCH: " << what << " v=" << v << " superstep " << k
                << ": fast and reference records differ\n";
      return false;
    }
  }
  return true;
}

/// Prints the throughput table; returns false when the fast accumulator's
/// records differ from the reference's on any storm. A range storm adds a
/// column for the fast accumulator closing each superstep with the range
/// sweep, next to its touched-node walk.
bool storm_table(const std::string& title, const std::string& shape,
                 const std::vector<std::uint64_t>& sizes,
                 Storms (*storm)(std::uint64_t), bool ranged = false) {
  std::vector<std::string> columns{"v", "supersteps", "messages/superstep",
                                   "reference msg/s", "fast msg/s", "speedup"};
  if (ranged) {
    columns.insert(columns.end(), {"range-sweep msg/s", "sweep/walk"});
  }
  Table t(title, columns);
  bool agree = true;
  for (const std::uint64_t v : sizes) {
    const unsigned log_v = log2_exact(v);
    const Storms steps = storm(v);
    const std::uint64_t messages = message_count(steps);
    // Aim for a few million messages per measurement.
    const auto reps = static_cast<unsigned>(2'000'000 / messages + 1);
    std::vector<SuperstepRecord> ref_records;
    std::vector<SuperstepRecord> fast_records;
    // Warm both paths once so allocation noise stays out of the timing.
    (void)messages_per_second<ReferenceDegreeAccumulator>(log_v, steps, 1,
                                                          ref_records);
    (void)messages_per_second<DegreeAccumulator>(log_v, steps, 1,
                                                 fast_records);
    const double ref = messages_per_second<ReferenceDegreeAccumulator>(
        log_v, steps, reps, ref_records);
    const double fast = messages_per_second<DegreeAccumulator>(
        log_v, steps, reps, fast_records);
    agree &= records_agree(fast_records, ref_records, shape, v);
    auto& row = t.row()
                    .add(v)
                    .add(static_cast<std::uint64_t>(steps.size()))
                    .add(messages / steps.size())
                    .add(ref)
                    .add(fast)
                    .add(fast / ref);
    if (ranged) {
      std::vector<SuperstepRecord> sweep_records;
      (void)messages_per_second<DegreeAccumulator>(log_v, steps, 1,
                                                   sweep_records, true);
      const double sweep = messages_per_second<DegreeAccumulator>(
          log_v, steps, reps, sweep_records, true);
      agree &= records_agree(sweep_records, ref_records,
                             shape + " (range sweep)", v);
      row.add(sweep).add(sweep / fast);
    }
  }
  std::cout << "[" << shape << "]\n" << t;
  return agree;
}

/// A long synthetic trace for the query-latency benchmarks: labels and
/// degrees pseudo-random, shaped only by the append() invariants.
Trace synthetic_trace(unsigned log_v, std::size_t supersteps) {
  Trace t(log_v);
  Xoshiro256 rng(supersteps);
  for (std::size_t s = 0; s < supersteps; ++s) {
    SuperstepRecord r;
    r.label = static_cast<unsigned>(rng.below(log_v));
    r.degree.assign(log_v + 1u, 0);
    for (unsigned j = 1; j <= log_v; ++j) r.degree[j] = rng.below(1024);
    r.messages = rng.below(1 << 16);
    t.append(std::move(r));
  }
  return t;
}

/// Returns false when any storm's fast and reference records differ.
bool report() {
  benchx::banner(
      "Trace hot path: O(1)-per-message accounting vs fold-per-message "
      "reference");
  bool agree = storm_table("dense all-to-all message storm",
                           "dense all-to-all", {16, 64, 256},
                           dense_all_to_all);
  agree &= storm_table("matmul-shaped message storm (row + column exchange)",
                       "matmul-shaped", {16, 64, 256, 1024}, matmul_storm);
  agree &= storm_table(
      "deep sparse cluster storm (one 128-VP cluster per superstep)",
      "deep sparse cluster", {1024, 4096, 65536}, deep_sparse_cluster);
  agree &= storm_table("full-range dense storm (all-to-all over [0, v))",
                       "full-range dense", {16, 64, 256}, full_range_dense,
                       true);
  agree &= storm_table(
      "stencil2-shaped half-cluster ranges (lower half of a 128-VP cluster "
      "per superstep)",
      "stencil2 half-cluster", {1024, 4096, 65536}, stencil2_half_cluster,
      true);

  benchx::banner("certify_optimality sweep latency on a long trace");
  Table t("certify sweep over folds x sigma grid",
          {"supersteps", "sweeps/s"});
  for (const std::size_t steps : {std::size_t{4096}, std::size_t{65536}}) {
    const Trace trace = synthetic_trace(10, steps);
    const std::array<double, 4> sigmas{0.0, 1.0, 8.0, 64.0};
    const auto t0 = std::chrono::steady_clock::now();
    constexpr unsigned kSweeps = 200;
    for (unsigned k = 0; k < kSweeps; ++k) {
      const auto rep =
          certify_optimality(trace, 1 << 20, 10, lb::sort, sigmas);
      benchmark::DoNotOptimize(rep.beta_min);
    }
    const std::chrono::duration<double> dt =
        std::chrono::steady_clock::now() - t0;
    t.row().add(static_cast<std::uint64_t>(steps)).add(kSweeps / dt.count());
  }
  std::cout << t;
  return agree;
}

template <typename Accumulator>
void BM_DegreeDenseAllToAll(benchmark::State& state) {
  const auto v = static_cast<std::uint64_t>(state.range(0));
  const unsigned log_v = log2_exact(v);
  const auto msgs = dense_all_to_all(v).front().msgs;
  Accumulator acc(log_v);
  SuperstepRecord rec;
  rec.degree.assign(log_v + 1u, 0);
  for (auto _ : state) {
    for (const Storm& s : msgs) acc.count(s.src, s.dst, 1);
    acc.finalize_into(rec);
    benchmark::DoNotOptimize(rec.degree.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(msgs.size()));
}
BENCHMARK_TEMPLATE(BM_DegreeDenseAllToAll, DegreeAccumulator)
    ->Arg(64)
    ->Arg(256);
BENCHMARK_TEMPLATE(BM_DegreeDenseAllToAll, ReferenceDegreeAccumulator)
    ->Arg(64)
    ->Arg(256);

template <typename Accumulator>
void BM_DegreeMatmulStorm(benchmark::State& state) {
  const auto v = static_cast<std::uint64_t>(state.range(0));
  const unsigned log_v = log2_exact(v);
  const auto msgs = matmul_storm(v).front().msgs;
  Accumulator acc(log_v);
  SuperstepRecord rec;
  rec.degree.assign(log_v + 1u, 0);
  for (auto _ : state) {
    for (const Storm& s : msgs) acc.count(s.src, s.dst, 1);
    acc.finalize_into(rec);
    benchmark::DoNotOptimize(rec.degree.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(msgs.size()));
}
BENCHMARK_TEMPLATE(BM_DegreeMatmulStorm, DegreeAccumulator)->Arg(64)->Arg(1024);
BENCHMARK_TEMPLATE(BM_DegreeMatmulStorm, ReferenceDegreeAccumulator)
    ->Arg(64)
    ->Arg(1024);

template <typename Accumulator>
void BM_DegreeDeepSparseCluster(benchmark::State& state) {
  const auto v = static_cast<std::uint64_t>(state.range(0));
  const unsigned log_v = log2_exact(v);
  const Storms steps = deep_sparse_cluster(v);
  Accumulator acc(log_v);
  SuperstepRecord rec;
  rec.degree.assign(log_v + 1u, 0);
  for (auto _ : state) {
    for (const StormStep& step : steps) {
      for (const Storm& s : step.msgs) acc.count(s.src, s.dst, 1);
      acc.finalize_into(rec);
      benchmark::DoNotOptimize(rec.degree.data());
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(message_count(steps)));
}
BENCHMARK_TEMPLATE(BM_DegreeDeepSparseCluster, DegreeAccumulator)->Arg(4096);
BENCHMARK_TEMPLATE(BM_DegreeDeepSparseCluster, ReferenceDegreeAccumulator)
    ->Arg(4096);

/// Full-engine storm: accounting + cluster checks + delivery at the sync.
void BM_MachineDenseAllToAll(benchmark::State& state) {
  const auto v = static_cast<std::uint64_t>(state.range(0));
  constexpr unsigned kSupersteps = 4;
  for (auto _ : state) {
    Machine<int> machine(v, benchx::engine());
    for (unsigned s = 0; s < kSupersteps; ++s) {
      machine.superstep(0, [v](Vp<int>& vp) {
        for (std::uint64_t dst = 0; dst < v; ++dst) {
          vp.send(dst, static_cast<int>(vp.id()));
        }
      });
    }
    benchmark::DoNotOptimize(machine.trace().total_messages());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kSupersteps * static_cast<std::int64_t>(v * v));
}
BENCHMARK(BM_MachineDenseAllToAll)->Arg(64)->Arg(256);

/// Query latency: certify_optimality's fold × σ sweep against the cached
/// cumulative tables (first sweep builds the cache, the rest are O(1) reads).
void BM_CertifySweep(benchmark::State& state) {
  const Trace trace =
      synthetic_trace(10, static_cast<std::size_t>(state.range(0)));
  const std::array<double, 4> sigmas{0.0, 1.0, 8.0, 64.0};
  for (auto _ : state) {
    const auto report =
        certify_optimality(trace, 1 << 20, 10, lb::sort, sigmas);
    benchmark::DoNotOptimize(report.beta_min);
  }
}
BENCHMARK(BM_CertifySweep)->Arg(4096)->Arg(65536);

}  // namespace
}  // namespace nobl

int main(int argc, char** argv) {
  const bool agree = nobl::report();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return agree ? 0 : 1;
}
