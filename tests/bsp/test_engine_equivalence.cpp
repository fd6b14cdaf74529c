// Engine equivalence: the parallel execution engine must reproduce the
// sequential engine bit-for-bit — delivered inboxes (contents AND order),
// recorded traces (labels, per-fold degrees, message totals incl. dummies),
// cluster-violation detection and the peak-inbox audit — on raw machine
// workloads and on every kernel of the suite, across small machines and
// 1..8 worker threads.
//
// The trace matrix iterates the AlgoRegistry rather than a hand-maintained
// list: registering an algorithm is what buys it sequential-vs-parallel
// bit-equivalence coverage (and the TSan run via the `engine` CTest label),
// with no edit here. Registry runners return traces only and simulate on
// the payload-free SimulateBackend<void>, so a compact matrix below runs
// every kernel's program through run_program<Payload> (bsp/backend.hpp),
// which routes real payloads: output VALUES must match under each engine,
// and the routed trace must match a CostBackend run of the same program.
#include <gtest/gtest.h>

#include <complex>
#include <cstdint>
#include <string>
#include <vector>

#include "algorithms/bitonic.hpp"
#include "algorithms/broadcast.hpp"
#include "algorithms/fft.hpp"
#include "algorithms/matmul.hpp"
#include "algorithms/matmul_space.hpp"
#include "algorithms/primitives.hpp"
#include "algorithms/samplesort.hpp"
#include "algorithms/scan.hpp"
#include "algorithms/sort.hpp"
#include "algorithms/stencil1d.hpp"
#include "algorithms/stencil2d.hpp"
#include "algorithms/transpose.hpp"
#include "bsp/backend.hpp"
#include "bsp/execution.hpp"
#include "bsp/machine.hpp"
#include "bsp/trace.hpp"
#include "core/registry.hpp"
#include "core/workloads.hpp"
#include "dbsp/routed_protocol.hpp"
#include "util/matrix.hpp"
#include "util/rng.hpp"

namespace nobl {
namespace {

constexpr std::uint64_t kMachineSizes[] = {4, 16, 64};
constexpr unsigned kThreadCounts[] = {1, 2, 3, 4, 5, 6, 7, 8};

void expect_traces_identical(const Trace& seq, const Trace& par) {
  ASSERT_EQ(seq.log_v(), par.log_v());
  ASSERT_EQ(seq.supersteps(), par.supersteps());
  for (std::size_t s = 0; s < seq.supersteps(); ++s) {
    const SuperstepRecord& a = seq.steps()[s];
    const SuperstepRecord& b = par.steps()[s];
    EXPECT_EQ(a.label, b.label) << "superstep " << s;
    EXPECT_EQ(a.degree, b.degree) << "superstep " << s;
    EXPECT_EQ(a.messages, b.messages) << "superstep " << s;
  }
}

template <typename Payload>
void expect_inboxes_identical(const Machine<Payload>& seq,
                              const Machine<Payload>& par) {
  ASSERT_EQ(seq.v(), par.v());
  for (std::uint64_t r = 0; r < seq.v(); ++r) {
    const auto& a = seq.inbox(r);
    const auto& b = par.inbox(r);
    ASSERT_EQ(a.size(), b.size()) << "VP " << r;
    for (std::size_t k = 0; k < a.size(); ++k) {
      EXPECT_EQ(a[k].src, b[k].src) << "VP " << r << " slot " << k;
      EXPECT_EQ(a[k].data, b[k].data) << "VP " << r << " slot " << k;
    }
  }
}

// ---- Raw machine workload: lockstep superstep-by-superstep comparison. ----

// A deterministic mixed workload: all-to-cluster real traffic, dummies,
// self-messages, a range superstep and a sparse superstep.
template <typename Step>
void mixed_workload_steps(std::uint64_t v, unsigned log_v, Step&& step) {
  step(/*index=*/0u, [v](Machine<int>& m) {
    m.superstep(0, [v](Vp<int>& vp) {
      vp.send((vp.id() * 5 + 3) % v, static_cast<int>(vp.id()));
      vp.send(vp.id(), -1);
      if (vp.id() + 1 < v) vp.send_dummy(vp.id() + 1, vp.id() % 3);
    });
  });
  step(1u, [v](Machine<int>& m) {
    m.superstep(0, [v](Vp<int>& vp) {
      // Fan-in: everyone messages VP 0 twice (tests merge order of
      // multiple sends from one VP).
      vp.send(0, static_cast<int>(vp.id()) * 2);
      vp.send(0, static_cast<int>(vp.id()) * 2 + 1);
    });
  });
  step(2u, [v](Machine<int>& m) {
    m.superstep_range(0, v / 4, (3 * v) / 4, [v](Vp<int>& vp) {
      vp.send(v - 1 - vp.id(), static_cast<int>(vp.inbox().size()));
    });
  });
  step(3u, [v, log_v](Machine<int>& m) {
    std::vector<std::uint64_t> active;
    for (std::uint64_t r = 0; r < v; r += 3) active.push_back(r);
    const unsigned label = log_v >= 2 ? 1u : 0u;
    m.superstep_sparse(label, active, [](Vp<int>& vp) {
      // Stay inside the sender's 1-cluster.
      vp.send(vp.id() ^ 1, static_cast<int>(vp.id()));
      vp.send_dummy(vp.id() ^ 1, 2);
    });
  });
}

TEST(EngineEquivalence, MixedMachineWorkloadLockstep) {
  for (const std::uint64_t v : kMachineSizes) {
    for (const unsigned threads : kThreadCounts) {
      Machine<int> seq(v);
      Machine<int> par(v, ExecutionPolicy::parallel(threads));
      const unsigned log_v = seq.log_v();
      mixed_workload_steps(v, log_v, [&](unsigned, const auto& issue) {
        issue(seq);
        issue(par);
        expect_inboxes_identical(seq, par);
      });
      expect_traces_identical(seq.trace(), par.trace());
      EXPECT_EQ(seq.peak_inbox_messages(), par.peak_inbox_messages())
          << "v=" << v << " threads=" << threads;
    }
  }
}

TEST(EngineEquivalence, ClusterViolationDetectedInParallel) {
  for (const unsigned threads : kThreadCounts) {
    Machine<int> m(8, ExecutionPolicy::parallel(threads));
    EXPECT_THROW(m.superstep(1,
                             [](Vp<int>& vp) {
                               if (vp.id() == 0) vp.send(4, 1);
                             }),
                 ClusterViolation);
  }
}

// ---- Kernel matrix, driven by the registry. ------------------------------

TEST(EngineEquivalence, EveryRegisteredKernelIsEngineInvariant) {
  std::size_t kernels_covered = 0;
  for (const AlgoEntry& entry : AlgoRegistry::instance().entries()) {
    bool covered = false;
    for (const std::uint64_t n : kMachineSizes) {
      if (!entry.admits(n)) continue;
      const Trace seq = entry.runner(n, ExecutionPolicy::sequential());
      for (const unsigned threads : kThreadCounts) {
        SCOPED_TRACE(entry.name + " n=" + std::to_string(n) + " threads=" +
                     std::to_string(threads));
        const Trace par = entry.runner(n, ExecutionPolicy::parallel(threads));
        expect_traces_identical(seq, par);
      }
      covered = true;
      // Kernels whose machine grows super-linearly in n (stencil2 runs on
      // M(n²)) stop before the thread matrix gets expensive.
      if (seq.v() >= 256) break;
    }
    EXPECT_TRUE(covered) << entry.name
                         << ": no admissible size in the equivalence sweep";
    if (covered) ++kernels_covered;
  }
  EXPECT_GE(kernels_covered, 14u);
}

// ---- Backend matrix, driven by the registry. -----------------------------
//
// The Program API's contract: for every kernel, the CostBackend trace is
// bit-identical to the SimulateBackend trace (same degree stream, no
// payloads/delivery/inboxes), and the RecordBackend's captured schedule
// replays to the same trace. Registering an algorithm buys this coverage.

TEST(BackendEquivalence, EveryRegisteredKernelIsBackendInvariant) {
  std::size_t kernels_covered = 0;
  for (const AlgoEntry& entry : AlgoRegistry::instance().entries()) {
    bool covered = false;
    for (const std::uint64_t n : kMachineSizes) {
      if (!entry.admits(n)) continue;
      SCOPED_TRACE(entry.name + " n=" + std::to_string(n));
      const Trace simulate = entry.runner(n, RunOptions{});
      const Trace cost =
          entry.runner(n, RunOptions{BackendKind::kCost});
      expect_traces_identical(simulate, cost);
      // The record runner returns the trace re-derived from its captured
      // Schedule, so equality here pins the record -> replay round trip.
      const Trace replayed =
          entry.runner(n, RunOptions{BackendKind::kRecord});
      expect_traces_identical(simulate, replayed);
      covered = true;
      if (simulate.v() >= 256) break;
    }
    EXPECT_TRUE(covered) << entry.name
                         << ": no admissible size in the backend sweep";
    if (covered) ++kernels_covered;
  }
  EXPECT_GE(kernels_covered, 14u);
}

TEST(BackendEquivalence, CostTraceMatchesParallelSimulateToo) {
  // The backend x engine square commutes: cost (always a sequential driver)
  // equals simulate under the parallel engine as well.
  for (const char* name : {"matmul", "samplesort", "stencil1"}) {
    const AlgoEntry& entry = AlgoRegistry::instance().at(name);
    const std::uint64_t n = entry.smoke_sizes.front();
    const Trace cost = entry.runner(n, RunOptions{BackendKind::kCost});
    const Trace par =
        entry.runner(n, RunOptions{ExecutionPolicy::parallel(3)});
    expect_traces_identical(par, cost);
  }
}

// ---- Output values, per kernel. ------------------------------------------
//
// Registry runners discard algorithm outputs, so the value-level half of
// the guarantee — per-VP results bit-identical under both engines — runs
// each kernel's program through run_program under every engine.

// Trace-only runs deliver nothing; the routed runs below are the ones that
// read payloads back.
static_assert(!SimulateBackend<void>::delivers);
static_assert(SimulateBackend<std::uint64_t>::delivers);

// Run `program` on M(v) sequentially and under each parallel thread count:
// outputs must compare equal (bit-identical, not approximately: both
// engines execute the same floating-point operations per VP in the same
// order) and traces identical. The sequential routed trace must also equal
// the CostBackend trace of the same program: with registry runners no
// longer routing payloads, this pins the routed path for every kernel.
template <typename Payload, typename Program>
void expect_engine_invariant(const std::string& name, std::uint64_t v,
                             const Program& program) {
  const auto seq = run_program<Payload>(v, program);
  {
    SCOPED_TRACE(name + " v=" + std::to_string(v) + " routed vs cost");
    CostBackend cost(v);
    (void)program(cost);
    expect_traces_identical(seq.trace, cost.trace());
  }
  for (const unsigned threads : kThreadCounts) {
    SCOPED_TRACE(name + " v=" + std::to_string(v) +
                 " threads=" + std::to_string(threads));
    const auto par =
        run_program<Payload>(v, program, ExecutionPolicy::parallel(threads));
    EXPECT_TRUE(seq.output == par.output);
    expect_traces_identical(seq.trace, par.trace);
  }
}

TEST(EngineEquivalence, OutputValuesMatchAcrossEngines) {
  using namespace workloads;
  using U = std::uint64_t;
  for (const std::uint64_t v : {16u, 64u}) {
    const std::uint64_t m = std::uint64_t{1} << (log2_exact(v) / 2);
    const auto keys = random_keys(v, v + 1);
    const auto signal = random_signal(v, v + 2);
    const Matrix<long> a = random_matrix(m, v + 3);
    const Matrix<long> b = random_matrix(m, v + 4);
    const auto rod = random_rod(v, v + 5);
    const auto addends = random_addends(v, v + 6);
    const auto heavy = duplicate_heavy_keys(v, v + 7);

    expect_engine_invariant<U>("broadcast", v, [](auto& bk) {
      return broadcast_program(bk, 2, U{7});
    });
    // Fanout 4 exercises multi-child send ordering the registry's fixed
    // kappa = 2 entry never does.
    expect_engine_invariant<U>("broadcast:4", v, [](auto& bk) {
      return broadcast_program(bk, 4, U{7});
    });
    expect_engine_invariant<U>("bitonic", v, [&](auto& bk) {
      return bitonic_sort_program(bk, keys);
    });
    expect_engine_invariant<U>(
        "sort", v, [&](auto& bk) { return sort_program(bk, keys); });
    expect_engine_invariant<std::complex<double>>(
        "fft", v, [&](auto& bk) { return fft_program(bk, signal); });
    expect_engine_invariant<MatmulMsg<long>>(
        "matmul", v, [&](auto& bk) { return matmul_program(bk, a, b); });
    expect_engine_invariant<MatmulSpaceMsg<long>>(
        "matmul-space", v,
        [&](auto& bk) { return matmul_space_program(bk, a, b); });
    expect_engine_invariant<double>("stencil1", v, [&](auto& bk) {
      return stencil1_program(bk, rod, heat_rule);
    });
    expect_engine_invariant<std::uint8_t>(
        "stencil2", v, [m](auto& bk) { return stencil2_program(bk, m); });
    expect_engine_invariant<U>(
        "scan", v, [&](auto& bk) { return scan_program(bk, addends); });
    expect_engine_invariant<long>(
        "transpose", v, [&](auto& bk) { return transpose_program(bk, a); });
    expect_engine_invariant<U>("samplesort", v, [&](auto& bk) {
      return samplesort_program(bk, heavy);
    });
    expect_engine_invariant<U>(
        "reduce", v, [&](auto& bk) { return reduce_program(bk, addends); });
    expect_engine_invariant<U>(
        "gather", v, [&](auto& bk) { return gather_program(bk, addends); });
    expect_engine_invariant<U>(
        "shift", v, [&](auto& bk) { return shift_program(bk, addends); });
  }
}

TEST(EngineEquivalence, RoutedAscendDescend) {
  for (const std::uint64_t p : kMachineSizes) {
    for (const unsigned label : {0u, 1u}) {
      // Random label-respecting relation, a few messages per processor.
      Xoshiro256 rng(p + label);
      std::vector<RoutedMsg<int>> relation;
      const std::uint64_t cluster = p >> label;
      for (std::uint64_t src = 0; src < p; ++src) {
        const std::uint64_t base = src & ~(cluster - 1);
        for (unsigned k = 0; k < 3; ++k) {
          const std::uint64_t dst = base + rng.below(cluster);
          relation.push_back(
              RoutedMsg<int>{src, dst, static_cast<int>(src * 100 + k)});
        }
      }
      const RoutedResult<int> seq = execute_ascend_descend(p, label, relation);
      for (const unsigned threads : kThreadCounts) {
        const RoutedResult<int> par = execute_ascend_descend(
            p, label, relation, ExecutionPolicy::parallel(threads));
        ASSERT_EQ(seq.delivered.size(), par.delivered.size());
        for (std::uint64_t q = 0; q < p; ++q) {
          ASSERT_EQ(seq.delivered[q].size(), par.delivered[q].size())
              << "VP " << q;
          for (std::size_t k = 0; k < seq.delivered[q].size(); ++k) {
            EXPECT_EQ(seq.delivered[q][k].src, par.delivered[q][k].src);
            EXPECT_EQ(seq.delivered[q][k].dst, par.delivered[q][k].dst);
            EXPECT_EQ(seq.delivered[q][k].payload, par.delivered[q][k].payload);
          }
        }
        expect_traces_identical(seq.trace, par.trace);
      }
    }
  }
}

}  // namespace
}  // namespace nobl
