#include "core/registry.hpp"

#include <algorithm>
#include <functional>
#include <stdexcept>
#include <type_traits>
#include <utility>

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
#include "core/analytic.hpp"
#include "core/lower_bounds.hpp"
#include "core/predictions.hpp"
#include "core/workloads.hpp"
#include "util/bits.hpp"

namespace nobl {
namespace {

bool pow2_size(std::uint64_t n) { return is_pow2(n); }

bool pow2_size_ge2(std::uint64_t n) { return is_pow2(n) && n >= 2; }

/// n must be m² for a power-of-two side m (matrix element count).
bool square_pow2_size(std::uint64_t n) {
  return is_pow2(n) && log2_exact(n) % 2 == 0;
}

void require_admissible(const AlgoEntry& entry, std::uint64_t n) {
  if (!entry.admits(n)) {
    throw std::invalid_argument(entry.inadmissible_message(n));
  }
}

/// The taint hook's input wrapper: every workload value enters the program
/// tainted at the injection boundary.
constexpr auto taint_input = [](const auto& input) {
  if constexpr (std::is_arithmetic_v<std::decay_t<decltype(input)>>) {
    return audit::source(input);
  } else {
    return audit::source_all(input);
  }
};

}  // namespace

bool AlgoEntry::supports(BackendKind kind) const {
  return std::find(backends.begin(), backends.end(), kind) != backends.end();
}

std::uint64_t AlgoEntry::nearest_admissible(std::uint64_t n) const {
  std::uint64_t best = 0;
  auto distance = [n](std::uint64_t candidate) {
    return candidate > n ? candidate - n : n - candidate;
  };
  for (std::uint64_t candidate = 1; candidate <= max_sweep_size;
       candidate *= 2) {
    if (admits(candidate) &&
        (best == 0 || distance(candidate) < distance(best))) {
      best = candidate;
    }
  }
  return best;
}

std::string AlgoEntry::inadmissible_message(std::uint64_t n) const {
  std::string message = name + ": n = " + std::to_string(n) +
                        " is inadmissible (" + size_rule;
  const std::uint64_t nearest = nearest_admissible(n);
  if (nearest != 0) {
    message += "; nearest admissible n = " + std::to_string(nearest);
  }
  message += ")";
  return message;
}

const AlgoRegistry& AlgoRegistry::instance() {
  static const AlgoRegistry registry;
  return registry;
}

const AlgoEntry* AlgoRegistry::find(const std::string& name) const {
  for (const auto& e : entries_) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

const AlgoEntry& AlgoRegistry::at(const std::string& name) const {
  const AlgoEntry* e = find(name);
  if (e != nullptr) return *e;
  std::string known;
  for (const auto& entry : entries_) {
    if (!known.empty()) known += ", ";
    known += entry.name;
  }
  throw std::invalid_argument("unknown algorithm \"" + name +
                              "\" (known: " + known + ")");
}

// A kernel is declared once, as `kernel(n, input, interpret)`: it builds
// the workload of size n from the workloads:: generators with seed n,
// passes every input value through `input`, and returns
// `interpret(v, program)` for its machine size v(n) and its *_program call.
// The runner interprets the raw workload with run_for_trace; the
// taint hook interprets the workload tainted at injection with
// audit::AuditBackend. Both sit behind one admissibility gate: an
// inadmissible n (or unsupported backend) fails with the actionable
// registry message — offending n, size rule, nearest admissible size —
// instead of the kernel's bare invariant string.
template <typename Kernel>
void AlgoRegistry::add(Kernel kernel, AlgoEntry entry) {
  const std::size_t index = entries_.size();
  entry.runner = [this, index, kernel](std::uint64_t n,
                                       const RunOptions& options) {
    const AlgoEntry& self = entries_[index];
    require_admissible(self, n);
    if (!self.supports(options.backend)) {
      throw std::invalid_argument(self.name + ": backend \"" +
                                  to_string(options.backend) +
                                  "\" is not supported by this kernel");
    }
    if (options.backend == BackendKind::kAnalytic) {
      // Closed form, else the cost interpreter — the program itself
      // never interprets kAnalytic.
      return analytic_trace(self, n);
    }
    return kernel(n, std::identity{},
                  [&options](std::uint64_t v, auto&& program) {
                    return run_for_trace(v, options, program);
                  });
  };
  entry.taint = [this, index, kernel](std::uint64_t n) {
    require_admissible(entries_[index], n);
    return kernel(n, taint_input, [](std::uint64_t v, auto&& program) {
      audit::AuditBackend backend(v);
      program(backend);
      return backend.take_report();
    });
  };
  entries_.push_back(std::move(entry));
}

AlgoRegistry::AlgoRegistry() {
  using namespace workloads;

  add(
      [](std::uint64_t n, auto input, auto interpret) {
        const std::uint64_t m = sqrt_pow2(n);
        const auto a = input(random_matrix(m, m));
        const auto b = input(random_matrix(m, m + 1));
        return interpret(
            n, [&](auto& bk) { (void)matmul_program(bk, a, b, true); });
      },
      {.name = "matmul",
       .summary = "semiring matrix multiplication, Theta(n^{1/3}) memory",
       .source = "Thm 4.2",
       .size_rule = "n = m^2 elements, m a power of two",
       .predicted = predict::matmul,
       .lower_bound = lb::matmul,
       .bench_sizes = {64, 4096, 16384},
       .smoke_sizes = {64, 1024},
       .pattern = "recursive 8-way block replication",
       .formula = "O(n/p^{2/3} + sigma log p)",
       .header = "src/algorithms/matmul.hpp",
       .validate = square_pow2_size,
       .max_sweep_size = std::uint64_t{1} << 18});

  add(
      [](std::uint64_t n, auto input, auto interpret) {
        const std::uint64_t m = sqrt_pow2(n);
        const auto a = input(random_matrix(m, m));
        const auto b = input(random_matrix(m, m + 1));
        return interpret(
            n, [&](auto& bk) { (void)matmul_space_program(bk, a, b, true); });
      },
      {.name = "matmul-space",
       .summary = "space-efficient matrix multiplication, O(1) extra memory",
       .source = "Sec 4.1.1",
       .size_rule = "n = m^2 elements, m a power of two",
       .predicted = predict::matmul_space,
       .lower_bound = lb::matmul_space,
       .bench_sizes = {64, 1024, 4096},
       .smoke_sizes = {64, 1024},
       .pattern = "O(1)-memory block schedule",
       .formula = "O(n/sqrt(p) + sigma sqrt(p))",
       .header = "src/algorithms/matmul_space.hpp",
       .validate = square_pow2_size,
       .max_sweep_size = std::uint64_t{1} << 18});

  add(
      [](std::uint64_t n, auto input, auto interpret) {
        const auto signal = input(random_signal(n, n));
        return interpret(
            n, [&](auto& bk) { (void)fft_program(bk, signal, true); });
      },
      {.name = "fft",
       .summary = "network-oblivious FFT on the butterfly DAG",
       .source = "Thm 4.5",
       .size_rule = "n a power of two",
       .predicted = predict::fft,
       .lower_bound = lb::fft,
       .bench_sizes = {64, 1024, 16384},
       .smoke_sizes = {64, 1024},
       .pattern = "butterfly DAG via recursive transposes",
       .formula = "O((n/p + sigma) log n / log(n/p))",
       .header = "src/algorithms/fft.hpp",
       .validate = pow2_size});

  add(
      [](std::uint64_t n, auto input, auto interpret) {
        const auto keys = input(random_keys(n, n));
        return interpret(
            n, [&](auto& bk) { (void)sort_program(bk, keys, true); });
      },
      {.name = "sort",
       .summary = "recursive Columnsort",
       .source = "Thm 4.8",
       .size_rule = "n a power of two",
       .predicted = predict::sort,
       .lower_bound = lb::sort,
       .bench_sizes = {64, 1024, 4096},
       .smoke_sizes = {64, 256},
       .pattern = "recursive Columnsort, 8 phases",
       .formula = "O((n/p + sigma) (log n / log(n/p))^{log_{3/2} 4})",
       .header = "src/algorithms/sort.hpp",
       .validate = pow2_size,
       .max_sweep_size = std::uint64_t{1} << 20});

  add(
      [](std::uint64_t n, auto input, auto interpret) {
        const auto keys = input(random_keys(n, n));
        return interpret(
            n, [&](auto& bk) { (void)bitonic_sort_program(bk, keys); });
      },
      {.name = "bitonic",
       .summary = "Batcher's bitonic sorting network (ablation baseline)",
       .source = "Sec 4.3",
       .size_rule = "n a power of two",
       .predicted = bitonic_predicted,
       .lower_bound = lb::sort,
       .bench_sizes = {64, 1024, 4096},
       .smoke_sizes = {64, 256},
       .pattern = "fixed compare-exchange network",
       .formula = "Theta((n/p + sigma) * crossing stages)",
       .header = "src/algorithms/bitonic.hpp",
       .validate = pow2_size,
       .max_sweep_size = std::uint64_t{1} << 20});

  add(
      [](std::uint64_t n, auto input, auto interpret) {
        const auto rod = input(random_rod(n, n));
        return interpret(n, [&](auto& bk) {
          (void)stencil1_program(bk, rod, heat_rule, true, 0);
        });
      },
      {.name = "stencil1",
       .summary = "(n,1)-stencil diamond decomposition",
       .source = "Thm 4.11",
       .size_rule = "rod length n, a power of two",
       .predicted = predict::stencil1,
       .lower_bound =
           [](std::uint64_t n, std::uint64_t p, double sigma) {
             return lb::stencil(n, 1, p, sigma);
           },
       .bench_sizes = {64, 256, 1024},
       .smoke_sizes = {64, 256},
       .pattern = "1-D diamond decomposition",
       .formula = "O(n 4^{sqrt(log n)}) for sigma = O(n/p)",
       .header = "src/algorithms/stencil1d.hpp",
       .validate = pow2_size,
       .max_sweep_size = std::uint64_t{1} << 13});

  add(
      [](std::uint64_t n, auto, auto interpret) {
        // No input values reach the program: the schedule is a function
        // of n alone, on M(n^2).
        return interpret(
            n * n, [&](auto& bk) { (void)stencil2_program(bk, n, true, 0); });
      },
      {.name = "stencil2",
       .summary = "(n,2)-stencil schedule on M(n^2) (cost-faithful)",
       .source = "Thm 4.13",
       .size_rule = "grid side n, a power of two >= 2 (v = n^2)",
       .predicted = predict::stencil2,
       .lower_bound =
           [](std::uint64_t n, std::uint64_t p, double sigma) {
             return lb::stencil(n, 2, p, sigma);
           },
       .bench_sizes = {16, 64, 128},
       .smoke_sizes = {16},
       .pattern = "2-D diamond slabs on M(n^2)",
       .formula = "O((n^2/sqrt(p)) 8^{sqrt(log n)})",
       .header = "src/algorithms/stencil2d.hpp",
       .validate = pow2_size_ge2,
       .max_sweep_size = std::uint64_t{1} << 10});

  add(
      [](std::uint64_t n, auto input, auto interpret) {
        const auto addends = input(random_addends(n, n));
        return interpret(n, [&](auto& bk) { (void)scan_program(bk, addends); });
      },
      {.name = "scan",
       .summary = "two-sweep tree prefix-scan (tree-reduction pattern)",
       .source = "Sec 4.5 dual / Sec 5",
       .size_rule = "n a power of two",
       .predicted = predict::scan,
       .lower_bound =
           [](std::uint64_t, std::uint64_t p, double sigma) {
             return lb::scan(p, sigma);
           },
       .bench_sizes = {64, 1024, 16384},
       .smoke_sizes = {64, 1024},
       .pattern = "two-sweep reduction tree",
       .formula = "2 log p (1 + sigma)",
       .header = "src/algorithms/scan.hpp",
       .exact_h = true,
       .analytic = analytic::scan_trace,
       .validate = pow2_size});

  add(
      [](std::uint64_t n, auto input, auto interpret) {
        const std::uint64_t m = sqrt_pow2(n);
        const auto a = input(random_matrix(m, m));
        return interpret(n, [&](auto& bk) { (void)transpose_program(bk, a); });
      },
      {.name = "transpose",
       .summary = "recursive block matrix transposition (all-to-all pattern)",
       .source = "Sec 4.2 building block",
       .size_rule = "n = m^2 elements, m a power of two",
       .predicted = predict::transpose,
       .lower_bound = lb::transpose,
       .bench_sizes = {64, 4096, 16384},
       .smoke_sizes = {64, 1024},
       .pattern = "recursive quadrant swaps (all-to-all permutation)",
       .formula = "(n/p)(1 - 1/p) + sigma log p for p <= sqrt(n)",
       .header = "src/algorithms/transpose.hpp",
       .exact_h = true,
       .analytic = analytic::transpose_trace,
       .validate = square_pow2_size});

  add(
      [](std::uint64_t n, auto input, auto interpret) {
        const auto keys = input(random_keys(n, n));
        return interpret(
            n, [&](auto& bk) { (void)samplesort_program(bk, keys); });
      },
      {.name = "samplesort",
       .summary = "splitter-based sample-sort (data-dependent routing)",
       .source = "Sec 4.3 ablation",
       .size_rule = "n a power of two",
       .predicted = predict::samplesort,
       .lower_bound = lb::sort,
       .bench_sizes = {64, 1024, 4096},
       .smoke_sizes = {64, 256},
       .pattern = "data-dependent splitter routing",
       .formula = "~ 2n/p + (sqrt(n) - 1 + sigma) log p",
       .header = "src/algorithms/samplesort.hpp",
       .input_independent = false,
       .validate = pow2_size,
       .max_sweep_size = std::uint64_t{1} << 16});

  add(
      [](std::uint64_t n, auto input, auto interpret) {
        return interpret(n, [&](auto& bk) {
          (void)broadcast_program(bk, 2, input(std::uint64_t{1}));
        });
      },
      {.name = "broadcast",
       .summary = "network-oblivious binary-tree broadcast (fanout 2)",
       .source = "Sec 4.5 / Thm 4.16",
       .size_rule = "n = v processors, a power of two",
       .predicted =
           [](std::uint64_t, std::uint64_t p, double sigma) {
             return predict::broadcast_oblivious(p, sigma, 2);
           },
       .lower_bound =
           [](std::uint64_t, std::uint64_t p, double sigma) {
             return lb::broadcast(p, sigma);
           },
       .bench_sizes = {64, 1024, 4096},
       .smoke_sizes = {64, 1024},
       .pattern = "fixed-fanout tree (kappa = 2)",
       .formula = "(kappa - 1 + sigma) log_kappa p",
       .header = "src/algorithms/broadcast.hpp",
       .exact_h = true,
       .analytic = analytic::broadcast_trace,
       .validate = pow2_size});

  add(
      [](std::uint64_t n, auto input, auto interpret) {
        const auto addends = input(random_addends(n, n));
        return interpret(
            n, [&](auto& bk) { (void)reduce_program(bk, addends); });
      },
      {.name = "reduce",
       .summary = "full-machine tree reduction (scan's upsweep, exact H)",
       .source = "Sec 4.5 dual",
       .size_rule = "n a power of two",
       .predicted = predict::reduce,
       .lower_bound =
           [](std::uint64_t, std::uint64_t p, double sigma) {
             return lb::reduce(p, sigma);
           },
       .bench_sizes = {64, 1024, 16384},
       .smoke_sizes = {64, 1024},
       .pattern = "full-machine reduction tree",
       .formula = "log p (1 + sigma)",
       .header = "src/algorithms/primitives.hpp",
       .exact_h = true,
       .analytic = analytic::reduce_trace,
       .validate = pow2_size});

  add(
      [](std::uint64_t n, auto input, auto interpret) {
        const auto values = input(random_keys(n, n));
        return interpret(
            n, [&](auto& bk) { (void)gather_program(bk, values); });
      },
      {.name = "gather",
       .summary = "flat gather at VP 0 (maximally unbalanced, exact H)",
       .source = "Sec 4.5 counterpoint",
       .size_rule = "n a power of two",
       .predicted = predict::gather,
       .lower_bound = lb::gather,
       .bench_sizes = {64, 4096, 65536},
       .smoke_sizes = {64, 1024},
       .pattern = "flat gather at VP 0",
       .formula = "n(1 - 1/p) + sigma",
       .header = "src/algorithms/primitives.hpp",
       .exact_h = true,
       .analytic = analytic::gather_trace,
       .validate = pow2_size});

  add(
      [](std::uint64_t n, auto input, auto interpret) {
        const auto values = input(random_keys(n, n));
        return interpret(n, [&](auto& bk) { (void)shift_program(bk, values); });
      },
      {.name = "shift",
       .summary = "cyclic n/2-shift (maximally balanced all-cross, exact H)",
       .source = "Sec 2 folding",
       .size_rule = "n a power of two",
       .predicted = predict::shift,
       .lower_bound = lb::shift,
       .bench_sizes = {64, 4096, 65536},
       .smoke_sizes = {64, 1024},
       .pattern = "cyclic n/2-shift (all-cross permutation)",
       .formula = "n/p + sigma",
       .header = "src/algorithms/primitives.hpp",
       .exact_h = true,
       .analytic = analytic::shift_trace,
       .validate = pow2_size});
}

}  // namespace nobl
