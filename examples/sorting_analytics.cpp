// Percentile analytics over a skewed workload with network-oblivious
// Columnsort (Section 4.3).
//
// Response-time-like samples (log-normal-ish, heavy tail) are sorted on
// M(n); percentiles are then rank lookups. The cost table shows Theorem
// 4.8's polylog sorting premium over the FFT-type lower bound appearing
// only at high parallelism — the paper's "optimal for p = O(n^{1-δ})".
//
// Build & run:  ./examples/sorting_analytics
#include <cmath>
#include <iostream>
#include <vector>

#include "algorithms/sort.hpp"
#include "bsp/cost.hpp"
#include "core/lower_bounds.hpp"
#include "core/predictions.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

int main() {
  using namespace nobl;
  constexpr std::uint64_t n = 4096;

  // Synthetic latency samples in microseconds: exp(N(7, 0.8)) approximated
  // with a sum of uniforms, plus a 1% tail of stragglers.
  Xoshiro256 rng(7);
  std::vector<std::uint64_t> samples(n);
  for (auto& s : samples) {
    double g = 0;
    for (int i = 0; i < 12; ++i) g += rng.unit();
    g = (g - 6.0) * 0.8 + 7.0;  // ~N(7, 0.8)
    s = static_cast<std::uint64_t>(std::exp(g));
    if (rng.below(100) == 0) s *= 50;  // stragglers
  }

  // run_program simulates Columnsort on M(n): sorted output plus trace.
  const auto run = run_program<std::uint64_t>(
      n, [&](auto& bk) { return sort_program(bk, samples); });
  auto pct = [&](double q) {
    return run.output[static_cast<std::size_t>(q * (n - 1))];
  };
  std::cout << "latency percentiles over " << n << " samples (us):\n"
            << "  p50=" << pct(0.50) << "  p90=" << pct(0.90)
            << "  p99=" << pct(0.99) << "  p99.9=" << pct(0.999)
            << "  max=" << run.output.back() << "\n\n";

  Table t("Columnsort cost (Theorem 4.8) vs the Lemma 4.7 lower bound",
          {"p", "H measured", "H predicted", "lower bound", "meas/LB",
           "supersteps used"});
  for (std::uint64_t p = 4; p <= n; p *= 4) {
    const unsigned log_p = log2_exact(p);
    const double h = communication_complexity(run.trace, log_p, 0);
    t.row()
        .add(p)
        .add(h)
        .add(predict::sort(n, p, 0))
        .add(lb::sort(n, p, 0))
        .add(h / lb::sort(n, p, 0))
        .add(run.trace.total_S(log_p));
  }
  std::cout << t
            << "\nmeas/LB stays bounded at moderate p and grows polylog at "
               "p -> n,\nexactly the Theorem 4.8 / Corollary 4.9 regime "
               "split.\n";
  return 0;
}
