// Tour of the three communication patterns added by the scan / transpose /
// sample-sort kernels: tree reduction, recursive all-to-all permutation,
// and data-dependent splitter routing. Everything below comes off the
// registry — runner, closed forms, certification — which is all a new
// kernel needs to wire up to be drivable from here, the benches, and nobl.
#include <iostream>

#include "algorithms/samplesort.hpp"
#include "bsp/cost.hpp"
#include "core/experiment.hpp"
#include "core/registry.hpp"
#include "core/workloads.hpp"
#include "util/table.hpp"

int main() {
  using namespace nobl;
  const std::uint64_t n = 64;

  for (const char* name : {"scan", "transpose", "samplesort"}) {
    const AlgoEntry& entry = AlgoRegistry::instance().at(name);
    std::cout << "== " << entry.name << " — " << entry.summary << " ==\n";
    const AlgoRun run{n, entry.runner(n, ExecutionPolicy::sequential())};
    std::cout << superstep_census("superstep census by label", run);
    std::cout << h_table("measured vs closed forms", {run}, entry.predicted,
                         entry.lower_bound);
  }

  // Sample-sort is the one kernel whose degrees follow the data: identical
  // superstep structure, different traffic on a duplicate-heavy input.
  // run_program simulates the kernel's program directly, for one input.
  const auto random_keys = workloads::random_keys(n, n);
  const auto heavy_keys = workloads::duplicate_heavy_keys(n, n);
  const auto random = run_program<std::uint64_t>(
      n, [&](auto& bk) { return samplesort_program(bk, random_keys); });
  const auto heavy = run_program<std::uint64_t>(
      n, [&](auto& bk) { return samplesort_program(bk, heavy_keys); });
  Table t("static structure, data-dependent degrees (samplesort, n=64)",
          {"input", "supersteps", "messages", "H(p=8, sigma=0)"});
  t.row()
      .add("random keys")
      .add(random.trace.supersteps())
      .add(random.trace.total_messages())
      .add(communication_complexity(random.trace, 3, 0));
  t.row()
      .add("4 distinct keys")
      .add(heavy.trace.supersteps())
      .add(heavy.trace.total_messages())
      .add(communication_complexity(heavy.trace, 3, 0));
  std::cout << t;
  return 0;
}
