// Shared experiment harness: predicted-vs-measured table assembly.
//
// Every bench follows the same pattern: run the network-oblivious algorithm
// once per input size on M(v(n)), then interrogate the recorded trace at
// every fold p and a σ grid, comparing against the paper's closed forms and
// lower bounds. These helpers keep that pattern in one place.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "bsp/backend.hpp"
#include "bsp/cost.hpp"
#include "bsp/execution.hpp"
#include "bsp/trace.hpp"
#include "core/optimality.hpp"
#include "util/table.hpp"

namespace nobl {

/// A completed specification-model run: input size plus its trace.
struct AlgoRun {
  std::uint64_t n = 0;
  Trace trace;
};

/// Executes one specification-model run of size n under the selected
/// backend and engine (bsp/backend.hpp::RunOptions) and returns its trace.
/// RunOptions converts implicitly from an ExecutionPolicy, so
/// `runner(n, policy)` runs the simulator under that engine.
using PolicyRunner =
    std::function<Trace(std::uint64_t n, const RunOptions& options)>;

/// Produce the AlgoRun series for a size sweep under one backend/engine.
/// This is the single seam through which benches and CLIs select the
/// execution stack (typically via execution_policy_from_env(), see
/// bsp/execution.hpp).
[[nodiscard]] std::vector<AlgoRun> make_runs(
    const std::vector<std::uint64_t>& sizes, const PolicyRunner& runner,
    const RunOptions& options = {});

/// Closed-form cost formula (n, p, σ) -> value.
using CostFormula =
    std::function<double(std::uint64_t n, std::uint64_t p, double sigma)>;

/// Standard σ grid for an (n, p) cell: {0, 1, √(n/p), n/p} clipped to
/// distinct values — covering the theorem ranges "σ = O(n/p)".
[[nodiscard]] std::vector<double> sigma_grid(std::uint64_t n, std::uint64_t p);

/// Power-of-two machine sizes 2, 4, ..., max_p.
[[nodiscard]] std::vector<std::uint64_t> pow2_range(std::uint64_t max_p);

/// Table: for each run and each fold p (and σ in the grid), measured H,
/// predicted H (paper upper bound), lower bound, and the two ratios.
[[nodiscard]] Table h_table(const std::string& title,
                            const std::vector<AlgoRun>& runs,
                            const CostFormula& predicted,
                            const CostFormula& lower_bound);

/// Table: wiseness α and fullness γ of each run at each fold (Defs. 3.2/5.2).
[[nodiscard]] Table wiseness_table(const std::string& title,
                                   const std::vector<AlgoRun>& runs);

/// Table: D-BSP communication time of each run on each topology of the
/// standard suite at fold p, against the folding-derived D-BSP lower bound.
[[nodiscard]] Table dbsp_table(const std::string& title,
                               const std::vector<AlgoRun>& runs, std::uint64_t p,
                               const LowerBoundFn& lower_bound);

/// Table: superstep census by label for one run (used for the Figure-1
/// stripe/phase reproduction and general structure inspection).
[[nodiscard]] Table superstep_census(const std::string& title, const AlgoRun& run);

}  // namespace nobl
