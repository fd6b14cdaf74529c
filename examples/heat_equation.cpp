// Heat diffusion on a rod: the motivating workload for the (n,1)-stencil
// algorithm of Section 4.4.1.
//
// A hot spot diffuses along a rod of n cells for n timesteps. We run the
// same physics twice — with the network-oblivious diamond decomposition
// (Figure 1) and with the naive row-per-superstep schedule — and compare
// their communication time on machines with different latency profiles.
//
// Build & run:  ./examples/heat_equation
#include <iostream>
#include <vector>

#include "algorithms/stencil1d.hpp"
#include "bsp/cost.hpp"
#include "bsp/topology.hpp"
#include "util/table.hpp"

int main() {
  using namespace nobl;
  constexpr std::uint64_t n = 256;

  // Hot spot in the middle of the rod.
  std::vector<double> rod(n, 0.0);
  rod[n / 2] = 1000.0;
  const auto physics = [](double l, double c, double r) {
    return 0.25 * l + 0.5 * c + 0.25 * r;
  };

  // run_program simulates a kernel's program on M(n) and hands back its
  // output (here the space-time grid) together with the recorded trace.
  const auto diamond = run_program<double>(
      n, [&](auto& bk) { return stencil1_program(bk, rod, physics); });
  const auto rowwise = run_program<double>(
      n, [&](auto& bk) { return stencil1_rowwise_program(bk, rod, physics); });

  // Identical physics, different schedules.
  std::cout << "temperature after " << n - 1 << " steps (sampled):\n  ";
  for (std::uint64_t x = n / 2 - 32; x <= n / 2 + 32; x += 16) {
    std::cout << "T[" << x << "]=" << Table::format_double(
                     diamond.output(n - 1, x))
              << "  ";
  }
  std::cout << "\n  schedules agree: "
            << (diamond.output == rowwise.output ? "yes" : "NO") << "\n\n";

  Table t("Diamond decomposition vs row-wise schedule (same physics)",
          {"machine", "D diamond", "D row-wise", "row/diamond"});
  struct Probe {
    const char* name;
    DbspParams params;
  };
  const std::vector<Probe> probes{
      {"hypercube p=16 (cheap sync)", topology::hypercube(16)},
      {"uniform p=16, ell=100", topology::uniform(16, 1.0, 100.0)},
      {"uniform p=4, ell=1000 (WAN-ish)", topology::uniform(4, 1.0, 1000.0)},
      {"linear array p=16", topology::linear_array(16)},
  };
  for (const auto& probe : probes) {
    const double dd = communication_time(diamond.trace, probe.params);
    const double dr = communication_time(rowwise.trace, probe.params);
    t.row().add(probe.name).add(dd).add(dr).add(dr / dd);
  }
  std::cout << t
            << "\nThe diamond schedule trades a 4^sqrt(log n) message-volume "
               "factor for\nbarrier locality: the higher the latency, the "
               "bigger its win.\n";
  return 0;
}
