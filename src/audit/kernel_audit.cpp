#include "audit/kernel_audit.hpp"

#include <cstdint>
#include <stdexcept>
#include <vector>

namespace nobl::audit {

KernelVerdict audit_kernel(const AlgoEntry& entry, std::uint64_t n) {
  if (n == 0) {
    if (entry.smoke_sizes.empty()) {
      throw std::invalid_argument("audit: kernel \"" + entry.name +
                                  "\" has no smoke sizes and no explicit n");
    }
    n = entry.smoke_sizes.front();
  }

  KernelVerdict verdict;
  verdict.name = entry.name;
  verdict.n = n;
  verdict.registry_input_independent = entry.input_independent;

  verdict.report = entry.taint(n);  // throws on an inadmissible n
  verdict.data_dependent = !verdict.report.oblivious();
  verdict.matches_registry =
      verdict.data_dependent == !entry.input_independent;

  Schedule schedule;
  RunOptions record;
  record.backend = BackendKind::kRecord;
  record.capture = &schedule;
  (void)entry.runner(n, record);
  verdict.lint = lint_schedule(schedule);
  merge_into(verdict.lint,
             lint_against_formulas(schedule.replay_trace(), n, entry.predicted,
                                   entry.lower_bound, entry.exact_h,
                                   entry.name));
  return verdict;
}

std::vector<KernelVerdict> audit_registry() {
  std::vector<KernelVerdict> verdicts;
  const auto& entries = AlgoRegistry::instance().entries();
  verdicts.reserve(entries.size());
  for (const AlgoEntry& entry : entries) {
    verdicts.push_back(audit_kernel(entry, 0));
  }
  return verdicts;
}

}  // namespace nobl::audit
