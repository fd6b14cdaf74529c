// The registry pin: every kernel's static obliviousness verdict must agree
// with its `input_independent` annotation, and every recorded schedule must
// lint clean. A kernel whose annotation drifts from what its program
// actually does — in either direction — fails here by name.
#include <cstdint>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "audit/kernel_audit.hpp"
#include "core/registry.hpp"

namespace nobl::audit {
namespace {

std::string describe(const KernelVerdict& verdict) {
  std::string text = verdict.name + " (n = " + std::to_string(verdict.n) +
                     "): tainted destinations = " +
                     std::to_string(verdict.report.tainted_destinations()) +
                     ", tainted counts = " +
                     std::to_string(verdict.report.tainted_counts()) +
                     ", declassifications = " +
                     std::to_string(verdict.report.declassifications());
  if (!verdict.lint.clean()) {
    text += "; lint: " + verdict.lint.issues.front().rule + ": " +
            verdict.lint.issues.front().detail;
  }
  return text;
}

TEST(KernelVerdicts, EveryKernelMatchesItsRegistryAnnotation) {
  const auto verdicts = audit_registry();
  ASSERT_EQ(verdicts.size(), AlgoRegistry::instance().entries().size());
  for (const KernelVerdict& verdict : verdicts) {
    EXPECT_TRUE(verdict.matches_registry) << describe(verdict);
    EXPECT_TRUE(verdict.lint.clean()) << describe(verdict);
    EXPECT_TRUE(verdict.passed()) << describe(verdict);
  }
}

TEST(KernelVerdicts, SamplesortIsTheOnlyDataDependentKernel) {
  const auto verdicts = audit_registry();
  std::size_t flagged = 0;
  for (const KernelVerdict& verdict : verdicts) {
    if (verdict.data_dependent) {
      ++flagged;
      EXPECT_EQ(verdict.name, "samplesort") << describe(verdict);
    }
  }
  EXPECT_EQ(flagged, 1u);
}

TEST(KernelVerdicts, SamplesortFlagsForTheRightReasons) {
  const AlgoEntry& entry = AlgoRegistry::instance().at("samplesort");
  const KernelVerdict verdict = audit_kernel(entry, 64);
  EXPECT_TRUE(verdict.data_dependent);
  EXPECT_FALSE(verdict.registry_input_independent);
  EXPECT_TRUE(verdict.matches_registry);
  // Splitter routing (phase 5) and placement (phase 8) send to key-derived
  // destinations; the bucket exchange (phase 6) is control-dependent via
  // the host-mirror declassifications that shaped the held-key sets.
  EXPECT_GT(verdict.report.tainted_destinations(), 0u) << describe(verdict);
  EXPECT_GT(verdict.report.declassifications(), 0u) << describe(verdict);
  EXPECT_GE(verdict.report.flagged_steps().size(), 3u) << describe(verdict);
  // Structural legality is independent of data dependence.
  EXPECT_TRUE(verdict.lint.clean()) << describe(verdict);
}

TEST(KernelVerdicts, ObliviousKernelIsEventFreeNotMerelyBalanced) {
  const KernelVerdict verdict =
      audit_kernel(AlgoRegistry::instance().at("sort"), 64);
  EXPECT_FALSE(verdict.data_dependent) << describe(verdict);
  EXPECT_EQ(verdict.report.tainted_destinations(), 0u);
  EXPECT_EQ(verdict.report.tainted_counts(), 0u);
  EXPECT_EQ(verdict.report.declassifications(), 0u);
  EXPECT_FALSE(verdict.report.steps.empty());
}

TEST(KernelVerdicts, TaintHookRunsTheRunnersProgram) {
  // The taint pass and the runner derive from one kernel definition: at
  // every smoke size they drive the same superstep sequence.
  for (const AlgoEntry& entry : AlgoRegistry::instance().entries()) {
    for (const std::uint64_t n : entry.smoke_sizes) {
      SCOPED_TRACE(entry.name + " n=" + std::to_string(n));
      const AuditReport report = entry.taint(n);
      const Trace trace = entry.runner(n, RunOptions{BackendKind::kCost});
      EXPECT_EQ(report.log_v, trace.log_v());
      ASSERT_EQ(report.steps.size(), trace.supersteps());
      for (std::size_t s = 0; s < report.steps.size(); ++s) {
        EXPECT_EQ(report.steps[s].label, trace.steps()[s].label)
            << "superstep " << s;
      }
    }
  }
}

TEST(KernelVerdicts, ExplicitSizeOverridesDefault) {
  const KernelVerdict verdict =
      audit_kernel(AlgoRegistry::instance().at("scan"), 128);
  EXPECT_EQ(verdict.n, 128u);
  EXPECT_FALSE(verdict.data_dependent);
}

TEST(KernelVerdicts, InadmissibleSizeFailsWithRegistryMessage) {
  const AlgoEntry& scan = AlgoRegistry::instance().at("scan");
  try {
    (void)audit_kernel(scan, 100);
    ADD_FAILURE() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()), scan.inadmissible_message(100));
  }
}

}  // namespace
}  // namespace nobl::audit
