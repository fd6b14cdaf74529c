// AlgoRegistry invariants: every entry is well formed, runners reject bad
// sizes with actionable errors, the primitive kernels are exact at every
// fold, and traces do not depend on the engine. The golden traces under
// tests/golden (`nobl check --golden`) pin the runners' traces themselves.
#include "core/registry.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "bsp/cost.hpp"
#include "cli/campaign.hpp"
#include "util/bits.hpp"
#include "util/json.hpp"

namespace nobl {
namespace {

TEST(Registry, CoversEveryAlgorithmFamily) {
  const auto& entries = AlgoRegistry::instance().entries();
  EXPECT_GE(entries.size(), 14u);
  for (const char* name :
       {"matmul", "matmul-space", "fft", "sort", "bitonic", "stencil1",
        "stencil2", "scan", "transpose", "samplesort", "broadcast", "reduce",
        "gather", "shift"}) {
    EXPECT_NE(AlgoRegistry::instance().find(name), nullptr) << name;
  }
}

TEST(Registry, EntriesAreWellFormed) {
  for (const AlgoEntry& entry : AlgoRegistry::instance().entries()) {
    EXPECT_FALSE(entry.name.empty());
    EXPECT_FALSE(entry.summary.empty()) << entry.name;
    EXPECT_FALSE(entry.size_rule.empty()) << entry.name;
    EXPECT_TRUE(entry.runner != nullptr) << entry.name;
    EXPECT_TRUE(entry.predicted != nullptr) << entry.name;
    EXPECT_TRUE(entry.lower_bound != nullptr) << entry.name;
    EXPECT_FALSE(entry.bench_sizes.empty()) << entry.name;
    EXPECT_FALSE(entry.smoke_sizes.empty()) << entry.name;
    EXPECT_GE(entry.max_sweep_size, 1u) << entry.name;
    // Catalog metadata (docs/KERNELS.md is generated from these).
    EXPECT_FALSE(entry.pattern.empty()) << entry.name;
    EXPECT_FALSE(entry.formula.empty()) << entry.name;
    EXPECT_FALSE(entry.header.empty()) << entry.name;
    // An exact-H kernel must carry its closed-form synthesizer, and a
    // synthesizer only makes sense for an input-independent schedule.
    if (entry.exact_h) {
      EXPECT_TRUE(entry.analytic != nullptr) << entry.name;
    }
    if (entry.analytic != nullptr) {
      EXPECT_TRUE(entry.input_independent) << entry.name;
    }
    for (const auto n : entry.bench_sizes) {
      EXPECT_TRUE(entry.admits(n)) << entry.name << " bench n=" << n;
      EXPECT_LE(n, entry.max_sweep_size) << entry.name << " bench n=" << n;
    }
    for (const auto n : entry.smoke_sizes) {
      EXPECT_TRUE(entry.admits(n)) << entry.name << " smoke n=" << n;
      EXPECT_LE(n, entry.max_sweep_size) << entry.name << " smoke n=" << n;
    }
    // Every kernel is a Program: all five backends must be supported
    // (analytic included — it falls back to cost for data-dependent
    // kernels, so it is never refused at the registry level — and
    // distributed, whose shards drive the same program).
    EXPECT_EQ(entry.backends.size(), 5u) << entry.name;
    for (const BackendKind kind : all_backend_kinds()) {
      EXPECT_TRUE(entry.supports(kind)) << entry.name;
    }
  }
}

TEST(Registry, UnknownNameListsKnownOnes) {
  try {
    (void)AlgoRegistry::instance().at("quicksort");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("quicksort"), std::string::npos);
    EXPECT_NE(message.find("matmul"), std::string::npos);
  }
}

TEST(Registry, RunnersRejectBadSizes) {
  const auto& registry = AlgoRegistry::instance();
  EXPECT_THROW((void)registry.at("matmul").runner(48, {}),
               std::invalid_argument);
  EXPECT_THROW((void)registry.at("fft").runner(100, {}),
               std::invalid_argument);
  EXPECT_THROW((void)registry.at("scan").runner(3, {}),
               std::invalid_argument);
  EXPECT_THROW((void)registry.at("transpose").runner(32, {}),
               std::invalid_argument);  // power of two but not a square
  EXPECT_THROW((void)registry.at("samplesort").runner(100, {}),
               std::invalid_argument);
  EXPECT_FALSE(registry.at("matmul").admits(48));
  EXPECT_FALSE(registry.at("stencil2").admits(1));
  EXPECT_FALSE(registry.at("transpose").admits(32));
  EXPECT_TRUE(registry.at("transpose").admits(64));
}

TEST(Registry, RunnerErrorsAreActionable) {
  // The historical admits()/runner asymmetry: admits(48) said no, but the
  // runner surfaced only the kernel's bare size rule. Every runner now
  // fails with the offending n, the rule, and the nearest admissible size —
  // under every backend.
  const auto& registry = AlgoRegistry::instance();
  for (const BackendKind kind : all_backend_kinds()) {
    try {
      (void)registry.at("matmul").runner(48, RunOptions{kind});
      FAIL() << "expected invalid_argument under " << to_string(kind);
    } catch (const std::invalid_argument& e) {
      const std::string message = e.what();
      EXPECT_NE(message.find("matmul: n = 48 is inadmissible"),
                std::string::npos)
          << message;
      EXPECT_NE(message.find("n = m^2 elements"), std::string::npos);
      EXPECT_NE(message.find("nearest admissible n = 64"), std::string::npos);
    }
  }
  EXPECT_EQ(registry.at("matmul").nearest_admissible(48), 64u);
  EXPECT_EQ(registry.at("transpose").nearest_admissible(32), 16u);
  EXPECT_EQ(registry.at("scan").nearest_admissible(3), 2u);  // tie -> smaller
  EXPECT_EQ(registry.at("stencil2").nearest_admissible(1), 2u);
}

TEST(Registry, MachineReadableDumpCoversEveryEntry) {
  // The `nobl list --json` document (write_registry_json): one object per
  // registered algorithm with the fields CI scripts key on, plus the
  // builtin campaign names — no more scraping the human table.
  std::ostringstream os;
  write_registry_json(os);
  const JsonValue doc = JsonValue::parse(os.str());
  EXPECT_EQ(doc.at("schema_version").as_number(), 1.0);
  const auto& algorithms = doc.at("algorithms").as_array();
  ASSERT_EQ(algorithms.size(), AlgoRegistry::instance().entries().size());
  for (std::size_t k = 0; k < algorithms.size(); ++k) {
    const JsonValue& algo = algorithms[k];
    const AlgoEntry& entry = AlgoRegistry::instance().entries()[k];
    EXPECT_EQ(algo.at("name").as_string(), entry.name);
    EXPECT_EQ(algo.at("source").as_string(), entry.source);
    EXPECT_EQ(algo.at("size_rule").as_string(), entry.size_rule);
    EXPECT_EQ(algo.at("max_sweep_size").as_number(),
              static_cast<double>(entry.max_sweep_size));
    ASSERT_EQ(algo.at("bench_sizes").as_array().size(),
              entry.bench_sizes.size());
    ASSERT_EQ(algo.at("smoke_sizes").as_array().size(),
              entry.smoke_sizes.size());
    const auto& backends = algo.at("backends").as_array();
    ASSERT_EQ(backends.size(), entry.backends.size());
    for (std::size_t b = 0; b < backends.size(); ++b) {
      EXPECT_EQ(backends[b].as_string(), to_string(entry.backends[b]));
    }
  }
  const auto& campaigns = doc.at("campaigns").as_array();
  ASSERT_FALSE(campaigns.empty());
  EXPECT_EQ(campaigns[0].as_string(), "ci-smoke");
}

TEST(Registry, PrimitiveKernelsAreExactAtEveryFold) {
  // reduce / gather / shift are the calibration kernels: measured H must
  // equal the closed form exactly at every fold and σ, under the cost
  // backend (the backend the sweeps run on).
  for (const char* name : {"reduce", "gather", "shift"}) {
    const AlgoEntry& entry = AlgoRegistry::instance().at(name);
    for (const std::uint64_t n : {16u, 64u}) {
      const Trace trace = entry.runner(n, RunOptions{BackendKind::kCost});
      for (std::uint64_t p = 2; p <= n; p *= 2) {
        for (const double sigma : {0.0, 1.0, 7.5}) {
          EXPECT_DOUBLE_EQ(
              communication_complexity(trace, log2_exact(p), sigma),
              entry.predicted(n, p, sigma))
              << name << " n=" << n << " p=" << p << " sigma=" << sigma;
        }
      }
    }
  }
}

TEST(Registry, TracesAreEngineInvariant) {
  // The registry runner contract the CLI's trace export leans on.
  for (const char* name : {"fft", "broadcast"}) {
    const AlgoEntry& entry = AlgoRegistry::instance().at(name);
    const Trace seq = entry.runner(64, ExecutionPolicy::sequential());
    const Trace par = entry.runner(64, ExecutionPolicy::parallel(2));
    ASSERT_EQ(seq.supersteps(), par.supersteps()) << name;
    for (std::size_t s = 0; s < seq.supersteps(); ++s) {
      EXPECT_EQ(seq.steps()[s].degree, par.steps()[s].degree) << name;
      EXPECT_EQ(seq.steps()[s].messages, par.steps()[s].messages) << name;
    }
  }
}

}  // namespace
}  // namespace nobl
