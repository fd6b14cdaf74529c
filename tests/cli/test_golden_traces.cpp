// Golden-trace conformance: the fixtures under tests/golden/ were produced
// by
//
//   nobl trace --export tests/golden --campaign golden --format bin   (.nbt)
//
// and pin three layers at once across refactors:
//   * the algorithms' communication schedules (re-running each registry
//     runner must reproduce the archived bytes bit-for-bit, under both
//     engines),
//   * trace_store (encode -> bytes must match the archives; decode -> the
//     same metrics),
//   * the certification pipeline (H/alpha/gamma recomputed from the decoded
//     trace must equal the live run's).
// CSV is an export view of the same traces (`nobl convert`); its byte format
// is pinned by tests/bsp/test_trace_io.cpp. Regenerate the fixtures with the
// command above ONLY for an intentional schedule change, and say so in the
// commit message.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bsp/cost.hpp"
#include "bsp/trace_io.hpp"
#include "bsp/trace_store.hpp"
#include "cli/campaign.hpp"
#include "core/registry.hpp"
#include "core/wiseness.hpp"
#include "util/bits.hpp"

#ifndef NOBL_GOLDEN_DIR
#error "NOBL_GOLDEN_DIR must point at tests/golden (set in CMakeLists.txt)"
#endif

namespace nobl {
namespace {

std::string golden_path(const std::string& algorithm, std::uint64_t n) {
  return std::string(NOBL_GOLDEN_DIR) + "/" + algorithm + "_n" +
         std::to_string(n) + kTraceBinExtension;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing golden fixture " << path
                         << " (regenerate: nobl trace --export tests/golden "
                            "--campaign golden --format bin)";
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::string serialize(const Trace& trace) {
  std::ostringstream os;
  write_trace_bin(os, trace);
  return os.str();
}

class GoldenTraceTest : public ::testing::TestWithParam<AlgoSweep> {};

TEST_P(GoldenTraceTest, ReplayIsBitIdenticalUnderBothEngines) {
  const AlgoSweep& sweep = GetParam();
  const AlgoEntry& entry = AlgoRegistry::instance().at(sweep.algorithm);
  for (const std::uint64_t n : sweep.sizes) {
    const std::string golden = read_file(golden_path(entry.name, n));
    ASSERT_FALSE(golden.empty());

    const Trace seq = entry.runner(n, ExecutionPolicy::sequential());
    EXPECT_EQ(serialize(seq), golden)
        << entry.name << " n=" << n << " [seq]: schedule drifted";

    const Trace par = entry.runner(n, ExecutionPolicy::parallel(2));
    EXPECT_EQ(serialize(par), golden)
        << entry.name << " n=" << n << " [par:2]: schedule drifted";
  }
}

TEST_P(GoldenTraceTest, ParsedTraceRecertifiesIdentically) {
  const AlgoSweep& sweep = GetParam();
  const AlgoEntry& entry = AlgoRegistry::instance().at(sweep.algorithm);
  for (const std::uint64_t n : sweep.sizes) {
    const Trace archived =
        TraceReader::from_bytes(read_file(golden_path(entry.name, n)))
            .materialize();
    const Trace live = entry.runner(n, ExecutionPolicy::sequential());

    ASSERT_EQ(archived.log_v(), live.log_v());
    ASSERT_EQ(archived.supersteps(), live.supersteps());
    EXPECT_EQ(archived.total_messages(), live.total_messages());
    for (const std::uint64_t p : pow2_range(live.v())) {
      const unsigned log_p = log2_exact(p);
      for (const double sigma : {0.0, 1.0, 8.0}) {
        EXPECT_EQ(communication_complexity(archived, log_p, sigma),
                  communication_complexity(live, log_p, sigma))
            << entry.name << " n=" << n << " p=" << p;
      }
      EXPECT_EQ(wiseness_alpha(archived, log_p), wiseness_alpha(live, log_p));
      EXPECT_EQ(fullness_gamma(archived, log_p), fullness_gamma(live, log_p));
    }
    const auto sigmas = sigma_grid(n, live.v());
    const OptimalityReport from_archive = certify_optimality(
        archived, n, live.log_v(), entry.lower_bound, sigmas);
    const OptimalityReport from_live = certify_optimality(
        live, n, live.log_v(), entry.lower_bound, sigmas);
    EXPECT_EQ(from_archive.alpha, from_live.alpha);
    EXPECT_EQ(from_archive.gamma, from_live.gamma);
    EXPECT_EQ(from_archive.beta_min, from_live.beta_min);
    EXPECT_EQ(from_archive.beta_at_p, from_live.beta_at_p);
  }
}

TEST(GoldenFixtures, CampaignCoversTheFullKernelSpread) {
  // The golden campaign (and with it both parameterized suites above) must
  // include the tree/permutation/data-dependent kernels, and every sweep
  // must have its archived fixture present.
  const CampaignSpec spec = builtin_campaign("golden");
  std::vector<std::string> names;
  for (const AlgoSweep& sweep : spec.sweeps) {
    names.push_back(sweep.algorithm);
    for (const std::uint64_t n : sweep.sizes) {
      std::ifstream in(golden_path(sweep.algorithm, n), std::ios::binary);
      EXPECT_TRUE(in.good())
          << "missing fixture for " << sweep.algorithm << " n=" << n
          << " (regenerate: nobl trace --export tests/golden "
             "--campaign golden --format bin)";
    }
  }
  for (const char* required : {"scan", "transpose", "samplesort"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), required), names.end())
        << required;
  }
}

INSTANTIATE_TEST_SUITE_P(
    GoldenCampaign, GoldenTraceTest,
    ::testing::ValuesIn(builtin_campaign("golden").sweeps),
    [](const ::testing::TestParamInfo<AlgoSweep>& param_info) {
      std::string name = param_info.param.algorithm;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace nobl
