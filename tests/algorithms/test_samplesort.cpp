// Property tests for sample-sort: output correctness on random,
// duplicate-heavy, sorted, reversed and all-equal fixed-seed inputs under
// both engines; the static-structure guarantee (superstep count and labels
// depend only on n, degrees may follow the data); degree conformance
// against the ReferenceDegreeAccumulator oracle via an independent mirror
// of the eight-phase schedule; and rejection of odd sizes.
#include "algorithms/samplesort.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/wiseness.hpp"
#include "core/workloads.hpp"
#include "degree_check.hpp"
#include "util/bits.hpp"

namespace nobl {
namespace {

using testing_detail::ExpectedStep;

/// Independent mirror of the samplesort schedule: derives the full message
/// pattern for `keys` without touching the algorithm's internals.
std::vector<ExpectedStep> expected_samplesort_steps(
    const std::vector<std::uint64_t>& keys) {
  const std::uint64_t n = keys.size();
  const unsigned log_n = log2_exact(n);
  const std::uint64_t s = samplesort_buckets(n);
  const std::uint64_t c = n / s;
  const unsigned log_s = log2_exact(s);
  std::vector<ExpectedStep> steps;

  // Phase 1: sample gather.
  ExpectedStep gather{0, {}};
  std::vector<std::uint64_t> samples(s);
  for (std::uint64_t k = 0; k < s; ++k) {
    samples[k] = keys[k * c];
    gather.messages.push_back({k * c, k, 1});
  }
  steps.push_back(std::move(gather));

  // Phase 2: bitonic exchange stages on the samples.
  for (unsigned phase = 0; phase < log_s; ++phase) {
    for (unsigned bit = phase + 1; bit-- > 0;) {
      const std::uint64_t mask = std::uint64_t{1} << bit;
      ExpectedStep stage{log_n - 1 - bit, {}};
      for (std::uint64_t r = 0; r < s; ++r) {
        stage.messages.push_back({r, r ^ mask, 1});
      }
      steps.push_back(std::move(stage));
      std::vector<std::uint64_t> next(samples);
      for (std::uint64_t r = 0; r < s; ++r) {
        const bool ascending = (r & (std::uint64_t{1} << (phase + 1))) == 0;
        const bool keep_low = (r & mask) == 0;
        next[r] = (keep_low == ascending)
                      ? std::min(samples[r], samples[r ^ mask])
                      : std::max(samples[r], samples[r ^ mask]);
      }
      samples.swap(next);
    }
  }
  const std::vector<std::uint64_t> splitters(samples.begin() + 1,
                                             samples.end());

  if (s >= 2) {
    // Phase 3: splitter gather at VP 0.
    ExpectedStep to_zero{0, {}};
    for (std::uint64_t r = 1; r < s; ++r) to_zero.messages.push_back({r, 0, 1});
    steps.push_back(std::move(to_zero));

    // Phase 4: binary-tree broadcast, s-1 messages per edge.
    for (unsigned round = 0; round < log_n; ++round) {
      const std::uint64_t spacing = n >> round;
      ExpectedStep bcast{round, {}};
      for (std::uint64_t r = 0; r < n; r += spacing) {
        bcast.messages.push_back({r, r + spacing / 2, s - 1});
      }
      steps.push_back(std::move(bcast));
    }
  }

  // Phase 5: route keys to buckets.
  auto bucket_of = [&](std::uint64_t key) {
    return static_cast<std::uint64_t>(
        std::upper_bound(splitters.begin(), splitters.end(), key) -
        splitters.begin());
  };
  ExpectedStep route{0, {}};
  std::vector<std::vector<std::uint64_t>> held(n);
  for (std::uint64_t r = 0; r < n; ++r) {
    const std::uint64_t dst = bucket_of(keys[r]) * c + r % c;
    route.messages.push_back({r, dst, 1});
    held[dst].push_back(keys[r]);
  }
  steps.push_back(std::move(route));

  // Phase 6: in-bucket all-to-all.
  ExpectedStep exchange{log_s, {}};
  for (std::uint64_t q = 0; q < n; ++q) {
    if (held[q].empty()) continue;
    const std::uint64_t base = q & ~(c - 1);
    for (std::uint64_t o = base; o < base + c; ++o) {
      if (o != q) exchange.messages.push_back({q, o, held[q].size()});
    }
  }
  steps.push_back(std::move(exchange));

  // Phase 7: two-sweep offset scan over bucket leaders (stride c).
  if (s >= 2) {
    for (unsigned t = 0; t < log_s; ++t) {
      ExpectedStep up{log_s - (t + 1), {}};
      const std::uint64_t block = std::uint64_t{1} << t;
      for (std::uint64_t k = block; k < s; k += 2 * block) {
        up.messages.push_back({k * c, (k - block) * c, 1});
      }
      steps.push_back(std::move(up));
    }
    for (unsigned t = log_s; t-- > 0;) {
      ExpectedStep down{log_s - (t + 1), {}};
      const std::uint64_t block = std::uint64_t{1} << t;
      for (std::uint64_t k = 0; k < s; k += 2 * block) {
        down.messages.push_back({k * c, (k + block) * c, 1});
      }
      steps.push_back(std::move(down));
    }
  }

  // Phase 8: placement — every VP ships its held keys to their final ranks.
  std::vector<std::uint64_t> offset(s + 1, 0);
  {
    std::vector<std::uint64_t> sizes(s, 0);
    for (std::uint64_t q = 0; q < n; ++q) sizes[q / c] += held[q].size();
    for (std::uint64_t b = 0; b < s; ++b) offset[b + 1] = offset[b] + sizes[b];
  }
  ExpectedStep place{0, {}};
  for (std::uint64_t b = 0; b < s; ++b) {
    std::vector<std::pair<std::uint64_t, std::uint64_t>> bucket;  // key, owner
    for (std::uint64_t q = b * c; q < (b + 1) * c; ++q) {
      for (const std::uint64_t key : held[q]) bucket.push_back({key, q});
    }
    std::stable_sort(
        bucket.begin(), bucket.end(),
        [](const auto& x, const auto& y) { return x.first < y.first; });
    for (std::size_t g = 0; g < bucket.size(); ++g) {
      place.messages.push_back({bucket[g].second, offset[b] + g, 1});
    }
  }
  steps.push_back(std::move(place));
  return steps;
}

std::vector<std::uint64_t> sorted_copy(std::vector<std::uint64_t> keys) {
  std::sort(keys.begin(), keys.end());
  return keys;
}

TEST(SampleSort, SortsAcrossInputShapesAndEngines) {
  for (const std::uint64_t n : {1u, 2u, 4u, 16u, 64u, 256u}) {
    std::vector<std::vector<std::uint64_t>> inputs = {
        workloads::random_keys(n, n),
        workloads::duplicate_heavy_keys(n, n + 1),
        std::vector<std::uint64_t>(n, 42),  // all equal
        sorted_copy(workloads::random_keys(n, n + 2)),
    };
    auto reversed = sorted_copy(workloads::random_keys(n, n + 3));
    std::reverse(reversed.begin(), reversed.end());
    inputs.push_back(std::move(reversed));
    for (const auto& keys : inputs) {
      const auto want = sorted_copy(keys);
      auto sort = [&](auto& bk) { return samplesort_program(bk, keys); };
      EXPECT_EQ(run_program<std::uint64_t>(n, sort).output, want)
          << "n=" << n;
      for (const unsigned threads : {2u, 5u}) {
        EXPECT_EQ(run_program<std::uint64_t>(
                      n, sort, ExecutionPolicy::parallel(threads))
                      .output,
                  want)
            << "n=" << n << " threads=" << threads;
      }
    }
  }
}

TEST(SampleSort, RejectsNonPowerOfTwoSizes) {
  for (const std::size_t n : {0u, 3u, 5u, 9u, 100u}) {
    const std::vector<std::uint64_t> keys(n);
    auto sort = [&](auto& bk) { return samplesort_program(bk, keys); };
    EXPECT_THROW((void)run_program<std::uint64_t>(n, sort),
                 std::invalid_argument)
        << "n=" << n;
  }
}

TEST(SampleSort, StructureIsStaticAcrossInputs) {
  // The superstep count and label sequence are functions of n alone; only
  // degrees follow the data (data-dependent splitters).
  for (const std::uint64_t n : {4u, 16u, 64u}) {
    const auto random = workloads::random_keys(n, n);
    const auto heavy = workloads::duplicate_heavy_keys(n, n + 9);
    const auto a = run_program<std::uint64_t>(
        n, [&](auto& bk) { return samplesort_program(bk, random); });
    const auto b = run_program<std::uint64_t>(
        n, [&](auto& bk) { return samplesort_program(bk, heavy); });
    ASSERT_EQ(a.trace.supersteps(), b.trace.supersteps()) << "n=" << n;
    for (std::size_t k = 0; k < a.trace.supersteps(); ++k) {
      EXPECT_EQ(a.trace.steps()[k].label, b.trace.steps()[k].label)
          << "n=" << n << " superstep " << k;
    }
  }
}

TEST(SampleSort, DegreesMatchReferenceAccumulatorMirror) {
  for (const std::uint64_t n : {4u, 16u, 64u}) {
    for (const auto& keys : {workloads::random_keys(n, n),
                             workloads::duplicate_heavy_keys(n, n + 1)}) {
      const auto run = run_program<std::uint64_t>(
          n, [&](auto& bk) { return samplesort_program(bk, keys); });
      testing_detail::expect_trace_matches_reference(
          run.trace, expected_samplesort_steps(keys));
      testing_detail::expect_cost_queries_consistent(run.trace);
    }
  }
}

TEST(SampleSort, FoldingInequalityHolds) {
  const auto keys = workloads::duplicate_heavy_keys(256, 3);
  const auto run = run_program<std::uint64_t>(
      256, [&](auto& bk) { return samplesort_program(bk, keys); });
  for (unsigned log_p = 1; log_p <= run.trace.log_v(); ++log_p) {
    EXPECT_TRUE(folding_inequality_holds(run.trace, log_p)) << log_p;
  }
}

}  // namespace
}  // namespace nobl
