// The taint engine's value semantics: where taint is born, how it flows,
// and exactly which operations declassify. The false-positive guard at the
// bottom is the audit's soundness anchor in the other direction — the
// dep:: helpers must let an oblivious kernel do order-sensitive payload
// work without ever touching the sink.
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "audit/taint.hpp"
#include "util/dep.hpp"
#include "util/matrix.hpp"

namespace nobl::audit {
namespace {

class TaintTest : public ::testing::Test {
 protected:
  void SetUp() override { (void)take_declassifications(); }
};

TEST_F(TaintTest, RawLiteralsEnterUntainted) {
  const Tainted<std::uint64_t> x = 7;
  EXPECT_EQ(x.raw(), 7u);
  EXPECT_FALSE(x.tainted());
}

TEST_F(TaintTest, SourceTaintsAtInjection) {
  const auto x = source(std::uint64_t{42});
  EXPECT_EQ(x.raw(), 42u);
  EXPECT_TRUE(x.tainted());

  const auto xs = source_all(std::vector<std::uint64_t>{1, 2, 3});
  ASSERT_EQ(xs.size(), 3u);
  for (const auto& value : xs) EXPECT_TRUE(value.tainted());

  Matrix<long> m(2, 3);
  m(1, 2) = -5;
  const auto ms = source_all(m);
  ASSERT_EQ(ms.rows(), 2u);
  ASSERT_EQ(ms.cols(), 3u);
  EXPECT_EQ(ms(1, 2).raw(), -5);
  for (const auto& value : ms.data()) EXPECT_TRUE(value.tainted());
  EXPECT_EQ(pending_declassifications(), 0u);
}

TEST_F(TaintTest, ArithmeticMergesTaint) {
  const auto t = source(std::uint64_t{5});
  const Tainted<std::uint64_t> clean = 3;

  EXPECT_TRUE((t + clean).tainted());
  EXPECT_TRUE((clean * t).tainted());
  EXPECT_TRUE((t - 1).tainted());
  EXPECT_TRUE((100 / t).tainted());
  EXPECT_TRUE((t % 2).tainted());
  EXPECT_TRUE((t ^ 1).tainted());
  EXPECT_FALSE((clean + 2).tainted());
  EXPECT_EQ((t + clean).raw(), 8u);

  const auto neg = -source(5);
  EXPECT_TRUE(neg.tainted());
  EXPECT_EQ(neg.raw(), -5);
}

TEST_F(TaintTest, CompoundAssignmentMergesTaint) {
  Tainted<std::uint64_t> acc = 1;
  acc += 2;
  EXPECT_FALSE(acc.tainted());
  acc += source(std::uint64_t{3});
  EXPECT_TRUE(acc.tainted());
  EXPECT_EQ(acc.raw(), 6u);
  acc *= 2;
  EXPECT_TRUE(acc.tainted());
  EXPECT_EQ(acc.raw(), 12u);
}

TEST_F(TaintTest, TaintSurvivesCopyAndIndexing) {
  std::vector<Tainted<std::uint64_t>> values = source_all(
      std::vector<std::uint64_t>{9, 4, 7});
  std::vector<Tainted<std::uint64_t>> copied = values;  // copy
  Tainted<std::uint64_t> moved = copied[1];             // indexing + copy
  EXPECT_TRUE(moved.tainted());
  EXPECT_EQ(moved.raw(), 4u);

  std::vector<Tainted<std::uint64_t>> next(3);
  next[2] = values[0];  // positional shuffle keeps provenance
  EXPECT_TRUE(next[2].tainted());
  EXPECT_FALSE(next[0].tainted());  // default slots stay clean
  EXPECT_EQ(pending_declassifications(), 0u);
}

TEST_F(TaintTest, ComparisonYieldsTrackedBoolWithoutEvent) {
  const auto a = source(std::uint64_t{1});
  const auto b = source(std::uint64_t{2});
  const auto lt = a < b;
  static_assert(std::is_same_v<decltype(lt), const Tainted<bool>>);
  EXPECT_TRUE(lt.raw());
  EXPECT_TRUE(lt.tainted());
  // Producing the tracked bool is free; only collapsing it declassifies.
  EXPECT_EQ(pending_declassifications(), 0u);
}

TEST_F(TaintTest, BranchingOnTrackedComparisonDeclassifies) {
  const auto a = source(std::uint64_t{1});
  const auto b = source(std::uint64_t{2});
  std::uint64_t taken = 0;
  if (a < b) taken = 1;
  EXPECT_EQ(taken, 1u);
  EXPECT_EQ(take_declassifications(), 1u);
}

TEST_F(TaintTest, DeclassifyRecordsOnlyWhenTainted) {
  const Tainted<std::uint64_t> clean = 5;
  EXPECT_EQ(clean.declassify(), 5u);
  EXPECT_EQ(pending_declassifications(), 0u);

  const auto dirty = source(std::uint64_t{5});
  EXPECT_EQ(dirty.declassify(), 5u);
  EXPECT_EQ(take_declassifications(), 1u);
}

TEST_F(TaintTest, DepHelpersAreEventFreeAndTaintPreserving) {
  using V = Tainted<std::uint64_t>;
  auto values = source_all(std::vector<std::uint64_t>{5, 1, 4, 2});

  const V lo = dep::min_value(values[0], values[1]);
  const V hi = dep::max_value(values[0], values[1]);
  EXPECT_EQ(lo.raw(), 1u);
  EXPECT_EQ(hi.raw(), 5u);
  EXPECT_TRUE(lo.tainted());
  EXPECT_TRUE(hi.tainted());

  dep::sort_values(values.begin(), values.end());
  EXPECT_EQ(values.front().raw(), 1u);
  EXPECT_EQ(values.back().raw(), 5u);
  for (const V& value : values) EXPECT_TRUE(value.tainted());

  const auto position = dep::upper_bound_index(values, source(std::uint64_t{3}));
  EXPECT_EQ(position.raw(), 2u);
  EXPECT_TRUE(position.tainted());

  const auto ranks = dep::stable_ranks(values);
  ASSERT_EQ(ranks.size(), values.size());
  EXPECT_EQ(ranks[0].raw(), 0u);
  EXPECT_TRUE(ranks[0].tainted());

  // None of the above touched the sink: payload-safe operations never
  // declassify.
  EXPECT_EQ(pending_declassifications(), 0u);
}

TEST_F(TaintTest, DepIndexIsTheDeclassificationDoor) {
  const auto position =
      dep::upper_bound_index(source_all(std::vector<std::uint64_t>{1, 3, 5}),
                             source(std::uint64_t{4}));
  EXPECT_EQ(pending_declassifications(), 0u);
  EXPECT_EQ(dep::index(position), 2u);
  EXPECT_EQ(take_declassifications(), 1u);
}

TEST_F(TaintTest, FalsePositiveGuardCleanPipelineStaysSilent) {
  // A full order-sensitive pipeline over *untainted* tracked values: every
  // result stays untainted and the sink stays empty — the analysis cannot
  // invent data dependence where no input value participates.
  using V = Tainted<std::uint64_t>;
  std::vector<V> values{V(5), V(1), V(4), V(2)};
  dep::sort_values(values.begin(), values.end());
  const V folded = dep::min_value(values[0] + values[1], values[2] * 2);
  EXPECT_FALSE(folded.tainted());
  const auto position = dep::upper_bound_index(values, V(3));
  EXPECT_FALSE(position.tainted());
  EXPECT_EQ(dep::index(position), 2u);  // untainted collapse: free
  const auto ranks = dep::stable_ranks(values);
  for (const auto& rank : ranks) EXPECT_FALSE(rank.tainted());
  EXPECT_EQ(pending_declassifications(), 0u);
}

TEST_F(TaintTest, DepHelpersPassRawValuesThrough) {
  // The same dep:: spellings compile and behave for plain machine values —
  // the production instantiation of the value-generic kernels.
  std::vector<std::uint64_t> values{5, 1, 4, 2};
  dep::sort_values(values.begin(), values.end());
  EXPECT_EQ(values, (std::vector<std::uint64_t>{1, 2, 4, 5}));
  EXPECT_EQ(dep::min_value<std::uint64_t>(3, 7), 3u);
  EXPECT_EQ(dep::max_value<std::uint64_t>(3, 7), 7u);
  EXPECT_EQ(dep::upper_bound_index(values, std::uint64_t{3}), 2u);
  EXPECT_EQ(dep::index(std::uint64_t{9}), 9u);
  EXPECT_EQ(dep::raw(std::uint64_t{9}), 9u);
  const auto ranks = dep::stable_ranks(values);
  EXPECT_EQ(ranks, (std::vector<std::uint64_t>{0, 1, 2, 3}));
}

}  // namespace
}  // namespace nobl::audit
