#include "bsp/trace.hpp"

#include <gtest/gtest.h>

namespace nobl {
namespace {

SuperstepRecord make_record(unsigned log_v, unsigned label,
                            std::vector<std::uint64_t> degree,
                            std::uint64_t messages = 0) {
  SuperstepRecord r;
  r.label = label;
  r.degree = std::move(degree);
  if (r.degree.size() != log_v + 1u) {
    throw std::logic_error("test helper: bad degree vector");
  }
  r.messages = messages;
  return r;
}

TEST(Trace, AppendValidatesShape) {
  Trace t(2);
  EXPECT_THROW(t.append(make_record(1, 0, {0, 1})), std::invalid_argument);
  EXPECT_THROW(t.append(make_record(2, 2, {0, 1, 1})), std::invalid_argument);
  EXPECT_THROW(t.append(make_record(2, 0, {5, 1, 1})), std::invalid_argument);
  EXPECT_NO_THROW(t.append(make_record(2, 1, {0, 0, 3})));
}

TEST(Trace, SCountsByLabel) {
  Trace t(3);
  t.append(make_record(3, 0, {0, 1, 1, 1}));
  t.append(make_record(3, 2, {0, 0, 0, 1}));
  t.append(make_record(3, 2, {0, 0, 0, 2}));
  EXPECT_EQ(t.S(0), 1u);
  EXPECT_EQ(t.S(1), 0u);
  EXPECT_EQ(t.S(2), 2u);
}

TEST(Trace, FSumsDegreesByLabelAndFold) {
  Trace t(3);
  t.append(make_record(3, 0, {0, 2, 3, 4}));
  t.append(make_record(3, 0, {0, 1, 1, 1}));
  t.append(make_record(3, 1, {0, 0, 5, 6}));
  EXPECT_EQ(t.F(0, 1), 3u);
  EXPECT_EQ(t.F(0, 3), 5u);
  EXPECT_EQ(t.F(1, 2), 5u);
  EXPECT_EQ(t.F(2, 3), 0u);
  EXPECT_THROW((void)t.F(0, 4), std::out_of_range);
}

TEST(Trace, TotalFRestrictsToLabelsBelowFold) {
  Trace t(3);
  t.append(make_record(3, 0, {0, 2, 3, 4}));
  t.append(make_record(3, 1, {0, 0, 5, 6}));
  t.append(make_record(3, 2, {0, 0, 0, 7}));
  // total_F(2) sums degree[2] of labels < 2: 3 + 5.
  EXPECT_EQ(t.total_F(2), 8u);
  // total_F(3) sums degree[3] of labels < 3: 4 + 6 + 7.
  EXPECT_EQ(t.total_F(3), 17u);
  EXPECT_EQ(t.total_S(2), 2u);
  EXPECT_EQ(t.total_S(3), 3u);
}

TEST(Trace, PartialFMixedIndices) {
  Trace t(3);
  t.append(make_record(3, 0, {0, 2, 3, 4}));
  t.append(make_record(3, 1, {0, 0, 5, 6}));
  t.append(make_record(3, 2, {0, 0, 0, 7}));
  // Σ_{i<2} F^i at fold 2^3 = 4 + 6.
  EXPECT_EQ(t.partial_F(2, 3), 10u);
  EXPECT_EQ(t.partial_F(1, 3), 4u);
  EXPECT_EQ(t.partial_F(3, 3), t.total_F(3));
}

TEST(Trace, AllAccessorsRejectFoldBeyondLogV) {
  Trace t(2);
  t.append(make_record(2, 0, {0, 1, 2}));
  EXPECT_THROW((void)t.F(0, 3), std::out_of_range);
  EXPECT_THROW((void)t.total_F(3), std::out_of_range);
  EXPECT_THROW((void)t.partial_F(1, 3), std::out_of_range);
  // Regression: total_S used to skip check_log_p and silently accept folds
  // larger than the specification model.
  EXPECT_THROW((void)t.total_S(3), std::out_of_range);
  EXPECT_THROW((void)t.peak_degree(0, 3), std::out_of_range);
}

TEST(Trace, CachedTablesInvalidateOnAppend) {
  Trace t(2);
  t.append(make_record(2, 0, {0, 1, 2}, 3));
  // Query first so the cumulative tables are built, then mutate.
  EXPECT_EQ(t.total_F(2), 2u);
  EXPECT_EQ(t.total_S(2), 1u);
  t.append(make_record(2, 1, {0, 0, 4}, 1));
  EXPECT_EQ(t.total_F(2), 6u);
  EXPECT_EQ(t.total_S(2), 2u);
  EXPECT_EQ(t.F(1, 2), 4u);
  t.append(make_record(2, 0, {0, 2, 2}, 5));
  EXPECT_EQ(t.total_F(2), 8u);
  EXPECT_EQ(t.total_S(2), 3u);
  EXPECT_EQ(t.partial_F(1, 2), 4u);
  EXPECT_EQ(t.total_messages(), 9u);
}

TEST(Trace, PeakDegreeTracksPerLabelMaximum) {
  Trace t(2);
  t.append(make_record(2, 0, {0, 1, 2}));
  t.append(make_record(2, 0, {0, 3, 1}));
  t.append(make_record(2, 1, {0, 0, 5}));
  EXPECT_EQ(t.peak_degree(0, 1), 3u);
  EXPECT_EQ(t.peak_degree(0, 2), 2u);
  EXPECT_EQ(t.peak_degree(1, 2), 5u);
  EXPECT_EQ(t.peak_degree(1, 1), 0u);
}

TEST(Trace, TotalMessagesAndMaxLabel) {
  Trace t(2);
  t.append(make_record(2, 0, {0, 1, 1}, 10));
  t.append(make_record(2, 1, {0, 0, 1}, 5));
  EXPECT_EQ(t.total_messages(), 15u);
  EXPECT_EQ(t.max_label(), 1u);
}

TEST(Trace, LabelBoundHonorsUnitMachine) {
  Trace t(0);  // M(1): label 0 still representable (local steps)
  EXPECT_NO_THROW(t.append(make_record(0, 0, {0})));
  EXPECT_THROW(t.append(make_record(0, 1, {0})), std::invalid_argument);
}

}  // namespace
}  // namespace nobl
