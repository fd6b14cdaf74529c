// Differential test: the O(1)-per-message DegreeAccumulator must produce
// SuperstepRecords identical to the retained fold-per-message
// ReferenceDegreeAccumulator on randomized message patterns — mixed superstep
// labels, dummy traffic (count > 1, up to ~2^40), self-messages, sparse
// active sets, traffic confined to one deep cluster, dense all-to-all,
// accumulator reuse across alternating dense and sparse supersteps, and
// 1..8 worker lanes folded with absorb(). Range mode (open_range) is held to
// the same reference: ranges covering partial clusters, one-VP ranges that
// must stay in touch mode, range and touch supersteps on one accumulator,
// and dummy bursts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "bsp/degree_reference.hpp"
#include "bsp/machine.hpp"
#include "bsp/trace.hpp"
#include "util/rng.hpp"

namespace nobl {
namespace {

constexpr unsigned kLogVs[] = {0, 1, 2, 3, 6, 10, 12};
constexpr unsigned kRounds = 6;

SuperstepRecord blank_record(unsigned log_v) {
  SuperstepRecord r;
  r.degree.assign(log_v + 1u, 0);
  return r;
}

void expect_records_equal(const SuperstepRecord& fast,
                          const SuperstepRecord& ref, unsigned log_v,
                          unsigned lanes, unsigned round) {
  EXPECT_EQ(fast.degree, ref.degree)
      << "log_v=" << log_v << " lanes=" << lanes << " round=" << round;
  EXPECT_EQ(fast.messages, ref.messages)
      << "log_v=" << log_v << " lanes=" << lanes << " round=" << round;
}

TEST(DegreeDifferential, RandomPatternsAcrossLanesMatchReference) {
  for (const unsigned log_v : kLogVs) {
    const std::uint64_t v = std::uint64_t{1} << log_v;
    for (unsigned lanes = 1; lanes <= 8; ++lanes) {
      std::vector<DegreeAccumulator> fast;
      std::vector<ReferenceDegreeAccumulator> ref;
      for (unsigned w = 0; w < lanes; ++w) {
        fast.emplace_back(log_v);
        ref.emplace_back(log_v);
      }
      Xoshiro256 rng(1000 * log_v + lanes);
      // Reuse the same accumulators across rounds to also verify that
      // finalize_into resets both implementations identically.
      for (unsigned round = 0; round < kRounds; ++round) {
        // Sparse active sets: some rounds restrict senders to a stride.
        const std::uint64_t stride = (round % 3 == 0) ? 1 + rng.below(4) : 1;
        const std::uint64_t messages = rng.below(200);
        for (std::uint64_t k = 0; k < messages; ++k) {
          std::uint64_t src = rng.below(v);
          src -= src % stride;
          // Self-messages roughly 1 in 8; dummies carry count up to 5.
          const std::uint64_t dst = rng.below(8) == 0 ? src : rng.below(v);
          const std::uint64_t count = rng.below(4) == 0 ? 1 + rng.below(5) : 1;
          const unsigned lane = static_cast<unsigned>(rng.below(lanes));
          fast[lane].count(src, dst, count);
          ref[lane].count(src, dst, count);
        }
        for (unsigned w = 1; w < lanes; ++w) {
          fast[0].absorb(fast[w]);
          ref[0].absorb(ref[w]);
        }
        SuperstepRecord a = blank_record(log_v);
        SuperstepRecord b = blank_record(log_v);
        fast[0].finalize_into(a);
        ref[0].finalize_into(b);
        expect_records_equal(a, b, log_v, lanes, round);
      }
    }
  }
}

struct Msg {
  std::uint64_t src;
  std::uint64_t dst;
  std::uint64_t count;
};
using Step = std::vector<Msg>;

// Count every step's messages into `lanes` fast accumulators (a random lane
// per message), fold them with absorb() and finalize. The fast lanes are
// reused across all steps, while each step is checked against a fresh
// reference: any residue a finalize left behind would show in a later step.
void expect_steps_match(unsigned log_v, unsigned lanes,
                        const std::vector<Step>& steps, std::uint64_t seed) {
  std::vector<DegreeAccumulator> fast;
  for (unsigned w = 0; w < lanes; ++w) fast.emplace_back(log_v);
  Xoshiro256 rng(seed);
  for (std::size_t k = 0; k < steps.size(); ++k) {
    ReferenceDegreeAccumulator ref(log_v);
    for (const Msg& m : steps[k]) {
      fast[rng.below(lanes)].count(m.src, m.dst, m.count);
      ref.count(m.src, m.dst, m.count);
    }
    for (unsigned w = 1; w < lanes; ++w) fast[0].absorb(fast[w]);
    SuperstepRecord a = blank_record(log_v);
    SuperstepRecord b = blank_record(log_v);
    fast[0].finalize_into(a);
    ref.finalize_into(b);
    expect_records_equal(a, b, log_v, lanes, static_cast<unsigned>(k));
  }
}

// Every VP of one cluster of `cluster` VPs sends 1..4 messages inside it
// (stencil2's level-2 shape: 128 active VPs of 4096).
Step deep_cluster_step(std::uint64_t v, std::uint64_t cluster,
                       Xoshiro256& rng) {
  const std::uint64_t base = rng.below(v / cluster) * cluster;
  Step step;
  for (std::uint64_t r = base; r < base + cluster; ++r) {
    for (std::uint64_t m = 1 + rng.below(4); m > 0; --m) {
      step.push_back(Msg{r, base + rng.below(cluster), 1});
    }
  }
  return step;
}

Step dense_step(std::uint64_t v) {
  Step step;
  for (std::uint64_t src = 0; src < v; ++src) {
    for (std::uint64_t dst = 0; dst < v; ++dst) {
      step.push_back(Msg{src, dst, 1});
    }
  }
  return step;
}

TEST(DegreeDifferential, DeepClusterSupersteps) {
  constexpr unsigned kLogV = 12;
  Xoshiro256 rng(12);
  std::vector<Step> steps;
  for (unsigned k = 0; k < 24; ++k) {
    // Mostly 128-VP clusters, now and then a shallower or a deeper one.
    const std::uint64_t cluster = k % 8 == 7 ? 1024 : (k % 8 == 3 ? 2 : 128);
    steps.push_back(deep_cluster_step(std::uint64_t{1} << kLogV, cluster, rng));
  }
  for (unsigned lanes = 1; lanes <= 8; ++lanes) {
    expect_steps_match(kLogV, lanes, steps, lanes);
  }
}

TEST(DegreeDifferential, DenseAllToAll) {
  for (const unsigned log_v : {1u, 4u, 7u}) {
    const std::vector<Step> steps(2, dense_step(std::uint64_t{1} << log_v));
    for (unsigned lanes = 1; lanes <= 8; ++lanes) {
      expect_steps_match(log_v, lanes, steps, 100 + lanes);
    }
  }
}

// Dummy bursts with counts near 2^40: the walk's parent sums subtract the
// split counts in modular u64 arithmetic, which must land on the exact
// reference degrees. The last steps push the sums past 2^64, where both
// implementations must agree modulo 2^64.
TEST(DegreeDifferential, DummyBurstsNearTwoToTheForty) {
  for (const unsigned log_v : {3u, 10u}) {
    const std::uint64_t v = std::uint64_t{1} << log_v;
    Xoshiro256 rng(40 + log_v);
    std::vector<Step> steps;
    for (unsigned k = 0; k < 8; ++k) {
      const unsigned shift = k < 6 ? 40 : 62;
      Step step;
      for (unsigned m = 0; m < 300; ++m) {
        const std::uint64_t count =
            (std::uint64_t{1} << shift) - 1 - rng.below(1u << 20);
        step.push_back(Msg{rng.below(v), rng.below(v), count});
      }
      steps.push_back(std::move(step));
    }
    for (unsigned lanes = 1; lanes <= 8; ++lanes) {
      expect_steps_match(log_v, lanes, steps, 200 + lanes);
    }
  }
}

// One accumulator reused across alternating dense and sparse supersteps:
// a finalize must leave no residue for the next, smaller superstep to pick
// up, and the dense step must not be disturbed by the sparse one before it.
TEST(DegreeDifferential, AlternatingDenseAndSparseReuse) {
  constexpr unsigned kLogV = 6;
  constexpr std::uint64_t kV = std::uint64_t{1} << kLogV;
  Xoshiro256 rng(6);
  std::vector<Step> steps;
  for (unsigned k = 0; k < 12; ++k) {
    if (k % 2 == 0) {
      steps.push_back(dense_step(kV));
    } else if (k % 4 == 1) {
      steps.push_back(deep_cluster_step(kV, 4, rng));
    } else {
      steps.push_back(Step{Msg{rng.below(kV), rng.below(kV), 3}});
    }
  }
  steps.emplace_back();  // an empty superstep must record all zeros
  for (unsigned lanes = 1; lanes <= 8; ++lanes) {
    expect_steps_match(kLogV, lanes, steps, 300 + lanes);
  }
}

// A range superstep: the i-superstep (i = label) whose active VPs are
// [first, last), each sending to peers inside its own i-cluster.
struct RangeStep {
  unsigned label;
  std::uint64_t first;
  std::uint64_t last;
  Step msgs;
};

// Whether open_range must take range mode: [first, last) non-empty and
// covering at least half of itself rounded out to label-cluster bounds.
bool expect_ranged(unsigned log_v, const RangeStep& step) {
  if (step.first >= step.last || step.label >= log_v) return false;
  const std::uint64_t cluster = (std::uint64_t{1} << log_v) >> step.label;
  const std::uint64_t lo = step.first / cluster * cluster;
  const std::uint64_t hi = (step.last + cluster - 1) / cluster * cluster;
  return 2 * (step.last - step.first) >= hi - lo;
}

// Every VP of [first, last) sends 0..3 messages (self-messages and dummies
// included) to peers in its label-cluster, which may reach outside the range.
RangeStep random_range_step(unsigned log_v, unsigned label,
                            std::uint64_t first, std::uint64_t last,
                            Xoshiro256& rng) {
  const std::uint64_t cluster = (std::uint64_t{1} << log_v) >> label;
  RangeStep step{label, first, last, {}};
  for (std::uint64_t src = first; src < last; ++src) {
    const std::uint64_t base = src & ~(cluster - 1);
    for (std::uint64_t m = rng.below(4); m > 0; --m) {
      const std::uint64_t dst =
          rng.below(8) == 0 ? src : base + rng.below(cluster);
      const std::uint64_t count = rng.below(4) == 0 ? 1 + rng.below(5) : 1;
      step.msgs.push_back(Msg{src, dst, count});
    }
  }
  return step;
}

// One accumulator, reused across every step, opened with open_range on the
// range steps and left in touch mode on the others; each step checked
// against a fresh reference.
void expect_range_steps_match(unsigned log_v,
                              const std::vector<RangeStep>& steps,
                              const std::vector<bool>& open) {
  DegreeAccumulator fast(log_v);
  for (std::size_t k = 0; k < steps.size(); ++k) {
    const RangeStep& step = steps[k];
    if (open[k]) {
      EXPECT_EQ(fast.open_range(step.label, step.first, step.last),
                expect_ranged(log_v, step))
          << "log_v=" << log_v << " step=" << k;
    }
    EXPECT_EQ(fast.ranged(), open[k] && expect_ranged(log_v, step));
    ReferenceDegreeAccumulator ref(log_v);
    for (const Msg& m : step.msgs) {
      fast.count(m.src, m.dst, m.count);
      ref.count(m.src, m.dst, m.count);
    }
    SuperstepRecord a = blank_record(log_v);
    SuperstepRecord b = blank_record(log_v);
    fast.finalize_into(a);
    ref.finalize_into(b);
    EXPECT_FALSE(fast.ranged()) << "finalize_into must leave range mode";
    expect_records_equal(a, b, log_v, 1, static_cast<unsigned>(k));
  }
}

TEST(DegreeDifferential, RangeModeMatchesReference) {
  for (const unsigned log_v : {1u, 2u, 3u, 6u, 10u}) {
    const std::uint64_t v = std::uint64_t{1} << log_v;
    Xoshiro256 rng(500 + log_v);
    std::vector<RangeStep> steps;
    for (unsigned k = 0; k < 40; ++k) {
      const auto label = static_cast<unsigned>(rng.below(log_v));
      std::uint64_t first = rng.below(v + 1);
      std::uint64_t last = rng.below(v + 1);
      if (first > last) std::swap(first, last);
      steps.push_back(random_range_step(log_v, label, first, last, rng));
    }
    // Partial clusters at both ends: the middle half of two clusters, and
    // half a cluster, at the deepest label and at label 0.
    const unsigned deep = log_v - 1;
    const std::uint64_t c = v >> deep;  // 2
    if (log_v >= 2) {
      steps.push_back(random_range_step(log_v, deep, c / 2, c + c / 2, rng));
    }
    steps.push_back(random_range_step(log_v, deep, v - c, v - c / 2, rng));
    steps.push_back(random_range_step(log_v, 0, v / 4, (3 * v) / 4, rng));
    steps.push_back(random_range_step(log_v, 0, 0, v, rng));
    expect_range_steps_match(log_v, steps,
                             std::vector<bool>(steps.size(), true));
  }
}

// At label 0 the one cluster is the whole machine: a one-VP range covers
// 1/v of it and must stay in touch mode, whose close costs the traffic, not
// v. The VP talks to every other VP.
TEST(DegreeDifferential, LabelZeroOneVpRangesStayInTouchMode) {
  constexpr unsigned kLogV = 10;
  constexpr std::uint64_t kV = std::uint64_t{1} << kLogV;
  std::vector<RangeStep> steps;
  for (const std::uint64_t r : {std::uint64_t{0}, std::uint64_t{417},
                                kV - 1}) {
    RangeStep step{0, r, r + 1, {}};
    for (std::uint64_t dst = 0; dst < kV; dst += 7) {
      step.msgs.push_back(Msg{r, dst, 1});
    }
    steps.push_back(std::move(step));
  }
  for (const RangeStep& step : steps) EXPECT_FALSE(expect_ranged(kLogV, step));
  expect_range_steps_match(kLogV, steps, std::vector<bool>(steps.size(), true));
}

// Range, then touch-mode (sparse) supersteps, then range again on one
// accumulator: neither mode may leave residue the other picks up.
TEST(DegreeDifferential, RangeSparseRangeReuse) {
  constexpr unsigned kLogV = 12;
  constexpr std::uint64_t kV = std::uint64_t{1} << kLogV;
  Xoshiro256 rng(4242);
  std::vector<RangeStep> steps;
  std::vector<bool> open;
  for (unsigned k = 0; k < 30; ++k) {
    if (k % 3 == 1) {
      // Sparse: one deep cluster's worth of traffic, counted in touch mode.
      const Step msgs = deep_cluster_step(kV, 128, rng);
      steps.push_back(RangeStep{5, 0, 0, msgs});
      open.push_back(false);
    } else {
      // stencil2's level shape: [0, 2·span) at label log v - log span.
      const unsigned log_span = 3 + static_cast<unsigned>(rng.below(8));
      const std::uint64_t span = std::uint64_t{1} << log_span;
      steps.push_back(random_range_step(kLogV, kLogV - log_span, 0,
                                        std::min(kV, 2 * span), rng));
      open.push_back(true);
    }
  }
  expect_range_steps_match(kLogV, steps, open);
}

// Dummy bursts near 2^40 (and past 2^64 in the sums) through the sweep's
// modular subtraction.
TEST(DegreeDifferential, RangeModeDummyBurstsNearTwoToTheForty) {
  for (const unsigned log_v : {3u, 10u}) {
    const std::uint64_t v = std::uint64_t{1} << log_v;
    Xoshiro256 rng(640 + log_v);
    std::vector<RangeStep> steps;
    for (unsigned k = 0; k < 8; ++k) {
      const unsigned shift = k < 6 ? 40 : 62;
      const auto label = static_cast<unsigned>(rng.below(log_v));
      const std::uint64_t cluster = v >> label;
      RangeStep step{label, 0, v, {}};
      for (unsigned m = 0; m < 300; ++m) {
        const std::uint64_t src = rng.below(v);
        const std::uint64_t dst = (src & ~(cluster - 1)) + rng.below(cluster);
        const std::uint64_t count =
            (std::uint64_t{1} << shift) - 1 - rng.below(1u << 20);
        step.msgs.push_back(Msg{src, dst, count});
      }
      steps.push_back(std::move(step));
    }
    expect_range_steps_match(log_v, steps,
                             std::vector<bool>(steps.size(), true));
  }
}

TEST(DegreeDifferential, AbsorbRejectsRangeMode) {
  DegreeAccumulator a(4);
  DegreeAccumulator b(4);
  ASSERT_TRUE(b.open_range(0, 0, 16));
  EXPECT_THROW(a.absorb(b), std::logic_error);
}

// Mixed-label replay through the simulator: every superstep's recorded
// degrees (produced by the engine's DegreeAccumulator) must match a
// reference accumulation of the exact same message plan, including sparse
// supersteps where only a few VPs run.
TEST(DegreeDifferential, MachineReplayMatchesReference) {
  struct Planned {
    std::uint64_t src;
    std::uint64_t dst;
    std::uint64_t count;
    bool dummy;
  };
  for (const unsigned log_v : {2u, 4u, 6u}) {
    const std::uint64_t v = std::uint64_t{1} << log_v;
    Machine<int> m(v);
    ReferenceDegreeAccumulator ref(log_v);
    Xoshiro256 rng(77 + log_v);
    for (unsigned round = 0; round < 8; ++round) {
      const unsigned label = static_cast<unsigned>(rng.below(log_v));
      const std::uint64_t cluster = v >> label;
      const bool sparse = round % 2 == 1;
      std::vector<std::uint64_t> active;
      for (std::uint64_t r = 0; r < v; ++r) {
        if (!sparse || rng.below(3) == 0) active.push_back(r);
      }
      // Per-VP message plan, respecting the label's cluster constraint.
      std::vector<std::vector<Planned>> plan(v);
      for (const std::uint64_t r : active) {
        const std::uint64_t base = r & ~(cluster - 1);
        const std::uint64_t sends = rng.below(4);
        for (std::uint64_t k = 0; k < sends; ++k) {
          const std::uint64_t dst = base + rng.below(cluster);
          const bool dummy = rng.below(4) == 0;
          const std::uint64_t count = dummy ? 1 + rng.below(3) : 1;
          plan[r].push_back(Planned{r, dst, count, dummy});
        }
      }
      m.superstep_sparse(label, active, [&plan](Vp<int>& vp) {
        for (const Planned& msg : plan[vp.id()]) {
          if (msg.dummy) {
            vp.send_dummy(msg.dst, msg.count);
          } else {
            vp.send(msg.dst, 1);
          }
        }
      });
      for (const std::uint64_t r : active) {
        for (const Planned& msg : plan[r]) {
          ref.count(msg.src, msg.dst, msg.count);
        }
      }
      SuperstepRecord expected = blank_record(log_v);
      expected.label = label;
      ref.finalize_into(expected);
      const SuperstepRecord& recorded = m.trace().steps().back();
      EXPECT_EQ(recorded.label, expected.label) << "round " << round;
      EXPECT_EQ(recorded.degree, expected.degree)
          << "log_v=" << log_v << " round=" << round;
      EXPECT_EQ(recorded.messages, expected.messages)
          << "log_v=" << log_v << " round=" << round;
    }
  }
}

}  // namespace
}  // namespace nobl
