#include "bsp/machine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace nobl {
namespace {

TEST(Machine, RequiresPowerOfTwo) {
  EXPECT_THROW(Machine<int>(3), std::invalid_argument);
  EXPECT_NO_THROW(Machine<int>(1));
  EXPECT_NO_THROW(Machine<int>(8));
}

TEST(Machine, MessagesDeliveredNextSuperstep) {
  Machine<int> m(4);
  m.superstep(0, [](Vp<int>& vp) {
    EXPECT_TRUE(vp.inbox().empty());
    vp.send((vp.id() + 1) % 4, static_cast<int>(vp.id()));
  });
  std::vector<int> got(4, -1);
  m.superstep(0, [&](Vp<int>& vp) {
    ASSERT_EQ(vp.inbox().size(), 1u);
    got[vp.id()] = vp.inbox()[0].data;
    EXPECT_EQ(vp.inbox()[0].src, (vp.id() + 3) % 4);
  });
  EXPECT_EQ(got, (std::vector<int>{3, 0, 1, 2}));
}

TEST(Machine, DeliveryOrderIsSenderIndexOrder) {
  Machine<int> m(4);
  m.superstep(0, [](Vp<int>& vp) {
    if (vp.id() != 0) vp.send(0, static_cast<int>(vp.id()));
  });
  m.superstep(0, [](Vp<int>& vp) {
    if (vp.id() == 0) {
      ASSERT_EQ(vp.inbox().size(), 3u);
      EXPECT_EQ(vp.inbox()[0].data, 1);
      EXPECT_EQ(vp.inbox()[1].data, 2);
      EXPECT_EQ(vp.inbox()[2].data, 3);
    }
  });
}

TEST(Machine, ClusterContainmentAllowsInsideCluster) {
  Machine<int> m(8);
  EXPECT_NO_THROW(m.superstep(1, [](Vp<int>& vp) {
    if (vp.id() == 0) vp.send(3, 1);  // 0b000 -> 0b011, same 1-cluster
  }));
  EXPECT_NO_THROW(m.superstep(2, [](Vp<int>& vp) {
    if (vp.id() == 6) vp.send(7, 1);  // 0b110 -> 0b111, same 2-cluster
  }));
}

TEST(Machine, ZeroSuperstepAllowsAnyPair) {
  Machine<int> m(8);
  EXPECT_NO_THROW(m.superstep(0, [](Vp<int>& vp) {
    if (vp.id() == 0) vp.send(7, 42);
  }));
}

TEST(Machine, DegreeCountsCrossProcessorOnly) {
  Machine<int> m(4);
  // VP 0 -> VP 1: crosses at fold p=4 (procs {0},{1}) and p=2? 0 and 1 share
  // the top bit (both in 0x), so at p=2 it is internal.
  m.superstep(0, [](Vp<int>& vp) {
    if (vp.id() == 0) vp.send(1, 1);
  });
  const auto& rec = m.trace().steps().back();
  EXPECT_EQ(rec.degree[0], 0u);
  EXPECT_EQ(rec.degree[1], 0u);  // same half
  EXPECT_EQ(rec.degree[2], 1u);  // different VPs
}

TEST(Machine, DegreeIsMaxOverProcessors) {
  Machine<int> m(4);
  // VP 0 sends 3 messages to VP 2; VP 1 sends 1 message to VP 3.
  m.superstep(0, [](Vp<int>& vp) {
    if (vp.id() == 0) {
      vp.send(2, 1);
      vp.send(2, 2);
      vp.send(2, 3);
    }
    if (vp.id() == 1) vp.send(3, 4);
  });
  const auto& rec = m.trace().steps().back();
  // Fold p=2: proc 0 = {0,1} sends 4, proc 1 = {2,3} receives 4 -> degree 4.
  EXPECT_EQ(rec.degree[1], 4u);
  // Fold p=4: VP0 sends 3, VP2 receives 3 -> degree 3.
  EXPECT_EQ(rec.degree[2], 3u);
}

TEST(Machine, SelfMessagesAreLocalEverywhere) {
  Machine<int> m(4);
  m.superstep(0, [](Vp<int>& vp) { vp.send(vp.id(), 9); });
  const auto& rec = m.trace().steps().back();
  EXPECT_EQ(rec.degree[1], 0u);
  EXPECT_EQ(rec.degree[2], 0u);
  EXPECT_EQ(rec.messages, 4u);
  // Still delivered.
  m.superstep(0, [](Vp<int>& vp) {
    ASSERT_EQ(vp.inbox().size(), 1u);
    EXPECT_EQ(vp.inbox()[0].data, 9);
  });
}

TEST(Machine, DummyMessagesCountButAreNotDelivered) {
  Machine<int> m(4);
  m.superstep(0, [](Vp<int>& vp) {
    if (vp.id() == 0) vp.send_dummy(2, 5);
  });
  const auto& rec = m.trace().steps().back();
  EXPECT_EQ(rec.degree[1], 5u);
  EXPECT_EQ(rec.degree[2], 5u);
  EXPECT_EQ(rec.messages, 5u);
  m.superstep(0, [](Vp<int>& vp) { EXPECT_TRUE(vp.inbox().empty()); });
}

TEST(Machine, SuperstepRangeRunsSubsetOnly) {
  Machine<int> m(8);
  std::vector<int> ran(8, 0);
  m.superstep_range(0, 2, 5, [&](Vp<int>& vp) { ran[vp.id()] = 1; });
  EXPECT_EQ(std::accumulate(ran.begin(), ran.end(), 0), 3);
  EXPECT_EQ(ran[2] + ran[3] + ran[4], 3);
}

TEST(Machine, TraceAccumulatesSupersteps) {
  Machine<int> m(8);
  m.superstep(0, [](Vp<int>&) {});
  m.superstep(1, [](Vp<int>&) {});
  m.superstep(1, [](Vp<int>&) {});
  EXPECT_EQ(m.trace().supersteps(), 3u);
  EXPECT_EQ(m.trace().S(0), 1u);
  EXPECT_EQ(m.trace().S(1), 2u);
  EXPECT_EQ(m.trace().S(2), 0u);
}

TEST(Machine, InboxAccessorAfterRun) {
  Machine<int> m(2);
  m.superstep(0, [](Vp<int>& vp) {
    if (vp.id() == 1) vp.send(0, 77);
  });
  ASSERT_EQ(m.inbox(0).size(), 1u);
  EXPECT_EQ(m.inbox(0)[0].data, 77);
  EXPECT_TRUE(m.inbox(1).empty());
  EXPECT_THROW((void)m.inbox(2), std::out_of_range);
}

TEST(Machine, MovableOnlyPayload) {
  Machine<std::vector<int>> m(2);
  m.superstep(0, [](Vp<std::vector<int>>& vp) {
    if (vp.id() == 0) vp.send(1, std::vector<int>{1, 2, 3});
  });
  m.superstep(0, [](Vp<std::vector<int>>& vp) {
    if (vp.id() == 1) {
      ASSERT_EQ(vp.inbox().size(), 1u);
      EXPECT_EQ(vp.inbox()[0].data.size(), 3u);
    }
  });
}

TEST(Machine, PeakInboxAudit) {
  Machine<int> m(4);
  EXPECT_EQ(m.peak_inbox_messages(), 0u);
  m.superstep(0, [](Vp<int>& vp) {
    if (vp.id() != 3) vp.send(3, 1);  // VP 3 receives 3 messages
  });
  EXPECT_EQ(m.peak_inbox_messages(), 3u);
  m.superstep(0, [](Vp<int>& vp) {
    if (vp.id() == 0) vp.send(1, 1);
  });
  EXPECT_EQ(m.peak_inbox_messages(), 3u);  // peak is sticky
  // Dummies are never delivered and do not count toward buffer space.
  Machine<int> d(4);
  d.superstep(0, [](Vp<int>& vp) { vp.send_dummy(vp.id() ^ 2, 10); });
  EXPECT_EQ(d.peak_inbox_messages(), 0u);
}

TEST(Machine, SuperstepSparseRunsListedVpsOnly) {
  Machine<int> m(8);
  std::vector<int> ran(8, 0);
  const std::vector<std::uint64_t> active{1, 4, 6};
  m.superstep_sparse(0, active, [&](Vp<int>& vp) { ran[vp.id()] = 1; });
  EXPECT_EQ(ran, (std::vector<int>{0, 1, 0, 0, 1, 0, 1, 0}));
}

TEST(Machine, SuperstepSparseDeliversAndCounts) {
  Machine<int> m(8);
  const std::vector<std::uint64_t> active{0, 7};
  m.superstep_sparse(0, active, [](Vp<int>& vp) {
    if (vp.id() == 0) vp.send(7, 5);
  });
  EXPECT_EQ(m.trace().steps().back().degree[3], 1u);
  ASSERT_EQ(m.inbox(7).size(), 1u);
  EXPECT_EQ(m.inbox(7)[0].data, 5);
}

TEST(Machine, InboxFilledEarlierIsEmptiedByALaterSync) {
  for (unsigned threads = 0; threads <= 8; ++threads) {
    Machine<int> m(64, threads == 0 ? ExecutionPolicy::sequential()
                                    : ExecutionPolicy::parallel(threads));
    m.superstep(0, [](Vp<int>& vp) {
      if (vp.id() < 3) vp.send(40, static_cast<int>(vp.id()));
    });
    ASSERT_EQ(m.inbox(40).size(), 3u) << "threads=" << threads;
    // Nobody sends to VP 40 in the next superstep: its inbox must empty.
    m.superstep(0, [](Vp<int>& vp) {
      if (vp.id() == 7) vp.send(41, 7);
    });
    EXPECT_TRUE(m.inbox(40).empty()) << "threads=" << threads;
    ASSERT_EQ(m.inbox(41).size(), 1u) << "threads=" << threads;
    EXPECT_EQ(m.inbox(41)[0].data, 7);
    // A superstep without real sends empties every inbox.
    m.superstep(0, [](Vp<int>& vp) { vp.send_dummy(vp.id() ^ 1, 2); });
    for (std::uint64_t r = 0; r < 64; ++r) {
      EXPECT_TRUE(m.inbox(r).empty()) << "threads=" << threads << " r=" << r;
    }
    EXPECT_EQ(m.peak_inbox_messages(), 3u) << "threads=" << threads;
  }
}

// Sparse, range and full supersteps on a machine large enough that most VPs
// stay idle: every inbox must hold exactly its messages in ascending sender
// order, then per-sender send order, with the same peak_inbox_messages(),
// under the sequential engine and the parallel engine at 1-8 threads.
TEST(Machine, SparseDeliveryKeepsSenderOrderAcrossEngines) {
  constexpr unsigned kLogV = 12;
  constexpr std::uint64_t kV = std::uint64_t{1} << kLogV;
  using Inboxes = std::vector<std::vector<std::pair<std::uint64_t, int>>>;
  struct Step {
    unsigned label;
    std::vector<std::uint64_t> active;  // ascending
    std::vector<std::vector<std::uint64_t>> dsts;  // per active position
  };
  Xoshiro256 rng(2024);
  std::vector<Step> plan;
  for (unsigned k = 0; k < 9; ++k) {
    Step step;
    step.label = k % 3 == 2 ? 0 : 5;  // 5: 128-VP clusters
    const std::uint64_t cluster = kV >> step.label;
    if (k % 3 == 0) {  // sparse: a few VPs of one deep cluster
      const std::uint64_t base = rng.below(kV / cluster) * cluster;
      for (std::uint64_t r = base; r < base + cluster; ++r) {
        if (rng.below(4) == 0) step.active.push_back(r);
      }
    } else if (k % 3 == 1) {  // range: one deep cluster
      const std::uint64_t base = rng.below(kV / cluster) * cluster;
      for (std::uint64_t r = base; r < base + cluster; ++r) {
        step.active.push_back(r);
      }
    } else {  // full: a few senders, many idle VPs
      for (std::uint64_t r = 0; r < kV; ++r) step.active.push_back(r);
    }
    for (const std::uint64_t r : step.active) {
      const std::uint64_t base = r & ~(cluster - 1);
      std::vector<std::uint64_t> dsts;
      const bool sends = k % 3 != 2 || rng.below(16) == 0;
      for (std::uint64_t m = sends ? rng.below(4) : 0; m > 0; --m) {
        // Hot spot: a quarter of the sends go to the cluster's first VP.
        dsts.push_back(rng.below(4) == 0 ? base : base + rng.below(cluster));
      }
      step.dsts.push_back(std::move(dsts));
    }
    plan.push_back(std::move(step));
  }
  const auto payload = [](std::uint64_t src, std::size_t seq) {
    return static_cast<int>(src * 8 + seq);
  };

  // Expected inboxes and peak, straight from the plan.
  std::vector<Inboxes> expected;
  std::vector<std::uint64_t> expected_peak;
  std::uint64_t peak = 0;
  for (const Step& step : plan) {
    Inboxes in(kV);
    for (std::size_t pos = 0; pos < step.active.size(); ++pos) {
      const std::uint64_t r = step.active[pos];
      for (std::size_t seq = 0; seq < step.dsts[pos].size(); ++seq) {
        in[step.dsts[pos][seq]].emplace_back(r, payload(r, seq));
      }
    }
    for (const auto& box : in) peak = std::max<std::uint64_t>(peak, box.size());
    expected.push_back(std::move(in));
    expected_peak.push_back(peak);
  }

  for (unsigned threads = 0; threads <= 8; ++threads) {
    Machine<int> m(kV, threads == 0 ? ExecutionPolicy::sequential()
                                    : ExecutionPolicy::parallel(threads));
    for (std::size_t k = 0; k < plan.size(); ++k) {
      const Step& step = plan[k];
      const auto body = [&step, &payload](Vp<int>& vp) {
        const auto it = std::lower_bound(step.active.begin(),
                                         step.active.end(), vp.id());
        const auto& dsts = step.dsts[it - step.active.begin()];
        for (std::size_t seq = 0; seq < dsts.size(); ++seq) {
          vp.send(dsts[seq], payload(vp.id(), seq));
        }
      };
      if (k % 3 == 0) {
        m.superstep_sparse(step.label, step.active, body);
      } else {
        m.superstep_range(step.label, step.active.front(),
                          step.active.back() + 1, body);
      }
      for (std::uint64_t r = 0; r < kV; ++r) {
        std::vector<std::pair<std::uint64_t, int>> got;
        for (const auto& msg : m.inbox(r)) got.emplace_back(msg.src, msg.data);
        ASSERT_EQ(got, expected[k][r])
            << "threads=" << threads << " step=" << k << " vp=" << r;
      }
      EXPECT_EQ(m.peak_inbox_messages(), expected_peak[k])
          << "threads=" << threads << " step=" << k;
    }
  }
}

// The flat mailboxes must carry any payload: a move-only one (moved from
// the staging buffer into the inbox, never copied) and a heap-owning one.
// Range, sparse and range supersteps in turn — ranges over partial
// clusters, so the sequential engine closes them with the range sweep —
// under the sequential engine and the parallel engine at 1-8 threads: the
// same inboxes, in the same order, the same peak and the same trace.
template <typename Payload, typename Make, typename Read>
void expect_payload_mail_across_engines(Make make, Read read) {
  constexpr unsigned kLogV = 8;
  constexpr std::uint64_t kV = std::uint64_t{1} << kLogV;
  struct Step {
    unsigned label;
    bool sparse;
    std::vector<std::uint64_t> active;             // ascending
    std::vector<std::vector<std::uint64_t>> dsts;  // per active position
  };
  const auto range = [](std::uint64_t first, std::uint64_t last) {
    std::vector<std::uint64_t> ids(last - first);
    std::iota(ids.begin(), ids.end(), first);
    return ids;
  };
  Xoshiro256 rng(99);
  std::vector<Step> plan;
  for (unsigned round = 0; round < 3; ++round) {
    // [16, 112) at label 2 rounds out to [0, 128); [40, 56) at label 3 is
    // half of the 32-VP cluster [32, 64).
    plan.push_back(Step{2, false, range(16, 112), {}});
    std::vector<std::uint64_t> sparse;
    for (std::uint64_t r = 0; r < kV; ++r) {
      if (rng.below(5) == 0) sparse.push_back(r);
    }
    plan.push_back(Step{1, true, sparse, {}});
    plan.push_back(Step{3, false, range(40, 56), {}});
  }
  for (Step& step : plan) {
    const std::uint64_t cluster = kV >> step.label;
    for (const std::uint64_t r : step.active) {
      std::vector<std::uint64_t> dsts;
      for (std::uint64_t m = rng.below(4); m > 0; --m) {
        dsts.push_back((r & ~(cluster - 1)) + rng.below(cluster));
      }
      step.dsts.push_back(std::move(dsts));
    }
  }

  using Inbox = std::vector<std::pair<std::uint64_t, std::string>>;
  std::vector<std::vector<Inbox>> expected;
  std::vector<std::uint64_t> expected_peak;
  std::uint64_t peak = 0;
  for (const Step& step : plan) {
    std::vector<Inbox> in(kV);
    for (std::size_t pos = 0; pos < step.active.size(); ++pos) {
      const std::uint64_t r = step.active[pos];
      for (std::size_t seq = 0; seq < step.dsts[pos].size(); ++seq) {
        in[step.dsts[pos][seq]].emplace_back(r, read(make(r, seq)));
      }
    }
    for (const Inbox& box : in) {
      peak = std::max<std::uint64_t>(peak, box.size());
    }
    expected.push_back(std::move(in));
    expected_peak.push_back(peak);
  }

  Trace reference;
  for (unsigned threads = 0; threads <= 8; ++threads) {
    Machine<Payload> m(kV, threads == 0 ? ExecutionPolicy::sequential()
                                        : ExecutionPolicy::parallel(threads));
    for (std::size_t k = 0; k < plan.size(); ++k) {
      const Step& step = plan[k];
      const auto body = [&](Vp<Payload>& vp) {
        const auto it = std::lower_bound(step.active.begin(),
                                         step.active.end(), vp.id());
        const auto& dsts = step.dsts[it - step.active.begin()];
        for (std::size_t seq = 0; seq < dsts.size(); ++seq) {
          vp.send(dsts[seq], make(vp.id(), seq));
        }
      };
      if (step.sparse) {
        m.superstep_sparse(step.label, step.active, body);
      } else {
        m.superstep_range(step.label, step.active.front(),
                          step.active.back() + 1, body);
      }
      for (std::uint64_t r = 0; r < kV; ++r) {
        Inbox got;
        for (const Message<Payload>& msg : m.inbox(r)) {
          got.emplace_back(msg.src, read(msg.data));
        }
        ASSERT_EQ(got, expected[k][r])
            << "threads=" << threads << " step=" << k << " vp=" << r;
      }
      EXPECT_EQ(m.peak_inbox_messages(), expected_peak[k])
          << "threads=" << threads << " step=" << k;
    }
    if (threads == 0) {
      reference = m.trace();
      continue;
    }
    ASSERT_EQ(m.trace().supersteps(), reference.supersteps());
    for (std::size_t s = 0; s < reference.supersteps(); ++s) {
      EXPECT_EQ(m.trace().steps()[s].degree, reference.steps()[s].degree)
          << "threads=" << threads << " superstep=" << s;
      EXPECT_EQ(m.trace().steps()[s].messages, reference.steps()[s].messages)
          << "threads=" << threads << " superstep=" << s;
    }
  }
}

TEST(Machine, MoveOnlyPayloadAcrossRangeSparseRange) {
  expect_payload_mail_across_engines<std::unique_ptr<int>>(
      [](std::uint64_t src, std::size_t seq) {
        return std::make_unique<int>(static_cast<int>(src * 8 + seq));
      },
      [](const std::unique_ptr<int>& p) { return std::to_string(*p); });
}

TEST(Machine, HeapOwningPayloadAcrossRangeSparseRange) {
  expect_payload_mail_across_engines<std::string>(
      [](std::uint64_t src, std::size_t seq) {
        // Longer than any small-string buffer: every payload owns heap.
        return std::string(32 + seq, static_cast<char>('a' + src % 26)) +
               std::to_string(src);
      },
      [](const std::string& s) { return s; });
}

// Folding invariant (the engine-level form of Lemma 3.1): for a random
// communication pattern, the degree at a finer fold is at least the degree at
// a coarser fold divided by the folding factor.
class MachineFoldingSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(MachineFoldingSweep, DegreesConsistentAcrossFolds) {
  const unsigned log_v = GetParam();
  const std::uint64_t v = 1ULL << log_v;
  Machine<int> m(v);
  m.superstep(0, [&](Vp<int>& vp) {
    // Deterministic pseudo-random pattern: VP r sends to (r*5+3) mod v.
    vp.send((vp.id() * 5 + 3) % v, 1);
  });
  const auto& rec = m.trace().steps().back();
  for (unsigned j = 1; j < log_v; ++j) {
    // Messages crossing at fold j also cross at any finer fold j' > j, and a
    // 2^{j'}-processor covers a subset of a 2^j-processor, hence:
    EXPECT_LE(rec.degree[j], rec.degree[j + 1] * 2)
        << "fold " << j;
    EXPECT_LE(rec.degree[j], rec.degree[log_v] * (v >> j)) << "fold " << j;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, MachineFoldingSweep,
                         ::testing::Values(2u, 3u, 4u, 6u, 8u));

}  // namespace
}  // namespace nobl
