// The distributed backend (dist/backend.hpp): merged worker traces must be
// bit-identical to every in-process backend for every registry kernel over
// BOTH transports, the captured global event stream must equal
// RecordBackend's schedule event for event, worker-side exceptions must
// surface in the coordinator with their original message (the validation
// rules' types and messages are pinned by the rule x backend table in
// tests/bsp/test_backend.cpp), and the measured wall-clock column must line
// up with the trace's supersteps.
// The wire itself is pinned too: one little-endian frame per superstep,
// tcp within a constant of fork, and no child left when a worker dies.
#include "dist/backend.hpp"

#include <gtest/gtest.h>

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "bsp/backend.hpp"
#include "core/registry.hpp"

namespace nobl {
namespace {

void expect_traces_identical(const Trace& a, const Trace& b) {
  ASSERT_EQ(a.log_v(), b.log_v());
  ASSERT_EQ(a.supersteps(), b.supersteps());
  for (std::size_t s = 0; s < a.supersteps(); ++s) {
    EXPECT_EQ(a.steps()[s].label, b.steps()[s].label) << "superstep " << s;
    EXPECT_EQ(a.steps()[s].degree, b.steps()[s].degree) << "superstep " << s;
    EXPECT_EQ(a.steps()[s].messages, b.steps()[s].messages)
        << "superstep " << s;
  }
}

void expect_schedules_identical(const Schedule& a, const Schedule& b) {
  ASSERT_EQ(a.log_v, b.log_v);
  ASSERT_EQ(a.steps.size(), b.steps.size());
  for (std::size_t s = 0; s < a.steps.size(); ++s) {
    EXPECT_EQ(a.steps[s], b.steps[s]) << "superstep " << s;
  }
  EXPECT_EQ(a.content_hash(), b.content_hash());
}

/// Run one registry kernel at its smallest smoke size under kDistributed
/// over `transport` and pin trace AND captured schedule against kRecord.
void check_kernel_conformance(const AlgoEntry& entry,
                              dist::Transport transport) {
  const std::uint64_t n = entry.smoke_sizes.front();
  SCOPED_TRACE(entry.name + " n=" + std::to_string(n) + " over " +
               dist::to_string(transport));

  Schedule recorded;
  RunOptions record_options;
  record_options.backend = BackendKind::kRecord;
  record_options.capture = &recorded;
  const Trace reference = entry.runner(n, record_options);

  Schedule merged;
  dist::Measurement measurement;
  RunOptions dist_options;
  dist_options.backend = BackendKind::kDistributed;
  dist_options.capture = &merged;
  dist_options.measure = &measurement;
  dist_options.dist.transport = transport;
  const Trace distributed = entry.runner(n, dist_options);

  expect_traces_identical(distributed, reference);
  expect_schedules_identical(merged, recorded);
  EXPECT_EQ(measurement.superstep_ms.size(), distributed.supersteps());
  EXPECT_EQ(measurement.transport, transport);
}

TEST(Distributed, AllKernelsBitIdenticalOverFork) {
  for (const AlgoEntry& entry : AlgoRegistry::instance().entries()) {
    ASSERT_TRUE(entry.supports(BackendKind::kDistributed)) << entry.name;
    check_kernel_conformance(entry, dist::Transport::kFork);
  }
}

TEST(Distributed, AllKernelsBitIdenticalOverTcp) {
  for (const AlgoEntry& entry : AlgoRegistry::instance().entries()) {
    check_kernel_conformance(entry, dist::Transport::kTcp);
  }
}

TEST(Distributed, WorkerCountClampsToAPowerOfTwoDividingV) {
  // 8 VPs, worker requests {1, 2, 3, 5, 64}: every clamp must still merge
  // the identical trace, and the measurement must report the actual count.
  auto program = [](auto& bk) {
    bk.superstep(0, [](auto& vp) {
      vp.send_dummy(vp.id() ^ (vp.v() - 1), vp.id() + 1);
    });
    bk.superstep(1, [](auto& vp) { vp.send_dummy(vp.id() ^ 1, 2); });
  };
  const Trace reference =
      run_for_trace<std::uint64_t>(8, RunOptions{BackendKind::kCost}, program);
  for (const unsigned workers : {1u, 2u, 3u, 5u, 64u}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    RunOptions options;
    options.backend = BackendKind::kDistributed;
    options.dist.workers = workers;
    dist::Measurement measurement;
    options.measure = &measurement;
    const Trace distributed =
        run_for_trace<std::uint64_t>(8, options, program);
    expect_traces_identical(distributed, reference);
    EXPECT_GE(measurement.workers, 1u);
    EXPECT_LE(measurement.workers, 8u);
    EXPECT_EQ(measurement.workers & (measurement.workers - 1), 0u);
    EXPECT_EQ(measurement.superstep_ms.size(), 2u);
    EXPECT_GE(measurement.total_ms, 0.0);
  }
}

template <typename Program>
Trace run_distributed_program(Program&& program) {
  RunOptions options;
  options.backend = BackendKind::kDistributed;
  return run_for_trace<std::uint64_t>(4, options,
                                      std::forward<Program>(program));
}

TEST(Distributed, WorkerProgramExceptionsCarryTheirMessage) {
  try {
    (void)run_distributed_program([](auto& bk) {
      bk.superstep(0, [](auto& vp) {
        if (vp.id() == 3) throw std::runtime_error("kernel exploded at vp 3");
      });
    });
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()), "kernel exploded at vp 3");
  }
}

TEST(Distributed, SparseAndRangedSuperstepsMergeLikeTheReference) {
  // Drivers beyond the dense one: a ranged superstep and a sparse active
  // set, including self-sends (degree-invisible, message-visible).
  auto program = [](auto& bk) {
    bk.superstep_range(0, 2, 6, [](auto& vp) { vp.send_dummy(vp.id(), 3); });
    const std::vector<std::uint64_t> active = {1, 4, 7};
    bk.superstep_sparse(1, active,
                        [](auto& vp) { vp.send_dummy(vp.id() ^ 1, 1); });
  };
  Schedule recorded;
  RunOptions record_options;
  record_options.backend = BackendKind::kRecord;
  record_options.capture = &recorded;
  const Trace reference =
      run_for_trace<std::uint64_t>(8, record_options, program);

  Schedule merged;
  RunOptions options;
  options.backend = BackendKind::kDistributed;
  options.capture = &merged;
  const Trace distributed = run_for_trace<std::uint64_t>(8, options, program);
  expect_traces_identical(distributed, reference);
  expect_schedules_identical(merged, recorded);
}

/// A Channel that records every send and answers every recv with acks, so
/// a worker-side backend can be driven without a coordinator.
class RecordingChannel final : public dist::Channel {
 public:
  bool send(const void* data, std::size_t len) override {
    const auto* bytes = static_cast<const std::uint8_t*>(data);
    sends.emplace_back(bytes, bytes + len);
    return true;
  }
  bool recv(void* data, std::size_t len) override {
    std::memset(data, 'A', len);
    ++recvs;
    return true;
  }

  std::vector<std::vector<std::uint8_t>> sends;
  int recvs = 0;
};

TEST(Distributed, EachFrameIsOneLittleEndianWrite) {
  RecordingChannel channel;
  dist::DistributedBackend backend(8, 0, 4, &channel);

  backend.superstep(1, [](auto& vp) {
    if (vp.id() == 0) vp.send(1, 0);
    if (vp.id() == 1) vp.send_dummy(0, 5);
    if (vp.id() == 3) vp.send_dummy(2, 0x0102);
  });
  std::vector<std::uint8_t> block;
  const auto row = [&block](std::initializer_list<std::uint8_t> bytes) {
    block.insert(block.end(), bytes);
  };
  // Header: kind 'B', aux = label 1, length = 3 events.
  row({'B', 1, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0});
  // src column: 0, 1, 3.
  row({0, 0, 0, 0, 0, 0, 0, 0});
  row({1, 0, 0, 0, 0, 0, 0, 0});
  row({3, 0, 0, 0, 0, 0, 0, 0});
  // dst column: 1, 0, 2.
  row({1, 0, 0, 0, 0, 0, 0, 0});
  row({0, 0, 0, 0, 0, 0, 0, 0});
  row({2, 0, 0, 0, 0, 0, 0, 0});
  // count column: 1, 5, 0x0102.
  row({1, 0, 0, 0, 0, 0, 0, 0});
  row({5, 0, 0, 0, 0, 0, 0, 0});
  row({2, 1, 0, 0, 0, 0, 0, 0});
  // Dummy bitmap: events 1 and 2 are dummies.
  row({6, 0, 0, 0, 0, 0, 0, 0});
  ASSERT_EQ(channel.sends.size(), 1u);
  EXPECT_EQ(channel.sends[0], block);
  EXPECT_EQ(channel.recvs, 1);

  // An empty superstep after a full one: the reused buffers carry nothing
  // over, the frame is a bare header with every byte but the kind zero.
  backend.superstep(0, [](auto&) {});
  std::vector<std::uint8_t> header(13, 0);
  header[0] = 'B';
  ASSERT_EQ(channel.sends.size(), 2u);
  EXPECT_EQ(channel.sends[1], header);
  EXPECT_EQ(channel.recvs, 2);

  // The done frame: the same bare header under kind 'D', and no ack.
  backend.finish();
  header[0] = 'D';
  ASSERT_EQ(channel.sends.size(), 3u);
  EXPECT_EQ(channel.sends[2], header);
  EXPECT_EQ(channel.recvs, 2);
}

TEST(Distributed, TcpStaysWithinAConstantOfFork) {
  // 256 small supersteps, each one frame and one ack per worker: the
  // exchange a Nagle / delayed-ACK stall holds for tens of milliseconds.
  const auto program = [](dist::DistributedBackend& bk) {
    for (unsigned s = 0; s < 256; ++s) {
      bk.superstep(s % 3, [](auto& vp) { vp.send_dummy(vp.id() ^ 1); });
    }
  };
  const auto total_ms = [&](dist::Transport transport) {
    dist::Measurement measurement;
    (void)dist::run_distributed(8, dist::DistConfig{2, transport},
                                &measurement, nullptr, program);
    EXPECT_EQ(measurement.superstep_ms.size(), 256u);
    return measurement.total_ms;
  };
  const double fork_ms = total_ms(dist::Transport::kFork);
  const double tcp_ms = total_ms(dist::Transport::kTcp);
  EXPECT_LE(tcp_ms, 10.0 * fork_ms + 500.0)
      << "tcp " << tcp_ms << " ms vs fork " << fork_ms << " ms";
}

TEST(Distributed, WorkerDeathMidSuperstepThrowsAndLeavesNoChild) {
  const auto program = [](dist::DistributedBackend& bk) {
    bk.superstep(0, [](auto&) {});
    bk.superstep(0, [](auto& vp) {
      if (vp.id() == 4) ::_exit(7);  // worker 1 of 2 owns VPs 4..7
    });
    bk.superstep(0, [](auto&) {});
  };
  for (const dist::Transport transport :
       {dist::Transport::kFork, dist::Transport::kTcp}) {
    SCOPED_TRACE(dist::to_string(transport));
    const dist::DistConfig config{2, transport};
    const auto run = [&] {
      (void)dist::run_distributed(8, config, nullptr, nullptr, program);
    };
    EXPECT_THROW(run(), std::runtime_error);
    int status = 0;
    errno = 0;
    EXPECT_EQ(::waitpid(-1, &status, WNOHANG), -1);
    EXPECT_EQ(errno, ECHILD);
  }
}

TEST(Distributed, TransportNamesRoundTrip) {
  for (const dist::Transport t :
       {dist::Transport::kFork, dist::Transport::kTcp}) {
    EXPECT_EQ(dist::transport_from_string(dist::to_string(t)), t);
  }
  EXPECT_THROW((void)dist::transport_from_string("udp"),
               std::invalid_argument);
}

}  // namespace
}  // namespace nobl
