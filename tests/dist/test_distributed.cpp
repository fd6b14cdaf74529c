// The distributed backend (dist/backend.hpp): merged worker traces must be
// bit-identical to every in-process backend for every registry kernel over
// BOTH transports and at every worker count (each moves the split between
// local supersteps, shipped as degree vectors, and crossing ones, shipped
// as event blocks), worker-side exceptions must surface in the coordinator
// with their original message (the validation rules' types and messages
// are pinned by the rule x backend table in tests/bsp/test_backend.cpp),
// and the measured wall-clock column must line up with the trace's
// supersteps.
// The wire itself is pinned too: little-endian 'L' and 'B' frames streamed
// one way in batched writes, FdChannel's read-ahead, backpressure from
// blocks larger than a socket buffer, tcp within a constant of fork, and no
// child left when a worker dies, throws or disagrees on a label.
#include "dist/backend.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include "bsp/backend.hpp"
#include "core/registry.hpp"
#include "util/fd_io.hpp"

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

/// No child of this process is left, running or unreaped.
void expect_no_child() {
  int status = 0;
  errno = 0;
  EXPECT_EQ(::waitpid(-1, &status, WNOHANG), -1);
  EXPECT_EQ(errno, ECHILD);
}

/// Run one registry kernel at size n under kDistributed with `config`, and
/// pin its trace against `reference` and its measured column against the
/// trace and the config.
void check_kernel_conformance(const AlgoEntry& entry, std::uint64_t n,
                              const dist::DistConfig& config,
                              const Trace& reference) {
  SCOPED_TRACE(entry.name + " n=" + std::to_string(n) + " W=" +
               std::to_string(config.workers) + " over " +
               dist::to_string(config.transport));
  dist::Measurement measurement;
  RunOptions dist_options;
  dist_options.backend = BackendKind::kDistributed;
  dist_options.measure = &measurement;
  dist_options.dist = config;
  const Trace distributed = entry.runner(n, dist_options);

  expect_traces_identical(distributed, reference);
  EXPECT_EQ(measurement.superstep_ms.size(), distributed.supersteps());
  EXPECT_EQ(measurement.transport, config.transport);
  // A power-of-two request is clamped only by v.
  EXPECT_EQ(measurement.workers,
            std::min<std::uint64_t>(config.workers, distributed.v()));
}

TEST(Distributed, EveryKernelIsBitIdenticalAtEveryWorkerCount) {
  // W workers make labels >= log W local: W = 1 runs every superstep as
  // one local degree vector, W = 8 ships most as event blocks.
  std::vector<dist::DistConfig> configs;
  for (const unsigned workers : {1u, 2u, 4u, 8u}) {
    configs.push_back({workers, dist::Transport::kFork});
  }
  for (const unsigned workers : {2u, 4u}) {
    configs.push_back({workers, dist::Transport::kTcp});
  }
  for (const AlgoEntry& entry : AlgoRegistry::instance().entries()) {
    ASSERT_TRUE(entry.supports(BackendKind::kDistributed)) << entry.name;
    for (const std::uint64_t n : entry.smoke_sizes) {
      const Trace reference = entry.runner(n, RunOptions{BackendKind::kCost});
      for (const dist::DistConfig& config : configs) {
        check_kernel_conformance(entry, n, config, reference);
      }
    }
  }
}

TEST(Distributed, WorkersThatDisagreeOnALabelThrowAndLeaveNoChild) {
  // Two workers of four VPs each (log W = 1). A flag set by a body of the
  // first superstep is true only in worker 1, so worker 0 runs a local
  // 1-superstep ('L') while worker 1 runs a crossing 0-superstep ('B').
  const auto program = [](dist::DistributedBackend& bk) {
    bool second_worker = false;
    bk.superstep(0, [&second_worker](auto& vp) {
      if (vp.id() == 4) second_worker = true;
    });
    bk.superstep(second_worker ? 0 : 1,
                 [](auto& vp) { vp.send_dummy(vp.id() ^ 1); });
  };
  for (const dist::Transport transport :
       {dist::Transport::kFork, dist::Transport::kTcp}) {
    SCOPED_TRACE(dist::to_string(transport));
    try {
      (void)dist::run_distributed(8, dist::DistConfig{2, transport}, nullptr,
                                  program);
      ADD_FAILURE() << "expected std::runtime_error";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()),
                "dist: workers disagree on superstep labels");
    }
    expect_no_child();
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
      run_for_trace(8, RunOptions{BackendKind::kCost}, program);
  for (const unsigned workers : {1u, 2u, 3u, 5u, 64u}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    RunOptions options;
    options.backend = BackendKind::kDistributed;
    options.dist.workers = workers;
    dist::Measurement measurement;
    options.measure = &measurement;
    const Trace distributed = run_for_trace(8, options, program);
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
  return run_for_trace(4, options, std::forward<Program>(program));
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
  // Drivers beyond the dense one: ranged supersteps and sparse active sets,
  // including self-sends (degree-invisible, message-visible), each local
  // at some worker counts and crossing at others. The ranges start and end
  // inside a worker, so a worker's owned part can be partial or empty.
  auto program = [](auto& bk) {
    bk.superstep_range(0, 2, 6, [](auto& vp) { vp.send_dummy(vp.id(), 3); });
    const std::vector<std::uint64_t> active = {1, 4, 7};
    bk.superstep_sparse(1, active,
                        [](auto& vp) { vp.send_dummy(vp.id() ^ 1, 1); });
    bk.superstep_range(2, 3, 7, [](auto& vp) {
      vp.send_dummy(vp.id() ^ 1, vp.id());
      vp.send_dummy(vp.id(), 2);
    });
    bk.superstep_range(1, 1, 2, [](auto& vp) { vp.send_dummy(3, 4); });
    bk.superstep_sparse(2, active,
                        [](auto& vp) { vp.send_dummy(vp.id() ^ 1, 5); });
  };
  const Trace reference =
      run_for_trace(8, RunOptions{BackendKind::kRecord}, program);
  for (const unsigned workers : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    RunOptions options;
    options.backend = BackendKind::kDistributed;
    options.dist.workers = workers;
    const Trace distributed = run_for_trace(8, options, program);
    expect_traces_identical(distributed, reference);
  }
}

/// A Channel that records every send, so a worker-side backend can be
/// driven without a coordinator. A worker never reads: recv only counts.
class RecordingChannel final : public dist::Channel {
 public:
  bool send(const void* data, std::size_t len) override {
    const auto* bytes = static_cast<const std::uint8_t*>(data);
    sends.emplace_back(bytes, bytes + len);
    return true;
  }
  bool recv(void*, std::size_t) override {
    ++recvs;
    return false;
  }

  std::vector<std::vector<std::uint8_t>> sends;
  int recvs = 0;
};

TEST(Distributed, FramesAreLittleEndianAndStreamInOneWrite) {
  // Worker 0 of two: VPs 0..3 of 8, so labels >= 1 are local.
  RecordingChannel channel;
  dist::DistributedBackend backend(8, 0, 4, &channel);

  backend.superstep(1, [](auto& vp) {
    if (vp.id() == 0) vp.send(2, 0);
    if (vp.id() == 1) vp.send_dummy(0, 5);
    if (vp.id() == 3) vp.send_dummy(2, 0x0102);
  });
  std::vector<std::uint8_t> stream;
  const auto row = [&stream](std::initializer_list<std::uint8_t> bytes) {
    stream.insert(stream.end(), bytes);
  };
  // A local superstep ships its degree vector. Header: kind 'L', aux =
  // label 1, length = 1 + 5 + 0x0102 = 0x0108 messages.
  row({'L', 1, 0, 0, 0, 8, 1, 0, 0, 0, 0, 0, 0});
  // h(4): VP pairs {0,1} and {2,3} exchange only the one message 0 -> 2.
  row({1, 0, 0, 0, 0, 0, 0, 0});
  // h(8): VP 2 receives 1 + 0x0102.
  row({3, 1, 0, 0, 0, 0, 0, 0});
  // A small frame stays buffered: nothing is written, nothing is awaited.
  EXPECT_TRUE(channel.sends.empty());

  // A crossing superstep ships its events. Header: kind 'B', aux = label 0,
  // length = 2 events; then the src, dst and count columns, no bitmap.
  backend.superstep(0, [](auto& vp) {
    if (vp.id() == 0) vp.send(5, 0);
    if (vp.id() == 2) vp.send_dummy(7, 3);
  });
  row({'B', 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0});
  row({0, 0, 0, 0, 0, 0, 0, 0});
  row({2, 0, 0, 0, 0, 0, 0, 0});
  row({5, 0, 0, 0, 0, 0, 0, 0});
  row({7, 0, 0, 0, 0, 0, 0, 0});
  row({1, 0, 0, 0, 0, 0, 0, 0});
  row({3, 0, 0, 0, 0, 0, 0, 0});
  EXPECT_TRUE(channel.sends.empty());

  // The done frame, a bare header under kind 'D', closes the stream: both
  // superstep frames and it arrive as one write, byte for byte.
  backend.finish();
  row({'D', 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0});
  ASSERT_EQ(channel.sends.size(), 1u);
  EXPECT_EQ(channel.sends[0], stream);
  EXPECT_EQ(channel.recvs, 0);
}

TEST(Distributed, ABlockOverOneBatchFlushesAtItsOwnClose) {
  RecordingChannel channel;
  dist::DistributedBackend backend(8, 0, 4, &channel);
  backend.superstep(0, [](auto&) {});  // a bare header, buffered
  EXPECT_TRUE(channel.sends.empty());

  // 24 column bytes per event: one more event than fills a batch. Label 0
  // crosses workers, so the events ship as a 'B' block.
  constexpr std::uint64_t kEvents =
      dist::kStreamBatchBytes / (3 * sizeof(std::uint64_t)) + 1;
  backend.superstep(0, [](auto& vp) {
    if (vp.id() != 0) return;
    for (std::uint64_t e = 0; e < kEvents; ++e) vp.send_dummy(1);
  });
  ASSERT_EQ(channel.sends.size(), 1u);
  const std::vector<std::uint8_t>& sent = channel.sends[0];
  const std::size_t body = 3 * kEvents * sizeof(std::uint64_t);
  ASSERT_EQ(sent.size(), 13 + 13 + body);
  EXPECT_EQ(std::vector<std::uint8_t>(sent.begin(), sent.begin() + 13),
            std::vector<std::uint8_t>({'B', 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                                       0}));
  std::vector<std::uint8_t> header(13, 0);
  header[0] = 'B';
  dist::put_le<std::uint64_t>(header.data() + 5, kEvents);
  EXPECT_EQ(std::vector<std::uint8_t>(sent.begin() + 13, sent.begin() + 26),
            header);

  backend.finish();
  ASSERT_EQ(channel.sends.size(), 2u);
  EXPECT_EQ(channel.sends[1],
            std::vector<std::uint8_t>({'D', 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                                       0}));
  EXPECT_EQ(channel.recvs, 0);
}

/// Serves a fixed byte script to the coordinator as one worker's stream;
/// recv fails once the script runs out, like a worker that died.
class ScriptedChannel final : public dist::Channel {
 public:
  explicit ScriptedChannel(std::vector<std::uint8_t> script)
      : script_(std::move(script)) {}
  bool send(const void*, std::size_t) override { return true; }
  bool recv(void* data, std::size_t len) override {
    if (len > script_.size() - at_) return false;
    std::memcpy(data, script_.data() + at_, len);
    at_ += len;
    return true;
  }

 private:
  std::vector<std::uint8_t> script_;
  std::size_t at_ = 0;
};

/// Append one frame to `stream`: the header `kind, label, length`, then
/// `words` as the little-endian u64 body.
void put_frame(std::vector<std::uint8_t>& stream, std::uint8_t kind,
               std::uint32_t label, std::uint64_t length,
               std::initializer_list<std::uint64_t> words = {}) {
  const std::size_t at = stream.size();
  stream.resize(at + 13 + words.size() * sizeof(std::uint64_t));
  std::uint8_t* out = stream.data() + at;
  out[0] = kind;
  dist::put_le(out + 1, label);
  dist::put_le(out + 5, length);
  out += 13;
  for (const std::uint64_t word : words) {
    dist::put_le(out, word);
    out += sizeof(std::uint64_t);
  }
}

/// Merge M(8) from one scripted stream per worker, and check the merge
/// timed every superstep it returns.
Trace merge_scripts(const std::vector<std::vector<std::uint8_t>>& scripts) {
  std::vector<std::unique_ptr<ScriptedChannel>> owned;
  std::vector<dist::Channel*> channels;
  for (const auto& script : scripts) {
    owned.push_back(std::make_unique<ScriptedChannel>(script));
    channels.push_back(owned.back().get());
  }
  std::vector<double> superstep_ms;
  Trace trace = dist::merge_streams(8, channels, superstep_ms);
  EXPECT_EQ(superstep_ms.size(), trace.supersteps());
  return trace;
}

TEST(Distributed, MergeCountsBlocksAndMaxesDegreeVectors) {
  // Two workers of four VPs each (log W = 1): label 0 crosses, label 1 is
  // local.
  std::vector<std::uint8_t> first;
  std::vector<std::uint8_t> second;
  // Crossing: VP 0 -> VP 4 and VP 4 -> VP 0, one (src, dst, count) each.
  put_frame(first, 'B', 0, 1, {0, 4, 1});
  put_frame(second, 'B', 0, 1, {4, 0, 1});
  // Local: each worker's h(4), h(8) and message total.
  put_frame(first, 'L', 1, 3, {2, 3});
  put_frame(second, 'L', 1, 6, {1, 5});
  put_frame(first, 'D', 0, 0);
  put_frame(second, 'D', 0, 0);

  const Trace trace = merge_scripts({first, second});
  ASSERT_EQ(trace.supersteps(), 2u);
  EXPECT_EQ(trace.steps()[0].label, 0u);
  EXPECT_EQ(trace.steps()[0].degree, (std::vector<std::uint64_t>{0, 1, 1, 1}));
  EXPECT_EQ(trace.steps()[0].messages, 2u);
  EXPECT_EQ(trace.steps()[1].label, 1u);
  EXPECT_EQ(trace.steps()[1].degree, (std::vector<std::uint64_t>{0, 0, 2, 5}));
  EXPECT_EQ(trace.steps()[1].messages, 9u);
}

TEST(Distributed, MergeRejectsAFrameKindThatContradictsItsLabel) {
  // A 'B' block under local label 1 would be counted into the merge's
  // accumulator and never finalized; an 'L' vector under crossing label 0
  // would stand in for events that never arrived.
  std::vector<std::uint8_t> block_under_local;
  put_frame(block_under_local, 'B', 1, 1, {0, 1, 1});
  put_frame(block_under_local, 'D', 0, 0);
  std::vector<std::uint8_t> local_under_crossing;
  put_frame(local_under_crossing, 'L', 0, 1, {1, 1});
  put_frame(local_under_crossing, 'D', 0, 0);
  for (const auto& script : {block_under_local, local_under_crossing}) {
    // Both workers send the same well-formed frames, so only the kind
    // check can object.
    try {
      (void)merge_scripts({script, script});
      ADD_FAILURE() << "expected std::runtime_error";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()),
                "dist: workers disagree on superstep labels");
    }
  }
}

TEST(Distributed, TcpStaysWithinAConstantOfFork) {
  // 256 small supersteps, streamed as one batched write per worker: the
  // short tail segment a Nagle / delayed-ACK stall would hold for tens of
  // milliseconds.
  const auto program = [](dist::DistributedBackend& bk) {
    for (unsigned s = 0; s < 256; ++s) {
      bk.superstep(s % 3, [](auto& vp) { vp.send_dummy(vp.id() ^ 1); });
    }
  };
  const auto total_ms = [&](dist::Transport transport) {
    dist::Measurement measurement;
    (void)dist::run_distributed(8, dist::DistConfig{2, transport},
                                &measurement, program);
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
      (void)dist::run_distributed(8, config, nullptr, program);
    };
    EXPECT_THROW(run(), std::runtime_error);
    expect_no_child();
  }
}

TEST(Distributed, BackpressureFromLargeBlocksKeepsTheMergeExact) {
  // Thousands of tiny supersteps, many per batch, then dense all-to-all
  // blocks of about 0.8 MB per worker frame: each is larger than a socket
  // buffer, so a worker blocks on its write until the coordinator drains.
  const auto program = [](auto& bk) {
    for (unsigned s = 0; s < 4096; ++s) {
      bk.superstep(s % 8, [](auto& vp) {
        if (vp.id() % 64 == 0) vp.send_dummy(vp.id() ^ 1);
      });
    }
    for (std::uint64_t s = 1; s <= 3; ++s) {
      bk.superstep(0, [s](auto& vp) {
        for (std::uint64_t d = 0; d < vp.v(); ++d) vp.send_dummy(d, s);
      });
    }
  };
  const Trace reference =
      run_for_trace(256, RunOptions{BackendKind::kRecord}, program);
  for (const dist::Transport transport :
       {dist::Transport::kFork, dist::Transport::kTcp}) {
    SCOPED_TRACE(dist::to_string(transport));
    RunOptions options;
    options.backend = BackendKind::kDistributed;
    options.dist = dist::DistConfig{2, transport};
    const Trace distributed = run_for_trace(256, options, program);
    expect_traces_identical(distributed, reference);
  }
}

TEST(Distributed, ErrorAfterBufferedFramesRethrowsAndLeavesNoChild) {
  // Worker 1 (VPs 4..7) throws at superstep 300 and worker 0 at 400, each
  // with its earlier blocks still buffered. Those blocks must reach the
  // coordinator ahead of each error frame: the merge then meets worker 1's
  // error first. Were they dropped, worker 0's error would surface at
  // superstep 0 instead.
  const auto program = [](dist::DistributedBackend& bk) {
    for (unsigned s = 0; s < 600; ++s) {
      bk.superstep(0, [s](auto& vp) {
        if (s == 300 && vp.id() == 4) {
          throw ClusterViolation("vp 4 failed at superstep 300");
        }
        if (s == 400 && vp.id() == 0) {
          throw std::runtime_error("vp 0 failed at superstep 400");
        }
        vp.send_dummy(vp.id() ^ 1);
      });
    }
  };
  for (const dist::Transport transport :
       {dist::Transport::kFork, dist::Transport::kTcp}) {
    SCOPED_TRACE(dist::to_string(transport));
    try {
      (void)dist::run_distributed(8, dist::DistConfig{2, transport}, nullptr,
                                  program);
      ADD_FAILURE() << "expected ClusterViolation";
    } catch (const ClusterViolation& e) {
      EXPECT_EQ(std::string(e.what()), "vp 4 failed at superstep 300");
    }
    expect_no_child();
  }
}

/// An FdChannel reading one end of a socketpair; the test writes the other.
class FdChannelReadAhead : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds_), 0);
    channel_ = std::make_unique<dist::FdChannel>(fds_[1]);
  }
  void TearDown() override {
    if (fds_[0] >= 0) ::close(fds_[0]);
  }

  void write(const std::vector<std::uint8_t>& bytes) {
    ASSERT_TRUE(io::send_all(fds_[0], bytes.data(), bytes.size()));
  }
  std::vector<std::uint8_t> read(std::size_t len) {
    std::vector<std::uint8_t> bytes(len);
    EXPECT_TRUE(channel_->recv(bytes.data(), len));
    return bytes;
  }
  /// True when the kernel holds no unread byte for the channel.
  bool socket_drained() const {
    std::uint8_t byte = 0;
    return ::recv(fds_[1], &byte, 1, MSG_PEEK | MSG_DONTWAIT) < 0 &&
           (errno == EAGAIN || errno == EWOULDBLOCK);
  }

  int fds_[2] = {-1, -1};
  std::unique_ptr<dist::FdChannel> channel_;
};

std::vector<std::uint8_t> pattern(std::size_t len, std::uint8_t seed) {
  std::vector<std::uint8_t> bytes(len);
  for (std::size_t i = 0; i < len; ++i) {
    bytes[i] = static_cast<std::uint8_t>(seed + 31 * i);
  }
  return bytes;
}

TEST_F(FdChannelReadAhead, OneExactReadSpansTwoKernelReads) {
  const std::vector<std::uint8_t> head = pattern(5, 1);
  const std::vector<std::uint8_t> tail = pattern(8, 2);
  write(head);
  // The tail lands only after the reader has taken the head and blocked.
  std::thread late([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    write(tail);
  });
  std::vector<std::uint8_t> expected = head;
  expected.insert(expected.end(), tail.begin(), tail.end());
  EXPECT_EQ(read(expected.size()), expected);
  late.join();
}

TEST_F(FdChannelReadAhead, OneKernelReadHoldsSeveralFrames) {
  std::vector<std::uint8_t> frames;
  for (std::uint8_t f = 0; f < 3; ++f) {
    const std::vector<std::uint8_t> header = pattern(13, f);
    const std::vector<std::uint8_t> body = pattern(8 * (f + 1), 100 + f);
    frames.insert(frames.end(), header.begin(), header.end());
    frames.insert(frames.end(), body.begin(), body.end());
  }
  write(frames);
  // The first header read pulls every frame into the buffer at once.
  EXPECT_EQ(read(13), pattern(13, 0));
  EXPECT_TRUE(socket_drained());
  EXPECT_EQ(read(8), pattern(8, 100));
  EXPECT_EQ(read(13), pattern(13, 1));
  EXPECT_EQ(read(16), pattern(16, 101));
  EXPECT_EQ(read(13), pattern(13, 2));
  EXPECT_EQ(read(24), pattern(24, 102));
}

TEST_F(FdChannelReadAhead, ABatchSizedReadTakesTheBufferThenTheSocket) {
  const std::vector<std::uint8_t> header = pattern(13, 7);
  const std::vector<std::uint8_t> body =
      pattern(3 * dist::kStreamBatchBytes + 5, 9);
  // Larger than a socket buffer: the writer blocks until the reader drains.
  std::thread writer([&] {
    write(header);
    write(body);
  });
  EXPECT_EQ(read(header.size()), header);
  EXPECT_EQ(read(body.size()), body);
  writer.join();
}

TEST_F(FdChannelReadAhead, EofMidFrameReturnsFalse) {
  write(pattern(5, 3));
  ::close(fds_[0]);
  fds_[0] = -1;
  std::uint8_t header[13] = {};
  errno = EINVAL;
  EXPECT_FALSE(channel_->recv(header, sizeof(header)));
  EXPECT_EQ(errno, 0);  // a clean EOF, not an I/O error
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
