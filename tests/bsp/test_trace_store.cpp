// The binary columnar trace store (bsp/trace_store.hpp): lossless
// encode/decode round-trips, the encoder's log_v limit, and the fuzz-style
// negative contract of the decoder (every truncation and corruption throws
// invalid_argument with a byte offset; random mutations never crash).
#include "bsp/trace_store.hpp"

#include <gtest/gtest.h>

#include <random>
#include <sstream>
#include <string>

#include "bsp/machine.hpp"
#include "bsp/trace_io.hpp"

namespace nobl {
namespace {

Trace sample_trace() {
  Machine<int> m(16);
  m.superstep(0, [](Vp<int>& vp) { vp.send(vp.id() ^ 8, 1); });
  m.superstep(1, [](Vp<int>& vp) { vp.send(vp.id() ^ 2, 1); });
  m.superstep(1, [](Vp<int>& vp) { vp.send(vp.id() ^ 2, 1); });
  m.superstep(3, [](Vp<int>& vp) {
    if (vp.id() == 8) vp.send_dummy(9, 7);
  });
  return m.trace();
}

std::string encode(const Trace& trace) {
  std::ostringstream os(std::ios::binary);
  write_trace_bin(os, trace);
  return std::move(os).str();
}

void expect_same_trace(const Trace& decoded, const Trace& trace) {
  ASSERT_EQ(decoded.log_v(), trace.log_v());
  ASSERT_EQ(decoded.supersteps(), trace.supersteps());
  EXPECT_EQ(decoded.total_messages(), trace.total_messages());
  EXPECT_EQ(decoded.max_label(), trace.max_label());
  for (std::size_t s = 0; s < trace.supersteps(); ++s) {
    EXPECT_EQ(decoded.steps()[s].label, trace.steps()[s].label);
    EXPECT_EQ(decoded.steps()[s].messages, trace.steps()[s].messages);
    EXPECT_EQ(decoded.steps()[s].degree, trace.steps()[s].degree);
  }
}

TEST(TraceStore, WriterReaderRoundTripIsLossless) {
  const Trace trace = sample_trace();
  const std::string bytes = encode(trace);
  EXPECT_TRUE(looks_like_trace_bin(bytes));
  expect_same_trace(TraceReader::from_bytes(bytes).materialize(), trace);
}

TEST(TraceStore, EmptyTraceAndDegenerateLogVRoundTrip) {
  for (const unsigned log_v : {0u, 1u, 5u}) {
    Trace trace(log_v);
    if (log_v == 0) {
      SuperstepRecord r;
      r.label = 0;
      r.degree.assign(1, 0);
      trace.append(std::move(r));
    }
    expect_same_trace(TraceReader::from_bytes(encode(trace)).materialize(),
                      trace);
  }
}

TEST(TraceStore, EncoderRejectsLogVAbove63) {
  // Trace(64) is constructible, but the header stores log_v <= 63, like the
  // CSV header rule.
  std::ostringstream os(std::ios::binary);
  EXPECT_THROW(write_trace_bin(os, Trace(64)), std::invalid_argument);
}

// --- the fuzz-style negative contract -------------------------------------

TEST(TraceStore, EveryTruncationThrowsWithByteOffset) {
  const std::string bytes = encode(sample_trace());
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    try {
      (void)TraceReader::from_bytes(bytes.substr(0, len));
      FAIL() << "truncation to " << len << " bytes was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("byte"), std::string::npos)
          << "no byte offset in error for truncation to " << len << ": "
          << e.what();
    }
  }
}

TEST(TraceStore, RejectsWrongMagicVersionAndChecksums) {
  const std::string bytes = encode(sample_trace());
  {
    std::string bad = bytes;
    bad[0] = 'X';  // magic
    EXPECT_THROW((void)TraceReader::from_bytes(bad), std::invalid_argument);
    EXPECT_FALSE(looks_like_trace_bin(bad));
  }
  {
    std::string bad = bytes;
    bad[4] = 2;  // version (checked before its checksum would catch it)
    try {
      (void)TraceReader::from_bytes(bad);
      FAIL() << "future version accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
    }
  }
  {
    std::string bad = bytes;
    bad[6] = 77;  // log_v out of range
    EXPECT_THROW((void)TraceReader::from_bytes(bad), std::invalid_argument);
  }
  {
    std::string bad = bytes;
    bad[8] ^= 0x01;  // header CRC
    EXPECT_THROW((void)TraceReader::from_bytes(bad), std::invalid_argument);
  }
  {
    std::string bad = bytes;
    bad[14] ^= 0x40;  // inside the first block: its CRC must catch it
    EXPECT_THROW((void)TraceReader::from_bytes(bad), std::invalid_argument);
  }
  {
    std::string bad = bytes;
    bad[bytes.size() - 10] ^= 0x01;  // footer counters
    EXPECT_THROW((void)TraceReader::from_bytes(bad), std::invalid_argument);
  }
  {
    std::string bad = bytes + "junk";  // trailing bytes after the footer
    EXPECT_THROW((void)TraceReader::from_bytes(bad), std::invalid_argument);
  }
}

TEST(TraceStore, RandomByteMutationsNeverCrash) {
  const std::string bytes = encode(sample_trace());
  std::mt19937 rng(20260807);
  std::uniform_int_distribution<std::size_t> pos(0, bytes.size() - 1);
  std::uniform_int_distribution<int> value(0, 255);
  std::size_t rejected = 0;
  for (int trial = 0; trial < 400; ++trial) {
    std::string mutated = bytes;
    mutated[pos(rng)] = static_cast<char>(value(rng));
    try {
      const Trace decoded = TraceReader::from_bytes(mutated).materialize();
      // A mutation may survive (e.g. hitting a byte with its own CRC also
      // mutated is impossible here, but the identity mutation is) — the
      // decoded trace must still be fully usable.
      (void)decoded.total_F(decoded.log_v());
    } catch (const std::invalid_argument&) {
      ++rejected;
    }
    // Anything else (std::bad_alloc, segfault, UB under sanitizers) fails
    // the test by escaping or aborting.
  }
  // The checksums make silent acceptance of a real flip essentially
  // impossible; only trials that overwrite a byte with itself may pass.
  EXPECT_GE(rejected, 350u);
}

}  // namespace
}  // namespace nobl
