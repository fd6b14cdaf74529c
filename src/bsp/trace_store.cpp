#include "bsp/trace_store.hpp"

#include <array>
#include <cstring>
#include <iterator>
#include <ostream>
#include <stdexcept>
#include <vector>

#include "bsp/trace_io.hpp"

namespace nobl {
namespace {

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) — table-driven, no
// external dependency.

std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

std::uint32_t crc32(const unsigned char* data, std::size_t size) {
  static const std::array<std::uint32_t, 256> table = make_crc_table();
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i) {
    crc = table[(crc ^ data[i]) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

// ---------------------------------------------------------------------------
// Varint / zigzag primitives. Unsigned LEB128, at most 10 bytes for 64 bits;
// zigzag maps the two's-complement delta so small magnitudes of either sign
// pack into one byte.

void put_varint(std::vector<unsigned char>& out, std::uint64_t value) {
  while (value >= 0x80) {
    out.push_back(static_cast<unsigned char>(value) | 0x80u);
    value >>= 7;
  }
  out.push_back(static_cast<unsigned char>(value));
}

std::uint64_t zigzag_encode(std::uint64_t delta) {
  // Interpret the mod-2^64 delta as signed and fold the sign into bit 0.
  const auto s = static_cast<std::int64_t>(delta);
  return (static_cast<std::uint64_t>(s) << 1) ^
         static_cast<std::uint64_t>(s >> 63);
}

std::uint64_t zigzag_decode(std::uint64_t coded) {
  return (coded >> 1) ^ (~(coded & 1) + 1);
}

void put_u16(std::vector<unsigned char>& out, std::uint16_t value) {
  out.push_back(static_cast<unsigned char>(value & 0xFFu));
  out.push_back(static_cast<unsigned char>(value >> 8));
}

void put_u32(std::vector<unsigned char>& out, std::uint32_t value) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<unsigned char>(value >> (8 * i)));
  }
}

void put_u64(std::vector<unsigned char>& out, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<unsigned char>(value >> (8 * i)));
  }
}

/// Bounded forward cursor over the image; every read checks the remaining
/// bytes and reports the exact offset on a miss.
struct Cursor {
  const unsigned char* data;
  std::size_t size;
  std::size_t pos = 0;

  [[noreturn]] void fail(const std::string& what) const {
    throw std::invalid_argument("binary trace: " + what + " at byte " +
                                std::to_string(pos));
  }

  std::uint8_t u8(const char* what) {
    if (pos >= size) fail(std::string("truncated ") + what);
    return data[pos++];
  }

  std::uint32_t u32(const char* what) {
    if (size - pos < 4) fail(std::string("truncated ") + what);
    std::uint32_t value = 0;
    for (int i = 0; i < 4; ++i) {
      value |= static_cast<std::uint32_t>(data[pos + i]) << (8 * i);
    }
    pos += 4;
    return value;
  }

  std::uint64_t u64(const char* what) {
    if (size - pos < 8) fail(std::string("truncated ") + what);
    std::uint64_t value = 0;
    for (int i = 0; i < 8; ++i) {
      value |= static_cast<std::uint64_t>(data[pos + i]) << (8 * i);
    }
    pos += 8;
    return value;
  }

  std::uint64_t varint(const char* what) {
    std::uint64_t value = 0;
    for (unsigned shift = 0; shift < 70; shift += 7) {
      if (pos >= size) fail(std::string("truncated ") + what);
      const unsigned char byte = data[pos++];
      if (shift == 63 && (byte & 0xFEu) != 0) {
        fail(std::string("varint overflows 64 bits in ") + what);
      }
      value |= static_cast<std::uint64_t>(byte & 0x7Fu) << shift;
      if ((byte & 0x80u) == 0) return value;
    }
    fail(std::string("varint too long in ") + what);
  }
};

constexpr std::size_t kHeaderBytes = 12;
constexpr unsigned char kFooterSentinel = 0xFF;

/// Parse and validate the 12-byte header; returns log_v.
unsigned parse_header(Cursor& cursor) {
  if (cursor.size < kHeaderBytes) {
    cursor.pos = cursor.size;
    cursor.fail("truncated header");
  }
  if (std::memcmp(cursor.data, kTraceBinMagic, 4) != 0) {
    throw std::invalid_argument(
        "binary trace: bad magic at byte 0 (expected \"NBLT\")");
  }
  cursor.pos = 4;
  const std::uint16_t version =
      static_cast<std::uint16_t>(cursor.u8("version")) |
      static_cast<std::uint16_t>(static_cast<std::uint16_t>(cursor.u8(
                                     "version"))
                                 << 8);
  if (version != kTraceBinVersion) {
    throw std::invalid_argument(
        "binary trace: unsupported version " + std::to_string(version) +
        " at byte 4 (this reader understands version " +
        std::to_string(kTraceBinVersion) + ")");
  }
  const std::uint16_t log_v =
      static_cast<std::uint16_t>(cursor.u8("log_v")) |
      static_cast<std::uint16_t>(
          static_cast<std::uint16_t>(cursor.u8("log_v")) << 8);
  if (log_v > 63) {
    throw std::invalid_argument("binary trace: log_v " +
                                std::to_string(log_v) +
                                " out of range at byte 6");
  }
  const std::uint32_t stored = cursor.u32("header checksum");
  const std::uint32_t computed = crc32(cursor.data, 8);
  if (stored != computed) {
    throw std::invalid_argument(
        "binary trace: header checksum mismatch at byte 8");
  }
  return log_v;
}

}  // namespace

bool looks_like_trace_bin(const std::string& bytes) {
  return bytes.size() >= 4 && std::memcmp(bytes.data(), kTraceBinMagic, 4) == 0;
}

// ---------------------------------------------------------------------------
// Encoder

void write_trace_bin(std::ostream& os, const Trace& trace) {
  const unsigned log_v = trace.log_v();
  if (log_v > 63) {
    throw std::invalid_argument("write_trace_bin: log_v out of range");
  }
  // One scratch buffer, written out and reused per header, block and footer.
  std::vector<unsigned char> scratch;
  const auto emit = [&] {
    os.write(reinterpret_cast<const char*>(scratch.data()),
             static_cast<std::streamsize>(scratch.size()));
    scratch.clear();
  };
  scratch.assign(std::begin(kTraceBinMagic), std::end(kTraceBinMagic));
  put_u16(scratch, kTraceBinVersion);
  put_u16(scratch, static_cast<std::uint16_t>(log_v));
  put_u32(scratch, crc32(scratch.data(), scratch.size()));
  emit();
  const std::vector<std::uint64_t> zeros(log_v + 1u, 0);
  const std::vector<std::uint64_t>* prev = &zeros;
  for (const SuperstepRecord& step : trace.steps()) {
    put_varint(scratch, step.label);
    put_varint(scratch, step.messages);
    for (unsigned j = 1; j <= log_v; ++j) {
      put_varint(scratch, zigzag_encode(step.degree[j] - (*prev)[j]));
    }
    put_u32(scratch, crc32(scratch.data(), scratch.size()));
    emit();
    prev = &step.degree;
  }
  scratch.push_back(kFooterSentinel);
  put_u64(scratch, trace.supersteps());
  put_u64(scratch, trace.total_messages());
  put_u32(scratch, crc32(scratch.data(), scratch.size()));
  emit();
}

// ---------------------------------------------------------------------------
// Decoder

TraceReader TraceReader::from_bytes(std::string bytes) {
  const auto* data = reinterpret_cast<const unsigned char*>(bytes.data());
  const std::size_t size = bytes.size();
  Cursor cursor{data, size, 0};
  const unsigned log_v = parse_header(cursor);
  Trace trace(log_v);
  const std::vector<std::uint64_t> zeros(log_v + 1u, 0);
  const std::vector<std::uint64_t>* prev = &zeros;
  for (;;) {
    if (cursor.pos >= size) cursor.fail("truncated file: missing footer");
    if (data[cursor.pos] == kFooterSentinel) break;
    const std::size_t block_start = cursor.pos;
    const std::uint64_t label = cursor.varint("block label");
    if (label >= label_bound(log_v)) {
      cursor.pos = block_start;
      cursor.fail("superstep label " + std::to_string(label) +
                  " out of range in block");
    }
    SuperstepRecord record;
    record.label = static_cast<unsigned>(label);
    record.messages = cursor.varint("block message count");
    record.degree.assign(log_v + 1u, 0);
    for (unsigned j = 1; j <= log_v; ++j) {
      const std::uint64_t delta = zigzag_decode(cursor.varint("degree delta"));
      record.degree[j] = (*prev)[j] + delta;  // mod 2^64 by construction
    }
    const std::size_t payload_end = cursor.pos;
    const std::uint32_t stored = cursor.u32("block checksum");
    const std::uint32_t computed =
        crc32(data + block_start, payload_end - block_start);
    if (stored != computed) {
      cursor.pos = block_start;
      cursor.fail("block checksum mismatch");
    }
    trace.append(std::move(record));
    prev = &trace.steps().back().degree;
  }
  const std::size_t footer_start = cursor.pos;
  cursor.u8("footer sentinel");
  const std::uint64_t footer_supersteps = cursor.u64("footer superstep count");
  const std::uint64_t footer_messages = cursor.u64("footer message total");
  const std::size_t footer_payload_end = cursor.pos;
  const std::uint32_t stored = cursor.u32("footer checksum");
  const std::uint32_t computed =
      crc32(data + footer_start, footer_payload_end - footer_start);
  if (stored != computed) {
    cursor.pos = footer_start;
    cursor.fail("footer checksum mismatch");
  }
  if (footer_supersteps != trace.supersteps()) {
    cursor.pos = footer_start;
    cursor.fail("footer superstep count " + std::to_string(footer_supersteps) +
                " does not match the " + std::to_string(trace.supersteps()) +
                " blocks read");
  }
  if (footer_messages != trace.total_messages()) {
    cursor.pos = footer_start;
    cursor.fail("footer message total mismatch");
  }
  if (cursor.pos != size) {
    cursor.fail("trailing bytes after footer");
  }
  return TraceReader(std::move(trace));
}

}  // namespace nobl
