// Binary columnar trace store: the one block layout shared by backends,
// goldens, the CLI and the serve result cache.
//
// The paper makes traces the central artifact — H, D, wiseness and
// optimality are pure functions of the per-superstep fold-degree trace
// (Eq. 1–2) — so the store is built around exactly that shape: one block
// per superstep carrying the label, the message total, and the fold-degree
// column h(2^j) for j = 1..log v. Degrees are mostly regular across
// consecutive supersteps (tree rounds repeat, dense phases plateau), so
// each column is delta-encoded against the previous block and the deltas
// are zigzag/varint packed; dense kernels land well under the CSV size.
//
// File layout (version 1; see docs/SCHEMAS.md for the normative spec):
//
//   header   magic "NBLT" · u16 version · u16 log_v · u32 CRC-32 of the 8
//            preceding bytes                                    (12 bytes)
//   block    varint label · varint messages · zigzag-varint
//            (degree[j] − prev_degree[j]) for j = 1..log_v ·
//            u32 CRC-32 of the block payload            (one per superstep)
//   footer   0xFF sentinel · u64 supersteps · u64 total messages ·
//            u32 CRC-32 of the 17 preceding bytes               (21 bytes)
//
// degree[0] == 0 always (one processor exchanges nothing with itself) and
// is never stored. The 0xFF sentinel cannot open a valid block: a label
// varint below 64 is a single byte < 0x40. Every decoder error — bad
// magic/version, a checksum mismatch, a truncation anywhere (including at
// a block boundary: the footer is mandatory) — throws std::invalid_argument
// carrying the byte offset.
//
// One encoder and one decoder around the layout, both over the in-memory
// Trace: write_trace_bin (bsp/trace_io.hpp) encodes a trace block by block,
// and TraceReader::from_bytes validates a whole image and decodes it into a
// Trace.
#pragma once

#include <cstdint>
#include <string>
#include <utility>

#include "bsp/trace.hpp"

namespace nobl {

/// First bytes of every binary trace file: 'N' 'B' 'L' 'T'.
inline constexpr unsigned char kTraceBinMagic[4] = {'N', 'B', 'L', 'T'};
/// Current (and only) format version.
inline constexpr std::uint16_t kTraceBinVersion = 1;
/// Canonical file extension for binary traces (goldens, exports).
inline constexpr const char* kTraceBinExtension = ".nbt";

/// Decoder for a binary trace image. from_bytes checks the header, every
/// block (label range and checksum), the footer's counters and checksum and
/// that nothing trails it, throwing std::invalid_argument with the byte
/// offset on the first violation; materialize() hands out the decoded trace.
class TraceReader {
 public:
  [[nodiscard]] static TraceReader from_bytes(std::string bytes);

  [[nodiscard]] Trace materialize() && noexcept { return std::move(trace_); }

 private:
  explicit TraceReader(Trace trace) noexcept : trace_(std::move(trace)) {}

  Trace trace_;
};

/// True iff `bytes` opens with the binary-trace magic — the sniff the CLI
/// uses to route a file to the right parser.
[[nodiscard]] bool looks_like_trace_bin(const std::string& bytes);

}  // namespace nobl
