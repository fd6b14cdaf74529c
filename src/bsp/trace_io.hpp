// Trace serialization: persist a recorded communication trace so a run on
// the specification model can be archived, diffed, or re-analyzed
// (H/D/wiseness are pure functions of the trace) without re-executing the
// algorithm. Two formats share one in-memory Trace, and each has one writer
// and one reader:
//
//   CSV — the human surface: header line `log_v,<value>`, then one line per
//     superstep: label,messages,degree_0,degree_1,...,degree_logv
//   binary — the compact columnar block format of bsp/trace_store.hpp
//     (delta+varint degree columns, per-block checksums) and the only
//     stored golden format; the two are pinned against each other by a
//     round-trip differential test (tests/bsp/test_trace_io.cpp).
#pragma once

#include <iosfwd>

#include "bsp/trace.hpp"

namespace nobl {

/// Serialize a trace as CSV. Deterministic, line-oriented, self-describing.
void write_trace_csv(std::ostream& os, const Trace& trace);

/// Parse a trace written by write_trace_csv. Throws std::invalid_argument on
/// malformed input (wrong field counts, non-numeric fields, numeric fields
/// exceeding 64 bits, label/degree constraints violated — the same
/// validation Trace::append applies); every parse error carries the
/// offending line and column.
[[nodiscard]] Trace read_trace_csv(std::istream& is);

/// Serialize a trace in the binary columnar block format, the one encoder
/// (defined in trace_store.cpp beside its decoder). Throws
/// std::invalid_argument when log_v exceeds the format's 63.
void write_trace_bin(std::ostream& os, const Trace& trace);

/// Read the rest of `is` and decode it through TraceReader::from_bytes.
/// Throws std::invalid_argument on any format violation, carrying the byte
/// offset.
[[nodiscard]] Trace read_trace_bin(std::istream& is);

}  // namespace nobl
