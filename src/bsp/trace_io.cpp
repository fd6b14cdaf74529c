#include "bsp/trace_io.hpp"

#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bsp/trace_store.hpp"

namespace nobl {

void write_trace_csv(std::ostream& os, const Trace& trace) {
  os << "log_v," << trace.log_v() << '\n';
  for (const auto& s : trace.steps()) {
    os << s.label << ',' << s.messages;
    for (const auto d : s.degree) os << ',' << d;
    os << '\n';
  }
}

namespace {

[[noreturn]] void csv_fail(const std::string& what, std::size_t line,
                           std::size_t column) {
  throw std::invalid_argument("read_trace_csv: " + what + " at line " +
                              std::to_string(line) + ", column " +
                              std::to_string(column));
}

/// Split a 1-based line of comma-separated u64 fields. `column_base` is the
/// 1-based column of the line's first parsed character (the header value
/// starts past the "log_v," prefix). Every failure names line and column.
std::vector<std::uint64_t> parse_fields(const std::string& line,
                                        std::size_t line_no,
                                        std::size_t column_base) {
  std::vector<std::uint64_t> fields;
  std::size_t pos = 0;
  while (pos <= line.size()) {
    const std::size_t comma = line.find(',', pos);
    const std::string token =
        line.substr(pos, comma == std::string::npos ? std::string::npos
                                                    : comma - pos);
    const std::size_t column = column_base + pos;
    if (token.empty() ||
        token.find_first_not_of("0123456789") != std::string::npos) {
      csv_fail("non-numeric field '" + token + "'", line_no, column);
    }
    try {
      fields.push_back(std::stoull(token));
    } catch (const std::out_of_range&) {
      // An all-digit token exceeding 64 bits; keep the documented contract
      // of throwing invalid_argument on any malformed input.
      csv_fail("field overflows 64 bits '" + token + "'", line_no, column);
    }
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return fields;
}

}  // namespace

Trace read_trace_csv(std::istream& is) {
  std::string line;
  std::size_t line_no = 1;
  if (!std::getline(is, line)) {
    csv_fail("empty input", 1, 1);
  }
  if (line.rfind("log_v,", 0) != 0) {
    csv_fail("missing log_v header", 1, 1);
  }
  const auto header = parse_fields(line.substr(6), 1, 7);
  if (header.size() != 1 || header[0] > 63) {
    csv_fail("bad log_v header", 1, 7);
  }
  const auto log_v = static_cast<unsigned>(header[0]);
  Trace trace(log_v);
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty()) continue;
    const auto fields = parse_fields(line, line_no, 1);
    if (fields.size() != static_cast<std::size_t>(log_v) + 3) {
      csv_fail("wrong field count (expected " +
                   std::to_string(log_v + 3) + ", got " +
                   std::to_string(fields.size()) + ")",
               line_no, 1);
    }
    // Validate in the 64-bit domain before narrowing: a label >= 2^32 would
    // otherwise wrap in the cast and could slip past Trace::append's check.
    if (fields[0] >= trace.label_bound()) {
      csv_fail("label " + std::to_string(fields[0]) + " out of range",
               line_no, 1);
    }
    SuperstepRecord record;
    record.label = static_cast<unsigned>(fields[0]);
    record.messages = fields[1];
    record.degree.assign(fields.begin() + 2, fields.end());
    try {
      trace.append(std::move(record));  // re-validates label/degree shape
    } catch (const std::invalid_argument& e) {
      csv_fail(e.what(), line_no, 1);
    }
  }
  return trace;
}

Trace read_trace_bin(std::istream& is) {
  std::ostringstream buffer;
  buffer << is.rdbuf();
  return TraceReader::from_bytes(std::move(buffer).str()).materialize();
}

}  // namespace nobl
