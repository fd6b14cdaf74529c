// Shared by the benchmark's two C++ tools (serve_client.cpp, layers.cpp):
// the serve working set, its Zipf query stream, trace comparison and the
// span recorder of the traced run.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "bsp/trace.hpp"

namespace perfbench {

/// One served cell: a registry kernel at one size under one backend.
struct Cell {
  std::string kernel;
  std::uint64_t n = 0;
  std::string backend;
};

/// Working-set file: one "kernel n backend" line per cell, listed in
/// popularity-rank order (line 0 is the most popular).
inline std::vector<Cell> read_cells(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::invalid_argument("cannot read cells file " + path);
  std::vector<Cell> cells;
  Cell cell;
  while (in >> cell.kernel >> cell.n >> cell.backend) cells.push_back(cell);
  if (cells.empty()) throw std::invalid_argument("empty cells file " + path);
  return cells;
}

/// The traced serve stream, the same in both tools: untimed warm-up queries,
/// then measured ones, drawn from one fixed seed so the tier counts of the
/// real server and of the in-process cache repeat exactly and can be
/// compared whatever the workload seed.
inline constexpr std::uint64_t kServeWarmup = 2000;
inline constexpr std::uint64_t kServeQueries = 4000;
inline constexpr std::uint64_t kServeStreamSeed = 0;

/// The single-cell campaign spec a client sends for `cell`.
inline std::string query_spec(const Cell& cell) {
  return "name = q\nalgorithms = " + cell.kernel + ":" +
         std::to_string(cell.n) + "\nbackends = " + cell.backend + "\n";
}

/// Popularity ranks drawn from Zipf(s = 1) over `cells` ranks, from a
/// splitmix64 stream seeded by `seed`. Which cell holds which rank is fixed
/// by the working-set file, so every seed sends the same expected mix.
class ZipfRanks {
 public:
  ZipfRanks(std::size_t cells, std::uint64_t seed) : state_(seed) {
    double total = 0.0;
    for (std::size_t r = 0; r < cells; ++r) {
      total += 1.0 / static_cast<double>(r + 1);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
  }

  std::size_t next() {
    state_ += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = state_;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    z ^= z >> 31;
    const double u = static_cast<double>(z >> 11) * 0x1.0p-53;
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
    return std::min<std::size_t>(
        static_cast<std::size_t>(it - cdf_.begin()), cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
  std::uint64_t state_;
};

/// Bit-identity of two traces: same machine, same superstep sequence, same
/// degree columns and message counts.
inline bool same_trace(const nobl::Trace& a, const nobl::Trace& b) {
  if (a.log_v() != b.log_v() || a.supersteps() != b.supersteps() ||
      a.total_messages() != b.total_messages()) {
    return false;
  }
  for (std::size_t i = 0; i < a.supersteps(); ++i) {
    const nobl::SuperstepRecord& x = a.steps()[i];
    const nobl::SuperstepRecord& y = b.steps()[i];
    if (x.label != y.label || x.messages != y.messages ||
        x.degree != y.degree) {
      return false;
    }
  }
  return true;
}

/// Median; an even-sized sample averages its two middle values.
inline double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t m = xs.size() / 2;
  return xs.size() % 2 == 1 ? xs[m] : 0.5 * (xs[m - 1] + xs[m]);
}

/// In-memory span recorder. A span has a name, start, end, the span open
/// when it began (its parent) and the pass it belongs to. Spans are kept
/// until the run ends; self time is computed afterwards.
class Tracer {
 public:
  struct Span {
    const char* name;
    double start;
    double end;
    int parent;
    int pass;
  };

  void set_pass(int pass) { pass_ = pass; }

  int begin(const char* name) {
    spans_.push_back({name, now(), 0.0, open_, pass_});
    open_ = static_cast<int>(spans_.size()) - 1;
    return open_;
  }

  void end(int id) {
    spans_[static_cast<std::size_t>(id)].end = now();
    open_ = spans_[static_cast<std::size_t>(id)].parent;
  }

  /// Name a span after the call it wraps has returned (the cache tier that
  /// answered is known only then).
  void rename(int id, const char* name) {
    spans_[static_cast<std::size_t>(id)].name = name;
  }

  /// Per pass, per name: summed self time (duration minus the time the
  /// span's direct children cover), in seconds.
  [[nodiscard]] std::map<int, std::map<std::string, double>> self_times()
      const {
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        child[static_cast<std::size_t>(s.parent)] += s.end - s.start;
      }
    }
    std::map<int, std::map<std::string, double>> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out[s.pass][s.name] += (s.end - s.start) - child[i];
    }
    return out;
  }

  /// Per pass, per name: summed whole duration, children included.
  [[nodiscard]] std::map<int, std::map<std::string, double>> durations()
      const {
    std::map<int, std::map<std::string, double>> out;
    for (const Span& s : spans_) out[s.pass][s.name] += s.end - s.start;
    return out;
  }

 private:
  [[nodiscard]] double now() const {
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }

  std::chrono::steady_clock::time_point origin_ =
      std::chrono::steady_clock::now();
  std::vector<Span> spans_;
  int open_ = -1;
  int pass_ = 0;
};

/// RAII span: open on construction, closed on scope exit.
class Scope {
 public:
  Scope(Tracer& tracer, const char* name)
      : tracer_(tracer), id_(tracer.begin(name)) {}
  ~Scope() { tracer_.end(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

}  // namespace perfbench
