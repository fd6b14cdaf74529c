#include "bsp/schedule.hpp"

#include <stdexcept>

namespace nobl {

std::size_t Schedule::total_sends() const noexcept {
  std::size_t total = 0;
  for (const ScheduleStep& step : steps) total += step.size();
  return total;
}

Trace Schedule::replay_trace() const {
  Trace trace(log_v);
  DegreeAccumulator acc(log_v);
  for (const ScheduleStep& step : steps) {
    if (step.label >= trace.label_bound()) {
      throw std::invalid_argument("Schedule: superstep label out of range");
    }
    SuperstepRecord record;
    record.label = step.label;
    record.degree.assign(log_v + 1u, 0);
    const auto& src = step.src();
    const auto& dst = step.dst();
    const auto& count = step.count();
    for (std::size_t i = 0; i < step.size(); ++i) {
      acc.count(src[i], dst[i], count[i]);
    }
    acc.finalize_into(record);
    trace.append(std::move(record));
  }
  return trace;
}

namespace {

/// 64-bit FNV-1a over a word sequence (each word fed little-endian).
std::uint64_t fnv1a(std::uint64_t hash, std::uint64_t word) noexcept {
  for (int i = 0; i < 8; ++i) {
    hash ^= (word >> (8 * i)) & 0xFFu;
    hash *= 0x100000001B3ull;
  }
  return hash;
}

std::uint64_t fnv1a(std::uint64_t hash,
                    const std::vector<std::uint64_t>& words) noexcept {
  hash = fnv1a(hash, words.size());  // length-prefix: no column aliasing
  for (const std::uint64_t word : words) hash = fnv1a(hash, word);
  return hash;
}

}  // namespace

std::uint64_t Schedule::content_hash() const noexcept {
  std::uint64_t hash = 0xCBF29CE484222325ull;
  hash = fnv1a(hash, log_v);
  hash = fnv1a(hash, steps.size());
  for (const ScheduleStep& step : steps) {
    hash = fnv1a(hash, step.label);
    hash = fnv1a(hash, step.src());
    hash = fnv1a(hash, step.dst());
    hash = fnv1a(hash, step.count());
    hash = fnv1a(hash, step.dummy_words());
  }
  return hash;
}

}  // namespace nobl
