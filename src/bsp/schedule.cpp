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

}  // namespace nobl
