#include "bsp/backend.hpp"

namespace nobl {

std::string to_string(BackendKind kind) {
  switch (kind) {
    case BackendKind::kSimulate:
      return "simulate";
    case BackendKind::kCost:
      return "cost";
    case BackendKind::kRecord:
      return "record";
    case BackendKind::kAnalytic:
      return "analytic";
    case BackendKind::kDistributed:
      return "distributed";
  }
  return "unknown";
}

BackendKind backend_from_string(const std::string& name) {
  if (name == "simulate" || name == "sim") return BackendKind::kSimulate;
  if (name == "cost") return BackendKind::kCost;
  if (name == "record") return BackendKind::kRecord;
  if (name == "analytic") return BackendKind::kAnalytic;
  if (name == "distributed" || name == "dist") return BackendKind::kDistributed;
  throw std::invalid_argument(
      "unknown backend \"" + name +
      "\" (expected simulate | cost | record | analytic | distributed)");
}

const std::vector<BackendKind>& all_backend_kinds() {
  static const std::vector<BackendKind> kinds{
      BackendKind::kSimulate, BackendKind::kCost, BackendKind::kRecord,
      BackendKind::kAnalytic, BackendKind::kDistributed};
  return kinds;
}

}  // namespace nobl
