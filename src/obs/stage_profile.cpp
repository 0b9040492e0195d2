#include "src/obs/stage_profile.h"

#include <cstdio>

namespace cloudcache {
namespace obs {

const char* StageName(Stage stage) {
  switch (stage) {
    case Stage::kFailureScan:
      return "failure-scan";
    case Stage::kEnumerate:
      return "enumerate";
    case Stage::kSkyline:
      return "skyline";
    case Stage::kPrice:
      return "price";
    case Stage::kSettle:
      return "settle";
  }
  return "?";
}

StageProfiler& StageProfiler::Instance() {
  static StageProfiler instance;
  return instance;
}

void StageProfiler::Reset() {
  for (int i = 0; i < kNumStages; ++i) {
    counts_[i].store(0, std::memory_order_relaxed);
    nanos_[i].store(0, std::memory_order_relaxed);
  }
}

std::string StageProfiler::FormatTable() const {
  uint64_t total_ns = 0;
  for (int i = 0; i < kNumStages; ++i) {
    total_ns += nanos(static_cast<Stage>(i));
  }
  std::string out;
  char line[160];
  std::snprintf(line, sizeof(line), "%-12s %12s %12s %10s %7s\n", "stage",
                "calls", "total_ms", "ns/call", "share");
  out += line;
  for (int i = 0; i < kNumStages; ++i) {
    const Stage stage = static_cast<Stage>(i);
    const uint64_t n = count(stage);
    const uint64_t ns = nanos(stage);
    std::snprintf(line, sizeof(line), "%-12s %12llu %12.3f %10.0f %6.1f%%\n",
                  StageName(stage), static_cast<unsigned long long>(n),
                  static_cast<double>(ns) / 1e6,
                  n ? static_cast<double>(ns) / static_cast<double>(n) : 0.0,
                  total_ns ? 100.0 * static_cast<double>(ns) /
                                 static_cast<double>(total_ns)
                           : 0.0);
    out += line;
  }
  return out;
}

}  // namespace obs
}  // namespace cloudcache
