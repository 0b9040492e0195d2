#include "src/cache/maintenance.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "src/util/logging.h"

namespace cloudcache {

void MaintenanceLedger::Register(StructureId id, const StructureKey& key,
                                 SimTime now, Money build_cost,
                                 double failure_scale) {
  CLOUDCACHE_CHECK(!IsTracked(id));
  CLOUDCACHE_CHECK_GE(failure_scale, 1.0);
  Track(id, Clock{key, now, build_cost, failure_scale,
                  StructureBytes(model_->catalog(), key)});
}

void MaintenanceLedger::Track(StructureId id, Clock clock) {
  clock.failure_gap = FailureGap(clock);
  next_due_ = std::min(next_due_, Deadline(clock));
  clocks_.emplace(id, std::move(clock));
}

double MaintenanceLedger::FailureGap(const Clock& clock) const {
  const double rate = model_->MaintenanceRate(clock.key, clock.bytes);
  if (!(rate > 0.0)) return std::numeric_limits<double>::infinity();
  // The economy's threshold, computed the way it does: the recorded build
  // cost, or — for a companion column recorded at zero — the structure's
  // own build cost, which for columns and CPU nodes does not depend on
  // residency. A zero-cost index's would, so it keeps the floor of zero.
  Money build_cost = clock.build_cost;
  if (build_cost.IsZero()) {
    if (clock.key.type == StructureType::kColumn) {
      build_cost = model_->ColumnBuildCost(clock.key.columns.front());
    } else if (clock.key.type == StructureType::kCpuNode) {
      build_cost = model_->CpuNodeBuildCost();
    }
  }
  Money threshold = build_cost * rule_.fraction;
  if (rule_.scaled && clock.failure_scale != 1.0) {
    threshold = threshold * clock.failure_scale;
  }
  // Owed rounds the rent to whole micro-dollars, so it first exceeds a
  // threshold of T micros once the unrounded rent reaches T + 0.5 (and it
  // must also be non-zero, hence the clamp). The relative margin absorbs
  // the difference between rate * gap and the pricer's own floating-point
  // evaluation of the same product.
  constexpr double kMargin = 1e-6;
  const double micros =
      static_cast<double>(std::max<int64_t>(threshold.micros(), 0)) + 0.5;
  return micros / (rate * 1e6) * (1.0 - kMargin);
}

SimTime MaintenanceLedger::Deadline(const Clock& clock) {
  // The last term covers the rounding of paid_until + gap here and of
  // now - paid_until in the pricer, which scale with the clock's time
  // rather than with the gap.
  return clock.paid_until + clock.failure_gap -
         std::abs(clock.paid_until) * 1e-12;
}

void MaintenanceLedger::CollectDue(SimTime now,
                                   std::vector<StructureId>* due) const {
  due->clear();
  for (const auto& [id, clock] : clocks_) {
    if (Deadline(clock) <= now) due->push_back(id);
  }
  std::sort(due->begin(), due->end());
}

void MaintenanceLedger::RefreshNextDue() {
  next_due_ = std::numeric_limits<SimTime>::infinity();
  for (const auto& entry : clocks_) {
    next_due_ = std::min(next_due_, Deadline(entry.second));
  }
}

double MaintenanceLedger::FailureScale(StructureId id) const {
  auto it = clocks_.find(id);
  return it == clocks_.end() ? 1.0 : it->second.failure_scale;
}

Money MaintenanceLedger::BuildCostOf(StructureId id) const {
  auto it = clocks_.find(id);
  CLOUDCACHE_CHECK(it != clocks_.end());
  return it->second.build_cost;
}

Money MaintenanceLedger::Unregister(StructureId id, SimTime now) {
  auto it = clocks_.find(id);
  CLOUDCACHE_CHECK(it != clocks_.end());
  const Money written_off =
      PriceGap(it->second, std::max(0.0, now - it->second.paid_until));
  clocks_.erase(it);
  return written_off;
}

Money MaintenanceLedger::Owed(StructureId id, SimTime now) const {
  auto it = clocks_.find(id);
  CLOUDCACHE_CHECK(it != clocks_.end());
  return PriceGap(it->second, std::max(0.0, now - it->second.paid_until));
}

Money MaintenanceLedger::OwedCapped(StructureId id, SimTime now,
                                    double cap_seconds) const {
  auto it = clocks_.find(id);
  CLOUDCACHE_CHECK(it != clocks_.end());
  const double gap = std::max(0.0, now - it->second.paid_until);
  return PriceGap(it->second, std::min(gap, cap_seconds));
}

Money MaintenanceLedger::Pay(StructureId id, SimTime now,
                             double cap_seconds) {
  auto it = clocks_.find(id);
  CLOUDCACHE_CHECK(it != clocks_.end());
  const double gap = std::max(0.0, now - it->second.paid_until);
  const double covered = std::min(gap, cap_seconds);
  const Money collected = PriceGap(it->second, covered);
  it->second.paid_until += covered;
  return collected;
}

void MaintenanceLedger::SaveState(persist::Encoder* enc) const {
  std::vector<StructureId> ids;
  ids.reserve(clocks_.size());
  for (const auto& [id, clock] : clocks_) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  enc->PutU64(ids.size());
  for (StructureId id : ids) {
    const Clock& clock = clocks_.at(id);
    enc->PutU32(id);
    enc->PutDouble(clock.paid_until);
    enc->PutMoney(clock.build_cost);
    enc->PutDouble(clock.failure_scale);
  }
}

Status MaintenanceLedger::RestoreState(persist::Decoder* dec,
                                       const StructureRegistry& registry) {
  clocks_.clear();
  next_due_ = std::numeric_limits<SimTime>::infinity();
  uint64_t count = 0;
  CLOUDCACHE_RETURN_IF_ERROR(dec->ReadLength(&count));
  for (uint64_t i = 0; i < count; ++i) {
    StructureId id = 0;
    CLOUDCACHE_RETURN_IF_ERROR(dec->ReadU32(&id));
    if (id >= registry.size()) {
      return Status::InvalidArgument(
          "snapshot maintenance clock references an unknown structure");
    }
    if (clocks_.count(id) > 0) {
      return Status::InvalidArgument(
          "snapshot maintenance ledger repeats structure id " +
          std::to_string(id));
    }
    Clock clock;
    clock.key = registry.key(id);
    CLOUDCACHE_RETURN_IF_ERROR(dec->ReadDouble(&clock.paid_until));
    CLOUDCACHE_RETURN_IF_ERROR(dec->ReadMoney(&clock.build_cost));
    CLOUDCACHE_RETURN_IF_ERROR(dec->ReadDouble(&clock.failure_scale));
    if (!(clock.failure_scale >= 1.0)) {
      return Status::InvalidArgument(
          "snapshot maintenance clock has a failure scale below 1.0");
    }
    clock.bytes = registry.bytes(id);
    Track(id, std::move(clock));
  }
  return Status::OK();
}

}  // namespace cloudcache
