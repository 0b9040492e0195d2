#pragma once

#include <limits>
#include <unordered_map>
#include <vector>

#include "src/cost/cost_model.h"
#include "src/persist/codec.h"
#include "src/structure/structure.h"
#include "src/util/money.h"
#include "src/util/units.h"

namespace cloudcache {

/// Per-structure maintenance accrual and repayment clock (footnote 3 of
/// the paper):
///
///   "As soon as a structure is built in the cache, the query plans that
///    are selected for execution and employ this structure, pay also for
///    its maintenance cost. Each newly selected query plan pays for the
///    accumulated maintenance cost from the time point of the previous
///    query plan that payed off the previously accumulated maintenance
///    cost. Excessive maintenance cost of a structure due to non-usage …
///    can be the reason of structure failure."
///
/// The ledger tracks, for every built structure, the time up to which its
/// maintenance has been repaid by user charges. `Owed()` prices the gap at
/// the decision cost model's rates; `Pay()` advances the clock. The
/// economy evicts structures whose owed rent exceeds a failure threshold.
///
/// Invariant notes: clocks exist exactly for structures between Register
/// and Unregister (the economy keeps this aligned with pending + resident
/// structures); `failure_scale` is policy metadata the economy stamps at
/// build time (tenant-aware eviction widens the failure threshold of
/// broadly-backed structures) and defaults to 1.0, in which case the
/// failure test is byte-for-byte the pre-tenancy one.
///
/// Failure deadlines. Each clock's failure threshold is fixed when it is
/// registered, and its owed rent only grows with the unpaid gap, so every
/// clock carries a conservative earliest-failure time: `paid_until` plus
/// the shortest gap whose rent could exceed the threshold, less a small
/// margin. Pay only moves a deadline later, so `NextDue()` — the earliest
/// deadline as of the last Register or RefreshNextDue — stays a lower
/// bound on every deadline until the economy refreshes it. Deadlines are
/// derived state: they are never saved, and RestoreState rebuilds them.
class MaintenanceLedger {
 public:
  /// The economy's failure rule (footnote 3), restated so the ledger can
  /// date each clock's earliest possible failure; the ledger itself never
  /// evicts anything.
  struct FailureRule {
    /// EconomyOptions::maintenance_failure_fraction.
    double fraction = 0.0;
    /// Whether the stamped failure_scale widens the threshold
    /// (EconomyOptions::tenant_weighted_eviction).
    bool scaled = false;
  };

  explicit MaintenanceLedger(const CostModel* model) : model_(model) {}
  MaintenanceLedger(const CostModel* model, FailureRule rule)
      : model_(model), rule_(rule) {}

  /// Starts the clock for a freshly built structure. `build_cost` is
  /// retained as the reference for the failure threshold (a structure
  /// fails when unpaid rent reaches a fraction of what it cost to build);
  /// `failure_scale` multiplies that threshold (>= 1 grants slack, 1.0 is
  /// the classic letter of footnote 3).
  void Register(StructureId id, const StructureKey& key, SimTime now,
                Money build_cost, double failure_scale = 1.0);

  /// The failure-threshold scale recorded at Register time (1.0 if the
  /// structure is untracked).
  double FailureScale(StructureId id) const;

  /// The build cost recorded at Register time.
  Money BuildCostOf(StructureId id) const;

  /// Stops tracking an evicted structure. Returns the rent that was never
  /// repaid (the cloud's write-off).
  Money Unregister(StructureId id, SimTime now);

  /// Rent accrued since the last payment, priced by the decision model.
  Money Owed(StructureId id, SimTime now) const;

  /// Rent owed, capped at `cap_seconds` worth of rent. This is what one
  /// selected plan is surcharged: recovering an arbitrarily long idle
  /// backlog from a single query would price the structure out of the
  /// market forever (and the cloud would still owe the rent) — the
  /// backlog is instead recovered a capped slice per use, and a structure
  /// whose backlog keeps growing anyway fails per footnote 3.
  Money OwedCapped(StructureId id, SimTime now, double cap_seconds) const;

  /// Collects up to `cap_seconds` worth of owed rent and advances the
  /// paid-until clock by the covered duration. Returns the collection.
  Money Pay(StructureId id, SimTime now,
            double cap_seconds = kNoCapSeconds);

  static constexpr double kNoCapSeconds = 1e300;

  bool IsTracked(StructureId id) const { return clocks_.count(id) > 0; }

  /// No clock can fail before this time: the failure scan may skip any
  /// call with `now < NextDue()`.
  SimTime NextDue() const { return next_due_; }

  /// The ids whose failure deadline is at or before `now`, ascending.
  /// Only these can have failed; every other clock is certain not to.
  void CollectDue(SimTime now, std::vector<StructureId>* due) const;

  /// Recomputes NextDue() as the earliest deadline of the current clocks
  /// (+infinity when none can ever fail).
  void RefreshNextDue();

  /// Checkpoint support: clocks are saved sorted by id (the map itself has
  /// no deterministic order); restore rederives each clock's key and byte
  /// footprint from the registry, so a snapshot can never resurrect a
  /// clock for a structure this run does not know.
  void SaveState(persist::Encoder* enc) const;
  Status RestoreState(persist::Decoder* dec,
                      const StructureRegistry& registry);

 private:
  struct Clock {
    StructureKey key;
    SimTime paid_until = 0;
    Money build_cost;
    double failure_scale = 1.0;
    /// StructureBytes(catalog, key), computed once at Register so the
    /// per-query rent pricers skip the catalog walk (the footprint of a
    /// registered structure never changes).
    uint64_t bytes = 0;
    /// Unpaid seconds this clock can run without failing (see FailureGap).
    double failure_gap = 0.0;
  };

  /// Rent accrued over `gap` seconds, priced through the cached footprint.
  Money PriceGap(const Clock& clock, double gap) const {
    return model_->MaintenanceCostSized(clock.key, clock.bytes, gap);
  }

  /// A lower bound on the unpaid seconds after which the clock's rent can
  /// exceed its failure threshold (+infinity at a zero rent rate).
  double FailureGap(const Clock& clock) const;

  /// The clock's earliest possible failure time.
  static SimTime Deadline(const Clock& clock);

  /// Caches the footprint and failure gap of a freshly filled clock and
  /// lowers NextDue() to its deadline.
  void Track(StructureId id, Clock clock);

  const CostModel* model_;
  FailureRule rule_;
  std::unordered_map<StructureId, Clock> clocks_;
  SimTime next_due_ = std::numeric_limits<SimTime>::infinity();
};

}  // namespace cloudcache
