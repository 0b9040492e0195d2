#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/baseline/scheme.h"
#include "src/cost/cost_model.h"
#include "src/cost/price_list.h"
#include "src/persist/snapshot.h"
#include "src/sim/metrics.h"
#include "src/util/status.h"
#include "src/workload/generator.h"

namespace cloudcache {

/// Checkpoint/restore controls (docs/persistence.md). All off by default,
/// leaving every existing run untouched.
struct CheckpointOptions {
  /// Write a snapshot after every N processed queries (0 disables). The
  /// classic drivers checkpoint exactly at multiples of N; the windowed
  /// parallel driver checkpoints at the first window close at or past
  /// each multiple (window closes are its only deterministic boundaries).
  /// The final boundary of a completed run is never checkpointed — a
  /// finished run's deliverable is its metrics, not a resume point.
  uint64_t every = 0;
  /// Snapshot file. Written atomically (temp file + rename); required
  /// whenever `every` > 0 or a restore is requested.
  std::string path;
  /// Crash injection: abort the run — no finalization, no snapshot write —
  /// at the first checkpoint boundary at or past this many processed
  /// queries (0 disables). The run returns a kResourceExhausted Status;
  /// recovery restores from the last snapshot `every` produced.
  uint64_t crash_after = 0;
  /// Hash of the deterministic experiment configuration, stamped into
  /// every snapshot header and verified on restore.
  uint64_t config_hash = 0;
  /// How to treat `path` at startup. kAuto degrades gracefully — a
  /// missing, corrupt, or mismatched snapshot falls back to a fresh run;
  /// kHard fails the run loudly instead.
  enum class Restore { kNone, kAuto, kHard };
  Restore restore = Restore::kNone;
};

/// Driver-mode tags stamped into a snapshot's "meta" section: restoring a
/// snapshot into a differently-shaped driver (e.g. a windowed-parallel
/// snapshot into the serial driver) is a configuration error, caught
/// before any state is overwritten.
inline constexpr uint8_t kDriverModeSingleStream = 0;
inline constexpr uint8_t kDriverModeMultiTenant = 1;
inline constexpr uint8_t kDriverModeWindowed = 2;

/// Simulation controls.
struct SimulatorOptions {
  /// Queries to drive through the scheme (the paper simulates ~1e6; the
  /// default keeps full four-scheme sweeps interactive).
  uint64_t num_queries = 50'000;
  /// Real infrastructure rates used for metering operating cost,
  /// regardless of what the scheme believes internally.
  PriceList metered_prices = PriceList::AmazonEc2_2009();
  /// Cumulative-cost / credit timelines are offered one point per this
  /// many queries (and the last query); each keeps at most
  /// TimeSeries::kDefaultCapacity of them, thinning evenly past that.
  uint64_t timeline_stride = 500;
  /// Rent of one rented cluster node (Scheme::RentedNodes) as a multiple
  /// of the node-reservation rate. Irrelevant — and never consulted — for
  /// single-node schemes, which rent no cluster nodes.
  double node_rent_multiplier = 1.0;
  /// Worker threads for the windowed parallel cluster driver
  /// (ParallelNodeSimulator in src/sim/node_parallel.h). 0 keeps the
  /// classic serial driver below; the experiment wiring routes clustered
  /// single-stream runs through the parallel driver when > 0.
  uint32_t parallel_threads = 0;
  /// Checkpoint/restore and crash injection (off by default).
  CheckpointOptions checkpoint;
};

/// Books one served-query outcome into a counter block. SimMetrics and
/// TenantMetrics intentionally share the names of every per-query
/// counter — response histogram included — so the run-wide aggregates and
/// a tenant slice stay in lockstep through this single accounting path.
/// Shared by the classic driver below and the windowed parallel driver
/// (src/sim/node_parallel.h), so both book outcomes identically.
template <typename Counters>
void AccountOutcome(const ServedQuery& served, Counters* c) {
  ++c->queries;
  if (served.served) {
    ++c->served;
    c->response_seconds.Add(served.execution.time_seconds);
    c->response_hist.Add(served.execution.time_seconds);
    if (served.spec.access == PlanSpec::Access::kBackend) {
      ++c->served_in_backend;
    } else {
      ++c->served_in_cache;
    }
    c->revenue += served.payment;
    c->profit += served.profit;
  }
  c->investments += served.investments;
  c->evictions += served.evictions;
  // Counts queries *served* while the tenant was throttled (the metric's
  // documented meaning); a declined query under a decline-configured
  // economy is already counted by the budget-case mix.
  if (served.served && served.throttled) ++c->throttled;
  if (served.has_budget_case) {
    switch (served.budget_case) {
      case BudgetCase::kCaseA:
        ++c->case_a;
        break;
      case BudgetCase::kCaseB:
        ++c->case_b;
        break;
      case BudgetCase::kCaseC:
        ++c->case_c;
        break;
    }
  }
}

// --- Per-query rules shared by the serial Simulator below and the
// windowed ParallelNodeSimulator (src/sim/node_parallel.h). Each rule is
// defined once here, so the drivers differ only in how they schedule
// queries, never in what a query costs or how a run is checkpointed.

/// Rent accrued over one metered gap, split for the metered breakdown.
struct RentAccrual {
  double disk_dollars = 0;
  double reservation_dollars = 0;  // Includes surcharge_dollars.
  double surcharge_dollars = 0;    // The rented-cluster-node portion.
};

/// Integrates one payer's rent between arrivals and charges it to the
/// payer's account. The serial driver keeps one meter for the whole
/// scheme; the windowed driver keeps one per cluster node.
struct RentMeter {
  /// Rent is integrated up to here.
  SimTime metered_until = 0;
  /// Rent not yet charged because it rounds below a micro-dollar.
  double pending_dollars = 0;

  /// Prices `payer`'s disk + node-reservation rent — plus the surcharge
  /// of `rented_nodes` rented cluster nodes — over [metered_until, now],
  /// advances the meter, and charges whatever has accumulated to a whole
  /// micro-dollar. Returns zero rent when `now` is not past the meter.
  RentAccrual Accrue(Scheme* payer, uint32_t rented_nodes, SimTime now,
                     const SimulatorOptions& options);

  /// Closes the books at run end: charges the sub-micro-dollar residue,
  /// rounded UP, at `at`. The metered breakdown already counted the exact
  /// fraction; without this, final credit would disagree with the
  /// operating-cost totals by the unbilled remainder.
  void Flush(Scheme* payer, SimTime at);
};

/// One query's metered execution + build bill.
struct MeteredBill {
  ResourceBreakdown dollars;
  uint64_t wan_bytes = 0;
};

/// Re-prices what `served` used at `prices` — the executed plan's
/// physical quantities through `metered`, plus the builds it triggered —
/// and charges the execution portion to `payer` at `now`. Builds are not
/// re-charged: economy schemes already paid them as investments, but they
/// are still part of the metered operating cost.
MeteredBill MeterBill(CostModel* metered, const PriceList& prices,
                      const Query& query, const ServedQuery& served,
                      Scheme* payer, SimTime now);

/// Books one query's rent, bill and outcome: the accounting half of the
/// per-query pipeline. Rent is shared-infrastructure spending, so it
/// lands only on the run-wide breakdown, never on `tenant` (may be null).
void BookQuery(const RentAccrual& rent, const MeteredBill& bill,
               const ServedQuery& served, SimMetrics* metrics,
               TenantMetrics* tenant);

/// Books rent that accrued outside any query (the windowed driver's
/// window-close sync).
void BookRent(const RentAccrual& rent, SimMetrics* metrics);

/// True when merged query `index` samples the cost and credit timelines.
bool TimelineSampleDue(const SimulatorOptions& options, uint64_t index);

/// Stamps the run-end figures every driver reports: final credit,
/// residency and extra nodes, the cluster shape, and — when the run keeps
/// tenant slices — each tenant's standing regret and the fairness
/// summary. Call after the residual rent is flushed.
void StampRunEnd(const Scheme& scheme, SimMetrics* metrics);

/// The checkpoint cadence. After the queries in (previous, processed]
/// were processed — one query on the serial driver, one window on the
/// windowed one — calls `write` if that span crossed a multiple of
/// `every`, then injects the configured crash at or past `crash_after`.
/// A completed run neither checkpoints nor crashes: nothing is left to
/// resume.
template <typename Write>
Status CheckpointStep(const CheckpointOptions& cp, uint64_t num_queries,
                      uint64_t previous, uint64_t processed,
                      const Write& write) {
  if (processed >= num_queries) return Status::OK();
  if (cp.every > 0 && processed / cp.every > previous / cp.every) {
    CLOUDCACHE_RETURN_IF_ERROR(write());
  }
  if (cp.crash_after > 0 && processed >= cp.crash_after) {
    return Status::ResourceExhausted(
        "crash injection stopped the run after " +
        std::to_string(processed) + " queries, before finalization");
  }
  return Status::OK();
}

/// What a driver puts in its snapshot, in the one section layout every
/// driver shares: "meta" (driver mode, processed count, run length,
/// scheme name), "driver" (the driver's own rent books), "workload"
/// (every stream generator), "scheme", and "metrics".
struct DriverSnapshot {
  uint8_t mode = kDriverModeSingleStream;
  uint64_t num_queries = 0;
  Scheme* scheme = nullptr;
  std::vector<WorkloadGenerator*> streams;
  /// Tenant slices the run's metrics must carry (0 = none).
  size_t tenant_slices = 0;
};

/// Writes `snap` at `processed` queries to `cp.path`, stamped with
/// `cp.config_hash`; `put_driver` fills the "driver" section.
Status WriteDriverSnapshot(
    const CheckpointOptions& cp, const DriverSnapshot& snap,
    uint64_t processed, const SimMetrics& metrics,
    const std::function<void(persist::Encoder*)>& put_driver);

/// Restores what WriteDriverSnapshot wrote into `snap`'s scheme, streams
/// and `metrics`; `read_driver` parses the "driver" section after the
/// scheme is restored. A snapshot of another configuration, driver mode,
/// run length or scheme is refused with a descriptive Status before any
/// state is overwritten; after any error the driver must be discarded.
/// Returns the processed count.
Result<uint64_t> RestoreDriverSnapshot(
    const persist::SnapshotReader& reader, const CheckpointOptions& cp,
    const DriverSnapshot& snap, SimMetrics* metrics,
    const std::function<Status(persist::Decoder*)>& read_driver);

/// Discrete-event driver: feeds a workload through a Scheme and meters
/// what the cloud actually pays (Fig. 4) and what users actually wait
/// (Fig. 5).
///
/// Metering is strictly at `metered_prices` on raw resource quantities —
/// CPU-seconds, WAN bytes, I/O ops from execution and builds, plus
/// byte-seconds of disk rent and reservation-seconds of extra CPU nodes
/// integrated between arrivals — so a scheme whose internal prices ignore
/// a resource (net-only) still pays for it here, exactly as in the paper's
/// evaluation.
///
/// One drive loop serves every stream count: each step draws the next
/// query from the stream MergeHead (src/sim/merge.h) picks and runs the
/// per-query pipeline on it. A single stream merges trivially.
class Simulator {
 public:
  /// Single-stream driver: the paper's evaluation loop. The run keeps no
  /// tenant slices.
  Simulator(const Catalog* catalog, Scheme* scheme,
            WorkloadGenerator* workload, SimulatorOptions options);

  /// Multi-tenant driver: merges the independent query streams in
  /// timestamp order (ties break by tenant id), so N tenants compete for
  /// the scheme's one cache under the shared economy. `workloads[t]` is
  /// tenant t's generator (it should carry WorkloadOptions::tenant_id =
  /// t); `options.num_queries` counts the merged total across tenants.
  /// Works for any N >= 1 — with one stream the merge degenerates to the
  /// single-stream schedule and the metrics are bit-identical to the
  /// single-stream constructor's (plus a one-entry `SimMetrics::tenants`
  /// slice).
  Simulator(const Catalog* catalog, Scheme* scheme,
            std::vector<WorkloadGenerator*> workloads,
            SimulatorOptions options);

  /// Runs the configured number of queries and returns the metrics.
  /// Asserts on checkpoint I/O failures and crash injection; the classic
  /// entry point for runs without checkpointing.
  SimMetrics Run();

  /// Checkpoint-aware run: writes snapshots at the configured cadence and
  /// honors crash injection (which surfaces as a kResourceExhausted
  /// Status — the run was intentionally abandoned before finalization).
  Result<SimMetrics> RunChecked();

  /// Restores mid-run state from a snapshot written by a prior
  /// checkpointed run. Must be called before RunChecked, on a freshly
  /// constructed simulator whose scheme and workload generators were
  /// built from the identical configuration. On error the simulator and
  /// scheme are unusable; discard both.
  Status RestoreFrom(const persist::SnapshotReader& reader);

  // --- External drive surface (src/server/). The caller owns the merge
  // loop — cloudcached feeds queries one at a time as they come off its
  // connections — while the per-query pipeline, the rent meter, and the
  // snapshot writer stay this class's. A server-driven sequence is
  // therefore bit-identical to Run() on the same merged stream, and its
  // checkpoints restore into either driver.

  /// Prepares an externally driven run: performs exactly the fresh-start
  /// initialization of the internal driver (scheme name, tenant slices,
  /// rent-meter origin at the earliest peeked arrival) — or, after
  /// RestoreFrom, adopts the interrupted run's accumulators and resume
  /// index. Call once, before the first ExternalServe.
  void ExternalBegin();

  /// Serves one query through the shared per-query pipeline at the next
  /// merge index. The caller must present queries in the same merged
  /// order the internal driver would produce (MergeHead) and must have
  /// drawn them from this simulator's own generators; in multi-tenant
  /// mode `query.tenant_id` selects the metrics slice. Returns the served
  /// outcome for the caller's reply.
  ServedQuery ExternalServe(const Query& query);

  /// Writes a snapshot at the current external boundary, through the same
  /// writer the internal driver uses. Refuses (kFailedPrecondition) once
  /// the run is complete — a finished run has nothing to resume — and
  /// requires a configured checkpoint path.
  Status ExternalCheckpoint() const;

  /// Queries served so far on the external path (includes the restored
  /// prefix after RestoreFrom + ExternalBegin).
  uint64_t external_processed() const { return external_processed_; }

  /// Accumulated metrics of the externally driven run. Finalization
  /// (residual-rent flush, final credit/fairness stamps) never runs on
  /// this path: a server's economy remains live until the process exits.
  const SimMetrics& external_metrics() const { return external_metrics_; }

  const SimulatorOptions& options() const { return options_; }

 private:
  /// The metrics a run starts from: fresh (scheme name, tenant slices,
  /// rent-meter origin at the earliest peeked arrival) or, after
  /// RestoreFrom, the interrupted run's accumulators.
  SimMetrics StartRun();
  /// This driver's snapshot layout (mode, streams, tenant slices).
  DriverSnapshot Snapshot() const;
  Status WriteSnapshot(uint64_t processed, const SimMetrics& metrics) const;
  /// The per-query pipeline every path shares, in this exact order so the
  /// paths stay bit-identical: meter rent up to `query.arrival_time`,
  /// serve the query, meter its execution + builds, account the outcome
  /// (into `tenant` too, when non-null), and sample the timelines at
  /// stride boundaries of the merged index `i`. Returns the outcome so
  /// the external drive can reply to its client.
  ServedQuery ProcessQuery(const Query& query, uint64_t i,
                           SimMetrics* metrics, TenantMetrics* tenant);

  Scheme* scheme_;
  std::vector<WorkloadGenerator*> streams_;
  /// Multi-tenant constructor: per-tenant metrics slices, regret and
  /// fairness stamps.
  bool tenant_slices_ = true;
  SimulatorOptions options_;
  CostModel metered_model_;
  RentMeter rent_;
  /// Restore bookkeeping: the query index to resume at and the metrics
  /// accumulated by the interrupted run (adopted by StartRun).
  uint64_t start_index_ = 0;
  bool restored_ = false;
  SimMetrics restored_metrics_;
  /// External-drive accumulators (ExternalBegin/ExternalServe above);
  /// untouched by the internal driver.
  uint64_t external_processed_ = 0;
  SimMetrics external_metrics_;
};

}  // namespace cloudcache
