#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/cost/cost_model.h"
#include "src/sim/metrics.h"
#include "src/sim/simulator.h"
#include "src/util/money.h"
#include "src/util/thread_pool.h"
#include "src/workload/generator.h"

namespace cloudcache {

/// Windowed parallel driver for cluster schemes: the intra-run analogue of
/// RunSweep's across-run parallelism.
///
/// Between scale events a cluster's nodes are fully independent economies
/// — PR 5 made every ledger, cache, and RNG node-local — so the only
/// serial couplings in the classic driver are (a) routing, which reads
/// every node's residency, and (b) the shared rent meter. This driver
/// removes both with a windowed discipline:
///
///   1. Draw one window of queries (the elasticity check interval) and
///      route ALL of them against the window-start residencies — nothing
///      has served yet, so every route sees the same frozen snapshot no
///      matter how the work is later scheduled.
///   2. Run each node's slice as one ThreadPool task. A task touches only
///      its own node: its scheme, its traffic counters, its rent books
///      (rent is metered per node on the node's own resident bytes over
///      the node's own arrival gaps, charged to the node's account — the
///      same RentMeter the serial driver keeps once for the whole scheme).
///   3. Merge per-query records back in global arrival order — metrics,
///      quantile sketches, and timelines accumulate in that one fixed
///      order — then close the window serially: sync every node's rent to
///      the window-close instant and run the elasticity controller
///      exactly where the serial path would have (full check intervals).
///
/// Determinism: the window partition is a pure function of (stream,
/// window-start residencies); each slice runs in arrival order within its
/// task; the merge and window close are serial in fixed order. No step
/// depends on thread scheduling, so results are bit-identical for ANY
/// worker count — the same discipline that makes RunSweep safe.
///
/// Equivalence pins (tests/integration/parallel_driver_test.cpp):
///   - any two worker counts produce bit-identical SimMetrics;
///   - a one-node cluster is bit-identical to the classic serial
///     Simulator driving the plain scheme: routing is trivial, the one
///     node's rent books ARE the global books, and every merge step
///     replays the classic per-query sequence in the same order.
/// Multi-node runs follow the windowed discipline by definition (routing
/// against window-start snapshots, per-node rent), which the serial
/// classic path — routing every query against live mid-window residencies
/// — intentionally does not; the two are documented as different
/// schedules of the same economy, not bit-equal.
class ParallelNodeSimulator {
 public:
  /// Drives `workload` (single stream) through `cluster` with
  /// `options.parallel_threads` workers (clamped to at least one).
  ParallelNodeSimulator(const Catalog* catalog, ClusterScheme* cluster,
                        WorkloadGenerator* workload,
                        SimulatorOptions options);

  /// Runs the configured number of queries and returns the metrics.
  /// Asserts on checkpoint I/O failures and crash injection.
  SimMetrics Run();

  /// Checkpoint-aware run (see Simulator::RunChecked). This driver's only
  /// deterministic boundaries are window closes, so snapshots land at the
  /// first window close at or past each multiple of
  /// CheckpointOptions::every — full windows only, so a resumed run's
  /// window partition is identical to the uninterrupted run's.
  Result<SimMetrics> RunChecked();

  /// Restores mid-run state from a snapshot written by a prior windowed
  /// checkpointed run; must be called before RunChecked on a freshly
  /// constructed driver + cluster built from the identical configuration.
  Status RestoreFrom(const persist::SnapshotReader& reader);

 private:
  /// One query's full outcome, filled by the owning node's slice task and
  /// merged serially in global arrival order.
  struct QueryRecord {
    Query query;
    uint64_t index = 0;  // Global arrival index.
    size_t node = 0;     // Routed node (window-start snapshot).
    ServedQuery served;
    // Rent accrued at this arrival on the serving node and the metered
    // execution + build bill, both already charged to its account by the
    // task; booked into the run metrics in arrival order.
    RentAccrual rent;
    MeteredBill bill;
    // Node credit after this query settled — lets the merge reconstruct
    // the fleet-wide credit timeline at any global index.
    Money credit_after;
  };

  /// Driver-side per-node rent meter and credit mirror.
  struct NodeBooks {
    /// The node's own rent meter (the classic driver keeps one global
    /// meter).
    RentMeter rent;
    /// The node's credit after its last merged effect.
    Money credit;
  };

  /// Serves node `index`'s slice of the current window, in arrival order.
  /// Runs on a pool worker; touches only node-`index` state.
  void ServeSlice(size_t index, QueryRecord* const* records, size_t count);

  /// Meters node `index`'s rent up to `now` on its own books. Every node
  /// beyond the coordinator is a rented cluster node and pays its own
  /// surcharge over its own metered gaps (the classic driver bills the
  /// fleet-wide surcharge to whichever node served last). Called from
  /// slice tasks (distinct nodes only) and the serial window-close sync.
  RentAccrual AccrueNodeRent(size_t index, SimTime now);

  /// Books one record into the run metrics. Serial, global arrival order.
  void MergeRecord(const QueryRecord& rec, SimMetrics* metrics);

  /// Meters every node's rent up to the window-close instant (idle nodes
  /// pay for the whole window here) and refreshes the credit mirrors.
  void SyncRentTo(SimTime close, SimMetrics* metrics);

  /// Re-aligns the per-node books and metered models after a scale event.
  void ApplyFleetChange(const ClusterScheme::WindowEnd& end, SimTime close);

  /// This driver's snapshot layout (the windowed mode, one stream).
  DriverSnapshot Snapshot() const;
  Status WriteSnapshot(uint64_t processed, const SimMetrics& metrics) const;

  const Catalog* catalog_;
  ClusterScheme* cluster_;
  WorkloadGenerator* workload_;
  SimulatorOptions options_;
  ThreadPool pool_;
  std::vector<NodeBooks> books_;
  /// One metered CostModel per node, so concurrent slice tasks never
  /// share estimator scratch.
  std::vector<std::unique_ptr<CostModel>> metered_models_;
  SimTime last_close_ = 0;
  /// Restore bookkeeping (see Simulator).
  uint64_t start_processed_ = 0;
  bool restored_ = false;
  SimMetrics restored_metrics_;
};

}  // namespace cloudcache
