#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/baseline/bypass_yield.h"
#include "src/baseline/scheme.h"
#include "src/catalog/schema.h"
#include "src/cluster/cluster.h"
#include "src/query/templates.h"
#include "src/sim/metrics.h"
#include "src/sim/simulator.h"
#include "src/workload/generator.h"

namespace cloudcache {

/// Multi-tenant shape of an experiment: how many concurrent query streams
/// share the scheme's one cache, and how the streams differ.
struct TenancyOptions {
  /// Concurrent tenants. 1 = the paper's single stream, on exactly the
  /// pre-tenancy code path (unless force_event_path below).
  uint32_t tenants = 1;
  /// Zipf skew of per-tenant traffic shares (tenant 0 hottest; 0 = equal
  /// split). The aggregate offered load is held at the base interarrival
  /// rate and redistributed, so cross-tenant contention — not extra load —
  /// is what changes with skew.
  double traffic_skew = 0.0;
  /// Rotate each tenant's template-popularity ranking by its id, giving
  /// every tenant a distinct hot set from the same template pool.
  bool rotate_template_mix = true;
  /// Force the event-driven multi-tenant simulator even for tenants == 1.
  /// The merged schedule of one stream is the single stream, so metrics
  /// must be bit-identical either way — this knob exists so tests (and
  /// bisections) can pin that equivalence.
  bool force_event_path = false;

  // --- Tenant-fairness policies (both off by default = the PR 3
  // behavior, bit for bit). They apply only on the multi-tenant path;
  // tune their knobs (ratios, slack, windows) through
  // ExperimentConfig::customize_econ like every other economy knob.

  /// Weigh maintenance-failure eviction and candidate-pool aging by how
  /// broadly each structure's backing regret spreads over tenants
  /// (EconomyOptions::tenant_weighted_eviction).
  bool fair_eviction = false;
  /// Throttle tenants whose unmonetized regret outruns their revenue
  /// (EconomyOptions::admission.enabled; see AdmissionController).
  bool admission = false;

  /// Per-tenant budget-shape overrides (heterogeneous users): scales the
  /// budget synthesizer's price/tmax multipliers for the named tenants.
  /// Applies only on the multi-tenant path, like the policies above;
  /// empty keeps every tenant on the one shared shape, bit for bit.
  std::vector<TenantBudgetShape> tenant_budgets;
};

/// A full experiment: one scheme driven by one workload configuration.
struct ExperimentConfig {
  SchemeKind scheme = SchemeKind::kEconCheap;
  WorkloadOptions workload;
  TenancyOptions tenancy;
  /// Cluster shape: node count, elasticity, node rent. The defaults
  /// (one node, elastic off) run the pre-cluster single-node path,
  /// bit for bit.
  ClusterOptions cluster;
  SimulatorOptions sim;
  /// Decision prices for the economy schemes (bypass-yield always decides
  /// at network-only prices regardless).
  PriceList decision_prices = PriceList::AmazonEc2_2009();
  /// Advisor pool size ("65 potentially useful indexes", Section VII-A).
  size_t index_candidates = 65;
  /// Ablation hooks: mutate the scheme configuration before construction.
  /// Applied only when the experiment's scheme is of the matching kind.
  std::function<void(EconScheme::Config&)> customize_econ;
  std::function<void(BypassYieldScheme::Options&)> customize_bypass;
  /// Structured economic event trace (observability-only; null = off).
  /// Not owned; must outlive the run. Excluded from HashExperimentConfig —
  /// tracing never changes a result. Record order is deterministic only
  /// on serial drivers; callers should refuse to combine a tracer with
  /// worker threads (cloudcache_sim does).
  obs::EventTracer* tracer = nullptr;
  uint64_t seed = 7;
};

/// Which drivers and scheme graph an experiment runs on. Computed once
/// here, so the simulator wiring, the scheme builder and cloudcached
/// always agree.
struct DriverShape {
  /// Tenant streams merged by the multi-tenant Simulator, which keeps
  /// per-tenant slices (tenants > 1, or force_event_path).
  bool multi_tenant = false;
  /// A ClusterScheme over per-node economies (nodes > 1, elastic, or
  /// force_cluster_path).
  bool clustered = false;
  /// The windowed ParallelNodeSimulator: clustered single-stream runs
  /// with worker threads. The multi-tenant merge is a serial discipline
  /// by construction, so it never runs windowed.
  bool windowed = false;
};
DriverShape ExperimentDriverShape(const ExperimentConfig& config);

/// Derives tenant `t`'s workload options from the base stream and the
/// tenancy shape: tenant 0 keeps the base seed (the classic stream),
/// tenant t >= 1 draws seed MixSeed(base.seed, t); every tenant's
/// interarrival is the base divided by its Zipf traffic share (so the
/// shares sum to the base rate); the template mix rotates by tenant id
/// when rotate_template_mix is set. Pure function of its arguments —
/// per-tenant streams are bit-identical for any thread count or tenant
/// evaluation order.
WorkloadOptions TenantWorkloadOptions(const WorkloadOptions& base,
                                      const TenancyOptions& tenancy,
                                      uint32_t tenant);

/// The workload generators RunExperiment drives, one per stream: tenant
/// t's TenantWorkloadOptions on the multi-tenant shape, otherwise the one
/// base stream. cloudcached's twins and loadgen's generators are built
/// here too, so all three draw the identical streams.
std::vector<std::unique_ptr<WorkloadGenerator>> MakeExperimentStreams(
    const Catalog& catalog, const std::vector<ResolvedTemplate>& resolved,
    const ExperimentConfig& config);

/// Builds the exact scheme graph RunExperiment drives: the per-node
/// economies (ordinal 0 carries config.seed — the classic scheme — while
/// rented/extra nodes derive salted seeds from their ordinal), tenancy
/// provisioning on the event path (tenant identities, fairness policies,
/// per-tenant budget shapes), and the ClusterScheme wrapper whenever the
/// cluster options ask for one. Exposed so cloudcached hosts the
/// identical object graph the simulator's equivalence tests pin.
/// `catalog`, `indexes`, and `config` (its decision_prices in particular)
/// must outlive the returned scheme.
std::unique_ptr<Scheme> MakeExperimentScheme(
    const Catalog& catalog, const std::vector<StructureKey>& indexes,
    const ExperimentConfig& config);

/// Runs one experiment end to end: resolve templates, recommend indexes,
/// build the scheme, generate the workload (per tenant when
/// config.tenancy asks for more than one stream), simulate, return
/// metrics.
SimMetrics RunExperiment(const Catalog& catalog,
                         const std::vector<QueryTemplate>& templates,
                         const ExperimentConfig& config);

/// Deterministic 64-bit hash over every configuration field that shapes a
/// run's results, stamped into snapshot headers so a checkpoint can only
/// be restored into the identical experiment. Excludes
/// SimulatorOptions::parallel_threads (any worker count produces the same
/// bits, by the determinism invariant) and the checkpoint controls
/// themselves. The customize_econ/customize_bypass hooks cannot be
/// hashed; a run using them must supply the identical hooks on restore.
uint64_t HashExperimentConfig(const ExperimentConfig& config);

/// Checkpoint/restore-aware RunExperiment: honors
/// config.sim.checkpoint — periodic snapshots, crash injection (surfacing
/// as a kResourceExhausted Status), and restore-at-startup. With
/// Restore::kAuto a missing, corrupt, or mismatched snapshot degrades to
/// a fresh run (the object graph is rebuilt from scratch first, so a
/// partial restore never leaks into the fresh run); a snapshot that exists
/// but is refused is first reported on stderr and kept as
/// `<path>.refused` (persist::SetAsideRefusedSnapshot). Restore::kHard
/// fails loudly instead. With checkpointing off this is RunExperiment,
/// bit for bit.
Result<SimMetrics> RunExperimentChecked(
    const Catalog& catalog, const std::vector<QueryTemplate>& templates,
    const ExperimentConfig& config);

/// Runs the same workload against all four schemes of Section VII-A.
std::vector<SimMetrics> RunAllSchemes(
    const Catalog& catalog, const std::vector<QueryTemplate>& templates,
    ExperimentConfig config);

/// The four inter-arrival intervals of Figs. 4 and 5.
std::vector<double> PaperInterarrivals();

/// The four schemes in the paper's legend order.
std::vector<SchemeKind> PaperSchemes();

}  // namespace cloudcache
