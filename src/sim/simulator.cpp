#include "src/sim/simulator.h"

#include <cmath>
#include <string>
#include <utility>

#include "src/persist/metrics_io.h"
#include "src/sim/merge.h"
#include "src/util/logging.h"

namespace cloudcache {

RentAccrual RentMeter::Accrue(Scheme* payer, uint32_t rented_nodes,
                              SimTime now, const SimulatorOptions& options) {
  RentAccrual rent;
  const double dt = now - metered_until;
  if (dt <= 0) return rent;
  metered_until = now;
  const PriceList& p = options.metered_prices;

  // Rent is metered in double dollars: per-interval amounts on small
  // configurations can be far below one micro-dollar, and rounding each
  // interval through Money would silently zero them out. The quantities
  // come through the payer's cluster-aware totals, so a multi-node scheme
  // pays for every node it operates; single-node schemes report their one
  // cache and the arithmetic is exactly the pre-cluster path.
  rent.disk_dollars = static_cast<double>(payer->TotalResidentBytes()) * dt *
                      p.disk_byte_second_dollars;
  rent.reservation_dollars =
      static_cast<double>(payer->TotalExtraCpuNodes()) * dt *
      p.cpu_second_dollars * p.cpu_reserve_fraction;
  // Rented cluster nodes (beyond the always-on coordinator) bill at the
  // reservation rate scaled by the cluster's rent multiplier.
  if (rented_nodes > 0) {
    rent.surcharge_dollars = static_cast<double>(rented_nodes) * dt *
                             p.cpu_second_dollars * p.cpu_reserve_fraction *
                             options.node_rent_multiplier;
    rent.reservation_dollars += rent.surcharge_dollars;
  }
  // The account charge accumulates fractional micro-dollars and releases
  // them once they round to something chargeable.
  pending_dollars += rent.disk_dollars + rent.reservation_dollars;
  const Money charge = Money::FromDollars(pending_dollars);
  if (!charge.IsZero()) {
    pending_dollars -= charge.ToDollars();
    payer->ChargeExpenditure(charge, now);
  }
  return rent;
}

void RentMeter::Flush(Scheme* payer, SimTime at) {
  if (pending_dollars <= 0) return;
  // Round up: the cloud never forgives a fraction it already metered. The
  // overcharge is bounded by one micro-dollar per meter, in the account's
  // favor.
  const Money charge = Money::FromMicros(
      static_cast<int64_t>(std::ceil(pending_dollars * 1e6)));
  pending_dollars = 0;
  if (!charge.IsZero()) payer->ChargeExpenditure(charge, at);
}

MeteredBill MeterBill(CostModel* metered, const PriceList& p,
                      const Query& query, const ServedQuery& served,
                      Scheme* payer, SimTime now) {
  MeteredBill bill;
  Money charged;
  if (served.served) {
    // Re-price the executed plan's raw resource usage at metered rates.
    // The estimate stored in `served` was computed under the scheme's own
    // price list, but its physical quantities (seconds, ops, bytes) are
    // price-independent.
    const ExecutionEstimate m = metered->EstimateExecution(query, served.spec);
    bill.dollars.cpu_dollars += p.CpuCost(m.cpu_seconds).ToDollars();
    bill.dollars.io_dollars += p.IoCost(m.io_ops).ToDollars();
    bill.dollars.network_dollars += p.NetworkCost(m.wan_bytes).ToDollars();
    charged += p.CpuCost(m.cpu_seconds) + p.IoCost(m.io_ops) +
               p.NetworkCost(m.wan_bytes);
    bill.wan_bytes += m.wan_bytes;
  }
  const BuildUsage& usage = served.build_usage;
  if (usage.cpu_seconds > 0 || usage.wan_bytes > 0 || usage.io_ops > 0) {
    bill.dollars.cpu_dollars += p.CpuCost(usage.cpu_seconds).ToDollars();
    bill.dollars.network_dollars += p.NetworkCost(usage.wan_bytes).ToDollars();
    bill.dollars.io_dollars += p.IoCost(usage.io_ops).ToDollars();
    bill.wan_bytes += usage.wan_bytes;
  }
  if (!charged.IsZero()) payer->ChargeExpenditure(charged, now);
  return bill;
}

void BookRent(const RentAccrual& rent, SimMetrics* metrics) {
  if (rent.surcharge_dollars > 0) {
    metrics->cluster.node_rent_dollars += rent.surcharge_dollars;
  }
  metrics->operating_cost.disk_dollars += rent.disk_dollars;
  metrics->operating_cost.cpu_dollars += rent.reservation_dollars;
}

void BookQuery(const RentAccrual& rent, const MeteredBill& bill,
               const ServedQuery& served, SimMetrics* metrics,
               TenantMetrics* tenant) {
  BookRent(rent, metrics);
  metrics->operating_cost += bill.dollars;
  metrics->wan_bytes += bill.wan_bytes;
  AccountOutcome(served, metrics);
  if (tenant != nullptr) {
    tenant->operating_cost += bill.dollars;
    tenant->wan_bytes += bill.wan_bytes;
    AccountOutcome(served, tenant);
  }
}

bool TimelineSampleDue(const SimulatorOptions& options, uint64_t index) {
  return options.timeline_stride != 0 &&
         (index % options.timeline_stride == 0 ||
          index + 1 == options.num_queries);
}

void StampRunEnd(const Scheme& scheme, SimMetrics* metrics) {
  metrics->final_credit = scheme.credit();
  metrics->final_resident_bytes = scheme.TotalResidentBytes();
  metrics->final_extra_nodes = scheme.TotalExtraCpuNodes();
  // Cluster shape, if the scheme operates one (the no-op default leaves
  // single-node runs without a cluster footprint).
  scheme.DescribeCluster(&metrics->cluster);
  if (metrics->tenants.empty()) return;
  for (size_t t = 0; t < metrics->tenants.size(); ++t) {
    metrics->tenants[t].final_regret =
        scheme.TenantRegret(static_cast<uint32_t>(t));
  }
  metrics->fairness = ComputeFairness(metrics->tenants);
}

namespace {

const char* DriverModeName(uint8_t mode) {
  static const char* const kNames[] = {"single-stream", "multi-tenant",
                                       "windowed parallel"};
  return mode <= kDriverModeWindowed ? kNames[mode] : "unknown";
}

}  // namespace

Status WriteDriverSnapshot(
    const CheckpointOptions& cp, const DriverSnapshot& snap,
    uint64_t processed, const SimMetrics& metrics,
    const std::function<void(persist::Encoder*)>& put_driver) {
  persist::SnapshotWriter writer(cp.config_hash);
  persist::Encoder* meta = writer.AddSection("meta");
  meta->PutU8(snap.mode);
  meta->PutU64(processed);
  meta->PutU64(snap.num_queries);
  meta->PutString(snap.scheme->name());
  put_driver(writer.AddSection("driver"));
  persist::Encoder* workload = writer.AddSection("workload");
  workload->PutU64(snap.streams.size());
  for (const WorkloadGenerator* stream : snap.streams) {
    stream->SaveState(workload);
  }
  snap.scheme->SaveState(writer.AddSection("scheme"));
  persist::SaveSimMetrics(metrics, writer.AddSection("metrics"));
  return writer.WriteToFile(cp.path);
}

Result<uint64_t> RestoreDriverSnapshot(
    const persist::SnapshotReader& reader, const CheckpointOptions& cp,
    const DriverSnapshot& snap, SimMetrics* metrics,
    const std::function<Status(persist::Decoder*)>& read_driver) {
  CLOUDCACHE_RETURN_IF_ERROR(reader.ExpectConfigHash(cp.config_hash));

  Result<persist::Decoder> meta = reader.Section("meta");
  CLOUDCACHE_RETURN_IF_ERROR(meta.status());
  uint8_t mode = 0;
  uint64_t processed = 0;
  uint64_t total = 0;
  std::string scheme_name;
  CLOUDCACHE_RETURN_IF_ERROR(meta->ReadU8(&mode));
  CLOUDCACHE_RETURN_IF_ERROR(meta->ReadU64(&processed));
  CLOUDCACHE_RETURN_IF_ERROR(meta->ReadU64(&total));
  CLOUDCACHE_RETURN_IF_ERROR(meta->ReadString(&scheme_name));
  CLOUDCACHE_RETURN_IF_ERROR(meta->ExpectEnd());
  if (mode != snap.mode) {
    return Status::FailedPrecondition(
        "snapshot was written by driver mode " + std::to_string(mode) +
        " (" + DriverModeName(mode) + ") but this run uses mode " +
        std::to_string(snap.mode) + " (" + DriverModeName(snap.mode) +
        "); check --tenants and --threads against the checkpointed run");
  }
  if (total != snap.num_queries) {
    return Status::FailedPrecondition(
        "snapshot run length " + std::to_string(total) +
        " does not match this run's " + std::to_string(snap.num_queries));
  }
  if (processed >= snap.num_queries) {
    return Status::FailedPrecondition(
        "snapshot claims more processed queries than the run length");
  }
  if (scheme_name != snap.scheme->name()) {
    return Status::FailedPrecondition(
        "snapshot was taken under scheme '" + scheme_name +
        "' but this run drives '" + snap.scheme->name() + "'");
  }

  // The scheme before the driver books: the windowed driver's books are
  // index-aligned with the restored fleet.
  Result<persist::Decoder> scheme = reader.Section("scheme");
  CLOUDCACHE_RETURN_IF_ERROR(scheme.status());
  CLOUDCACHE_RETURN_IF_ERROR(snap.scheme->RestoreState(&scheme.value()));
  CLOUDCACHE_RETURN_IF_ERROR(scheme->ExpectEnd());

  Result<persist::Decoder> driver = reader.Section("driver");
  CLOUDCACHE_RETURN_IF_ERROR(driver.status());
  CLOUDCACHE_RETURN_IF_ERROR(read_driver(&driver.value()));
  CLOUDCACHE_RETURN_IF_ERROR(driver->ExpectEnd());

  Result<persist::Decoder> workload = reader.Section("workload");
  CLOUDCACHE_RETURN_IF_ERROR(workload.status());
  uint64_t stream_count = 0;
  CLOUDCACHE_RETURN_IF_ERROR(workload->ReadLength(&stream_count));
  if (stream_count != snap.streams.size()) {
    return Status::FailedPrecondition(
        "snapshot has " + std::to_string(stream_count) +
        " workload streams but this run has " +
        std::to_string(snap.streams.size()));
  }
  for (WorkloadGenerator* stream : snap.streams) {
    CLOUDCACHE_RETURN_IF_ERROR(stream->RestoreState(&workload.value()));
  }
  CLOUDCACHE_RETURN_IF_ERROR(workload->ExpectEnd());

  Result<persist::Decoder> section = reader.Section("metrics");
  CLOUDCACHE_RETURN_IF_ERROR(section.status());
  *metrics = SimMetrics();
  CLOUDCACHE_RETURN_IF_ERROR(
      persist::RestoreSimMetrics(&section.value(), metrics));
  CLOUDCACHE_RETURN_IF_ERROR(section->ExpectEnd());
  if (metrics->tenants.size() != snap.tenant_slices) {
    return Status::FailedPrecondition(
        "snapshot metrics carry " + std::to_string(metrics->tenants.size()) +
        " tenant slices but this run has " +
        std::to_string(snap.tenant_slices));
  }
  return processed;
}

Simulator::Simulator(const Catalog* catalog, Scheme* scheme,
                     WorkloadGenerator* workload, SimulatorOptions options)
    : Simulator(catalog, scheme, std::vector<WorkloadGenerator*>{workload},
                std::move(options)) {
  tenant_slices_ = false;
}

Simulator::Simulator(const Catalog* catalog, Scheme* scheme,
                     std::vector<WorkloadGenerator*> workloads,
                     SimulatorOptions options)
    : scheme_(scheme),
      streams_(std::move(workloads)),
      options_(options),
      metered_model_(catalog, &options_.metered_prices) {
  CLOUDCACHE_CHECK(!streams_.empty());
  for (WorkloadGenerator* generator : streams_) {
    CLOUDCACHE_CHECK(generator != nullptr);
  }
}

ServedQuery Simulator::ProcessQuery(const Query& query, uint64_t i,
                                    SimMetrics* metrics,
                                    TenantMetrics* tenant) {
  const SimTime now = query.arrival_time;
  const RentAccrual rent =
      rent_.Accrue(scheme_, scheme_->RentedNodes(), now, options_);
  ServedQuery served = scheme_->OnQuery(query, now);
  const MeteredBill bill = MeterBill(&metered_model_, options_.metered_prices,
                                     query, served, scheme_, now);
  BookQuery(rent, bill, served, metrics, tenant);

  if (TimelineSampleDue(options_, i)) {
    metrics->cost_over_time.Add(now, metrics->operating_cost.Total());
    metrics->credit_over_time.Add(now, scheme_->credit().ToDollars());
  }
  return served;
}

SimMetrics Simulator::StartRun() {
  // A restored run continues the interrupted run's accumulators; its rent
  // meter was restored with them.
  if (restored_) return std::move(restored_metrics_);
  SimMetrics metrics;
  metrics.scheme_name = scheme_->name();
  if (tenant_slices_) {
    metrics.tenants.resize(streams_.size());
    for (size_t t = 0; t < metrics.tenants.size(); ++t) {
      metrics.tenants[t].tenant_id = static_cast<uint32_t>(t);
    }
  }
  const size_t first = MergeHead(streams_.size(), [this](size_t u) {
    return streams_[u]->PeekNextArrival();
  });
  rent_.metered_until = streams_[first]->PeekNextArrival();
  return metrics;
}

void Simulator::ExternalBegin() {
  external_metrics_ = StartRun();
  external_processed_ = start_index_;
}

ServedQuery Simulator::ExternalServe(const Query& query) {
  TenantMetrics* tenant = nullptr;
  if (tenant_slices_) {
    CLOUDCACHE_CHECK_LT(static_cast<size_t>(query.tenant_id),
                        external_metrics_.tenants.size());
    tenant = &external_metrics_.tenants[query.tenant_id];
  }
  ServedQuery served =
      ProcessQuery(query, external_processed_, &external_metrics_, tenant);
  ++external_processed_;
  return served;
}

Status Simulator::ExternalCheckpoint() const {
  if (options_.checkpoint.path.empty()) {
    return Status::InvalidArgument(
        "external checkpoint requires a snapshot path");
  }
  if (external_processed_ >= options_.num_queries) {
    return Status::FailedPrecondition(
        "the externally driven run is complete; a completed run is never "
        "checkpointed (nothing left to resume)");
  }
  return WriteSnapshot(external_processed_, external_metrics_);
}

SimMetrics Simulator::Run() {
  Result<SimMetrics> result = RunChecked();
  CLOUDCACHE_CHECK(result.ok());
  return std::move(result).value();
}

Result<SimMetrics> Simulator::RunChecked() {
  SimMetrics metrics = StartRun();
  for (uint64_t i = start_index_; i < options_.num_queries; ++i) {
    const size_t t = MergeHead(streams_.size(), [this](size_t u) {
      return streams_[u]->PeekNextArrival();
    });
    const SimTime peek = streams_[t]->PeekNextArrival();
    const Query query = streams_[t]->Next();
    // The merge chose the stream by its peeked arrival; drawing the query
    // must not move it.
    CLOUDCACHE_CHECK(query.arrival_time == peek);
    ProcessQuery(query, i, &metrics,
                 tenant_slices_ ? &metrics.tenants[t] : nullptr);
    CLOUDCACHE_RETURN_IF_ERROR(CheckpointStep(
        options_.checkpoint, options_.num_queries, i, i + 1,
        [&] { return WriteSnapshot(i + 1, metrics); }));
  }
  rent_.Flush(scheme_, rent_.metered_until);
  StampRunEnd(*scheme_, &metrics);
  return metrics;
}

DriverSnapshot Simulator::Snapshot() const {
  DriverSnapshot snap;
  snap.mode =
      tenant_slices_ ? kDriverModeMultiTenant : kDriverModeSingleStream;
  snap.num_queries = options_.num_queries;
  snap.scheme = scheme_;
  snap.streams = streams_;
  snap.tenant_slices = tenant_slices_ ? streams_.size() : 0;
  return snap;
}

Status Simulator::WriteSnapshot(uint64_t processed,
                                const SimMetrics& metrics) const {
  return WriteDriverSnapshot(options_.checkpoint, Snapshot(), processed,
                             metrics, [this](persist::Encoder* driver) {
                               driver->PutDouble(rent_.metered_until);
                               driver->PutDouble(rent_.pending_dollars);
                             });
}

Status Simulator::RestoreFrom(const persist::SnapshotReader& reader) {
  if (!scheme_->SupportsCheckpoint()) {
    return Status::FailedPrecondition(
        "scheme does not support checkpoint/restore");
  }
  Result<uint64_t> processed = RestoreDriverSnapshot(
      reader, options_.checkpoint, Snapshot(), &restored_metrics_,
      [this](persist::Decoder* driver) {
        CLOUDCACHE_RETURN_IF_ERROR(driver->ReadDouble(&rent_.metered_until));
        return driver->ReadDouble(&rent_.pending_dollars);
      });
  CLOUDCACHE_RETURN_IF_ERROR(processed.status());
  start_index_ = processed.value();
  restored_ = true;
  return Status::OK();
}

}  // namespace cloudcache
