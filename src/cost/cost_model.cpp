#include "src/cost/cost_model.h"

#include <algorithm>
#include <cmath>

#include "src/util/logging.h"

namespace cloudcache {

namespace {

/// Sum of the storage widths of `columns`.
uint64_t WidthOf(const Catalog& catalog,
                 const std::vector<ColumnId>& columns) {
  uint64_t width = 0;
  for (ColumnId col : columns) width += catalog.column(col).width_bytes;
  return width;
}

}  // namespace

double CostModel::ParallelTimeFactor(double parallel_fraction,
                                     uint32_t nodes) const {
  CLOUDCACHE_CHECK_GE(nodes, 1u);
  if (nodes == 1) return 1.0;
  const double f = std::clamp(parallel_fraction, 0.0, 1.0);
  const double k = static_cast<double>(nodes);
  const double overhead = 1.0 + prices_->parallel_overhead * (k - 1.0);
  return (1.0 - f) + f * overhead / k;
}

double CostModel::ParallelCpuFactor(double parallel_fraction,
                                    uint32_t nodes) const {
  CLOUDCACHE_CHECK_GE(nodes, 1u);
  if (nodes == 1) return 1.0;
  const double f = std::clamp(parallel_fraction, 0.0, 1.0);
  const double k = static_cast<double>(nodes);
  const double overhead = 1.0 + prices_->parallel_overhead * (k - 1.0);
  return (1.0 - f) + f * overhead;
}

CostModel::ExecutionBase CostModel::EstimateExecutionBase(
    const Query& query, const PlanSpec& spec, uint64_t accessed_width,
    double clustered_fraction) const {
  const Table& table = catalog_->table(query.table);
  const auto total_rows = static_cast<double>(table.row_count);
  const PriceList& p = *prices_;

  // Rows the executor actually touches and bytes it reads, by access path.
  double touched_rows = 0;
  double bytes_read = 0;
  double io_multiplier = 1.0;
  switch (spec.access) {
    case PlanSpec::Access::kBackend: {
      // Fully indexed back-end, which also has the clustered base tables:
      // its optimizer takes whichever access path touches less I/O —
      // random index fetches for selective queries, a clustered region
      // scan for broad ones (the standard index-vs-scan crossover).
      const double width = static_cast<double>(accessed_width);
      const double probe_rows = total_rows * query.CombinedSelectivity();
      const double probe_bytes =
          probe_rows * width * p.random_io_multiplier;
      const double scan_rows = total_rows * clustered_fraction;
      const double scan_bytes = scan_rows * width;
      if (probe_bytes <= scan_bytes) {
        touched_rows = probe_rows;
        bytes_read = probe_rows * width;
        io_multiplier = p.random_io_multiplier;
      } else {
        touched_rows = scan_rows;
        bytes_read = scan_bytes;
        io_multiplier = 1.0;
      }
      break;
    }
    case PlanSpec::Access::kCacheScan: {
      // Clustered predicates prune the scanned region; the remaining
      // predicates are evaluated on the fly.
      touched_rows = total_rows * clustered_fraction;
      bytes_read = touched_rows * static_cast<double>(accessed_width);
      io_multiplier = 1.0;
      break;
    }
    case PlanSpec::Access::kCacheIndex: {
      double probe_sel = 1.0;
      for (size_t pos : spec.covered_predicates) {
        CLOUDCACHE_CHECK_LT(pos, query.predicates.size());
        probe_sel *= query.predicates[pos].selectivity;
      }
      touched_rows = total_rows * probe_sel;
      if (spec.covering) {
        // Entries read straight out of the index leaves: key + locator.
        const uint64_t entry = accessed_width + 8;  // 8-byte row locator.
        bytes_read = touched_rows * static_cast<double>(entry);
        io_multiplier = 1.0;
      } else {
        bytes_read = touched_rows * static_cast<double>(accessed_width);
        io_multiplier = p.random_io_multiplier;
      }
      break;
    }
  }

  // CPU work: qtot in millions of row-operations (Section V-B's
  // plan-reported total), converted to seconds by fcpu.
  const double qtot_m =
      (touched_rows * query.cpu_multiplier +
       static_cast<double>(query.result_rows)) /
      1e6;

  ExecutionBase base;
  base.cpu_serial = p.lcpu * p.fcpu * qtot_m;

  // I/O: logical operations after the fio calibration.
  const double ops_raw = bytes_read / p.io_bytes_per_op * p.fio;
  base.io_ops = static_cast<uint64_t>(std::ceil(ops_raw * io_multiplier));
  base.io_seconds = static_cast<double>(base.io_ops) * p.io_seconds_per_op;
  return base;
}

ExecutionEstimate CostModel::FinalizeExecution(
    const Query& query, const PlanSpec& spec,
    const ExecutionBase& base) const {
  const bool in_cache = spec.access != PlanSpec::Access::kBackend;
  const uint32_t nodes = in_cache ? std::max(1u, spec.cpu_nodes) : 1;
  return FinalizeExecutionWithFactors(
      query, spec, base, ParallelTimeFactor(query.parallel_fraction, nodes),
      ParallelCpuFactor(query.parallel_fraction, nodes));
}

ExecutionEstimate CostModel::FinalizeExecutionWithFactors(
    const Query& query, const PlanSpec& spec, const ExecutionBase& base,
    double time_factor, double cpu_factor) const {
  const PriceList& p = *prices_;
  ExecutionEstimate est;
  const bool in_cache = spec.access != PlanSpec::Access::kBackend;
  est.time_seconds = (base.cpu_serial + base.io_seconds) * time_factor;
  est.cpu_seconds = base.cpu_serial * cpu_factor;
  est.io_ops = base.io_ops;
  est.wan_bytes = 0;

  // Eq. 8: CeC = lcpu * fcpu * qtot * c + fio * io * iotot.
  est.cost = p.CpuCost(est.cpu_seconds) + p.IoCost(est.io_ops);

  if (!in_cache) {
    // Eq. 9: CeN = CeC + fn * (l + S(Q)/t) * c + S(Q) * cb.
    const double transfer_seconds = p.WanSeconds(query.result_bytes);
    const double transfer_cpu = p.fn * transfer_seconds;
    est.time_seconds += transfer_seconds;
    est.cpu_seconds += transfer_cpu;
    est.wan_bytes = query.result_bytes;
    est.cost += p.CpuCost(transfer_cpu) + p.NetworkCost(query.result_bytes);
  }
  return est;
}

ExecutionEstimate CostModel::EstimateExecution(const Query& query,
                                               const PlanSpec& spec) const {
  const std::vector<ColumnId>& accessed = query.AccessedColumns();
  double clustered_fraction = 1.0;
  for (const Predicate& pred : query.predicates) {
    if (pred.clustered) clustered_fraction *= pred.selectivity;
  }
  return FinalizeExecution(
      query, spec,
      EstimateExecutionBase(query, spec, WidthOf(*catalog_, accessed),
                            clustered_fraction));
}

void CostModel::BatchEstimator::Reset(const Query& query) {
  query_ = &query;
  accessed_width_ = WidthOf(*model_->catalog_, query.AccessedColumns());
  clustered_fraction_ = 1.0;
  for (const Predicate& pred : query.predicates) {
    if (pred.clustered) clustered_fraction_ *= pred.selectivity;
  }
  has_family_ = false;
  // Factors depend on query.parallel_fraction: forget the previous
  // query's memo (capacity is kept).
  time_factors_.clear();
  cpu_factors_.clear();
}

ExecutionEstimate CostModel::BatchEstimator::Estimate(const PlanSpec& spec) {
  CLOUDCACHE_CHECK(query_ != nullptr);
  if (!has_family_ || spec.access != family_access_ ||
      spec.covering != family_covering_ ||
      spec.covered_predicates != family_covered_) {
    base_ = model_->EstimateExecutionBase(*query_, spec, accessed_width_,
                                          clustered_fraction_);
    family_access_ = spec.access;
    family_covering_ = spec.covering;
    family_covered_ = spec.covered_predicates;
    has_family_ = true;
  }
  const bool in_cache = spec.access != PlanSpec::Access::kBackend;
  const uint32_t nodes = in_cache ? std::max(1u, spec.cpu_nodes) : 1;
  if (nodes >= time_factors_.size()) {
    time_factors_.resize(nodes + 1, -1.0);
    cpu_factors_.resize(nodes + 1, -1.0);
  }
  if (time_factors_[nodes] < 0.0) {
    time_factors_[nodes] =
        model_->ParallelTimeFactor(query_->parallel_fraction, nodes);
    cpu_factors_[nodes] =
        model_->ParallelCpuFactor(query_->parallel_fraction, nodes);
  }
  return model_->FinalizeExecutionWithFactors(*query_, spec, base_,
                                              time_factors_[nodes],
                                              cpu_factors_[nodes]);
}

Money CostModel::CpuNodeBuildCost() const {
  // Eq. 10: BuildN = b * u.
  return prices_->CpuCost(prices_->boot_seconds);
}

Money CostModel::ColumnBuildCost(ColumnId column) const {
  // Eq. 12: BuildT = fn * (l + size(T)/t) + size(T) * cb, with the CPU
  // term priced at the usage rate.
  const uint64_t bytes = catalog_->ColumnBytes(column);
  const double transfer_cpu = prices_->fn * prices_->WanSeconds(bytes);
  return prices_->CpuCost(transfer_cpu) + prices_->NetworkCost(bytes);
}

double CostModel::ColumnBuildSeconds(ColumnId column) const {
  return prices_->WanSeconds(catalog_->ColumnBytes(column));
}

Query CostModel::MakeIndexBuildQuery(const StructureKey& index) const {
  CLOUDCACHE_CHECK(index.type == StructureType::kIndex);
  // "select A, B from T order by A, B": a full scan of the key columns
  // with sort work folded into the CPU multiplier (n log n per row).
  Query query;
  query.table = index.table;
  query.output_columns = index.columns;
  const double rows =
      static_cast<double>(catalog_->table(index.table).row_count);
  query.cpu_multiplier = std::max(1.0, std::log2(std::max(2.0, rows)) / 8.0);
  query.parallel_fraction = 0.9;
  query.result_rows = catalog_->table(index.table).row_count;
  query.result_bytes = 0;  // Sorted output stays inside the cache.
  return query;
}

Money CostModel::IndexBuildCost(
    const StructureKey& index,
    const std::vector<bool>& column_cached) const {
  CLOUDCACHE_CHECK(index.type == StructureType::kIndex);
  // Eq. 14: BuildI = Ce(P_sort) + sum of BuildT over key columns absent
  // from the cache.
  Query sort_query = MakeIndexBuildQuery(index);
  PlanSpec spec;
  spec.access = PlanSpec::Access::kCacheScan;
  Money total = EstimateExecution(sort_query, spec).cost;
  for (ColumnId col : index.columns) {
    CLOUDCACHE_CHECK_LT(col, column_cached.size());
    if (!column_cached[col]) total += ColumnBuildCost(col);
  }
  return total;
}

double CostModel::IndexBuildSeconds(
    const StructureKey& index,
    const std::vector<bool>& column_cached) const {
  Query sort_query = MakeIndexBuildQuery(index);
  PlanSpec spec;
  spec.access = PlanSpec::Access::kCacheScan;
  double seconds = EstimateExecution(sort_query, spec).time_seconds;
  for (ColumnId col : index.columns) {
    if (!column_cached[col]) seconds += ColumnBuildSeconds(col);
  }
  return seconds;
}

Money CostModel::BuildCost(const StructureKey& key,
                           const std::vector<bool>& column_cached) const {
  switch (key.type) {
    case StructureType::kCpuNode:
      return CpuNodeBuildCost();
    case StructureType::kColumn:
      return ColumnBuildCost(key.columns.front());
    case StructureType::kIndex:
      return IndexBuildCost(key, column_cached);
  }
  return Money();
}

double CostModel::BuildSeconds(const StructureKey& key,
                               const std::vector<bool>& column_cached) const {
  switch (key.type) {
    case StructureType::kCpuNode:
      return prices_->boot_seconds;
    case StructureType::kColumn:
      return ColumnBuildSeconds(key.columns.front());
    case StructureType::kIndex:
      return IndexBuildSeconds(key, column_cached);
  }
  return 0;
}

BuildUsage CostModel::EstimateBuildUsage(
    const StructureKey& key, const std::vector<bool>& column_cached) const {
  BuildUsage usage;
  switch (key.type) {
    case StructureType::kCpuNode:
      usage.cpu_seconds = prices_->boot_seconds;
      break;
    case StructureType::kColumn: {
      const uint64_t bytes = catalog_->ColumnBytes(key.columns.front());
      usage.wan_bytes = bytes;
      usage.cpu_seconds = prices_->fn * prices_->WanSeconds(bytes);
      break;
    }
    case StructureType::kIndex: {
      Query sort_query = MakeIndexBuildQuery(key);
      PlanSpec spec;
      spec.access = PlanSpec::Access::kCacheScan;
      const ExecutionEstimate est = EstimateExecution(sort_query, spec);
      usage.cpu_seconds = est.cpu_seconds;
      usage.io_ops = est.io_ops;
      for (ColumnId col : key.columns) {
        CLOUDCACHE_CHECK_LT(col, column_cached.size());
        if (!column_cached[col]) {
          const uint64_t bytes = catalog_->ColumnBytes(col);
          usage.wan_bytes += bytes;
          usage.cpu_seconds += prices_->fn * prices_->WanSeconds(bytes);
        }
      }
      break;
    }
  }
  return usage;
}

Money CostModel::MaintenanceCost(const StructureKey& key,
                                 double seconds) const {
  return MaintenanceCostSized(key, StructureBytes(*catalog_, key), seconds);
}

Money CostModel::MaintenanceCostSized(const StructureKey& key,
                                      uint64_t bytes, double seconds) const {
  CLOUDCACHE_CHECK_GE(seconds, 0.0);
  switch (key.type) {
    case StructureType::kCpuNode:
      // Eq. 11: MaintN = c per unit time (reservation rate).
      return Money::FromDollars(seconds * prices_->cpu_second_dollars *
                                prices_->cpu_reserve_fraction);
    case StructureType::kColumn:
    case StructureType::kIndex:
      // Eq. 13 / Eq. 15: size * cd per unit time.
      return prices_->DiskCost(bytes, seconds);
  }
  return Money();
}

double CostModel::MaintenanceRate(const StructureKey& key,
                                  uint64_t bytes) const {
  switch (key.type) {
    case StructureType::kCpuNode:
      return prices_->cpu_second_dollars * prices_->cpu_reserve_fraction;
    case StructureType::kColumn:
    case StructureType::kIndex:
      return static_cast<double>(bytes) * prices_->disk_byte_second_dollars;
  }
  return 0.0;
}

}  // namespace cloudcache
