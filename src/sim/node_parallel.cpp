#include "src/sim/node_parallel.h"

#include <algorithm>
#include <future>
#include <string>
#include <utility>

#include "src/util/logging.h"

namespace cloudcache {

ParallelNodeSimulator::ParallelNodeSimulator(const Catalog* catalog,
                                             ClusterScheme* cluster,
                                             WorkloadGenerator* workload,
                                             SimulatorOptions options)
    : catalog_(catalog),
      cluster_(cluster),
      workload_(workload),
      options_(options),
      pool_(std::max<uint32_t>(1, options.parallel_threads)) {
  CLOUDCACHE_CHECK(cluster_ != nullptr);
  CLOUDCACHE_CHECK(workload_ != nullptr);
}

RentAccrual ParallelNodeSimulator::AccrueNodeRent(size_t index,
                                                  SimTime now) {
  return books_[index].rent.Accrue(&cluster_->mutable_node(index),
                                   index > 0 ? 1 : 0, now, options_);
}

void ParallelNodeSimulator::ServeSlice(size_t index,
                                       QueryRecord* const* records,
                                       size_t count) {
  Scheme& node = cluster_->mutable_node(index);
  CostModel* metered = metered_models_[index].get();
  for (size_t k = 0; k < count; ++k) {
    QueryRecord& rec = *records[k];
    const SimTime now = rec.query.arrival_time;
    rec.rent = AccrueNodeRent(index, now);
    rec.served = cluster_->ServeOnNode(index, rec.query, now);
    // The bill goes straight to the serving node, bypassing the cluster's
    // serial last-served billing hook.
    rec.bill = MeterBill(metered, options_.metered_prices, rec.query,
                         rec.served, &node, now);
    rec.credit_after = node.credit();
  }
}

void ParallelNodeSimulator::MergeRecord(const QueryRecord& rec,
                                        SimMetrics* metrics) {
  // Same per-query booking as Simulator::ProcessQuery.
  BookQuery(rec.rent, rec.bill, rec.served, metrics, nullptr);
  books_[rec.node].credit = rec.credit_after;

  if (TimelineSampleDue(options_, rec.index)) {
    const SimTime now = rec.query.arrival_time;
    metrics->cost_over_time.Add(now, metrics->operating_cost.Total());
    Money credit;
    for (const NodeBooks& books : books_) credit += books.credit;
    metrics->credit_over_time.Add(now, credit.ToDollars());
  }
}

void ParallelNodeSimulator::SyncRentTo(SimTime close, SimMetrics* metrics) {
  for (size_t n = 0; n < books_.size(); ++n) {
    BookRent(AccrueNodeRent(n, close), metrics);
    books_[n].credit = cluster_->node(n).credit();
  }
}

void ParallelNodeSimulator::ApplyFleetChange(
    const ClusterScheme::WindowEnd& end, SimTime close) {
  switch (end.decision) {
    case ElasticDecision::kHold:
      break;
    case ElasticDecision::kRent: {
      // A fresh node accrues rent from the rental instant and estimates
      // with its own metered model.
      NodeBooks books;
      books.rent.metered_until = close;
      books.credit = cluster_->node(cluster_->num_nodes() - 1).credit();
      books_.push_back(books);
      metered_models_.push_back(
          std::make_unique<CostModel>(catalog_, &options_.metered_prices));
      break;
    }
    case ElasticDecision::kRelease: {
      // The heir absorbed the victim's remaining credit inside the
      // cluster; its sub-micro-dollar rent residue follows the same
      // books so scale-in never forgives metered rent.
      const double residue = books_[end.released_index].rent.pending_dollars;
      books_.erase(books_.begin() +
                   static_cast<std::ptrdiff_t>(end.released_index));
      metered_models_.erase(metered_models_.begin() +
                            static_cast<std::ptrdiff_t>(end.released_index));
      books_[end.heir_index].rent.pending_dollars += residue;
      books_[end.heir_index].credit =
          cluster_->node(end.heir_index).credit();
      break;
    }
  }
}

SimMetrics ParallelNodeSimulator::Run() {
  Result<SimMetrics> result = RunChecked();
  CLOUDCACHE_CHECK(result.ok());
  return std::move(result).value();
}

DriverSnapshot ParallelNodeSimulator::Snapshot() const {
  DriverSnapshot snap;
  snap.mode = kDriverModeWindowed;
  snap.num_queries = options_.num_queries;
  snap.scheme = cluster_;
  snap.streams = {workload_};
  return snap;
}

Status ParallelNodeSimulator::WriteSnapshot(uint64_t processed,
                                            const SimMetrics& metrics) const {
  return WriteDriverSnapshot(
      options_.checkpoint, Snapshot(), processed, metrics,
      [this](persist::Encoder* driver) {
        driver->PutDouble(last_close_);
        driver->PutU64(books_.size());
        for (const NodeBooks& books : books_) {
          driver->PutDouble(books.rent.pending_dollars);
          driver->PutDouble(books.rent.metered_until);
          driver->PutMoney(books.credit);
        }
      });
}

Status ParallelNodeSimulator::RestoreFrom(
    const persist::SnapshotReader& reader) {
  Result<uint64_t> processed = RestoreDriverSnapshot(
      reader, options_.checkpoint, Snapshot(), &restored_metrics_,
      [this](persist::Decoder* driver) {
        CLOUDCACHE_RETURN_IF_ERROR(driver->ReadDouble(&last_close_));
        uint64_t book_count = 0;
        CLOUDCACHE_RETURN_IF_ERROR(driver->ReadLength(&book_count));
        if (book_count != cluster_->num_nodes()) {
          return Status::InvalidArgument(
              "snapshot rent books cover " + std::to_string(book_count) +
              " nodes but the restored fleet has " +
              std::to_string(cluster_->num_nodes()));
        }
        books_.assign(book_count, NodeBooks{});
        for (NodeBooks& books : books_) {
          CLOUDCACHE_RETURN_IF_ERROR(
              driver->ReadDouble(&books.rent.pending_dollars));
          CLOUDCACHE_RETURN_IF_ERROR(
              driver->ReadDouble(&books.rent.metered_until));
          CLOUDCACHE_RETURN_IF_ERROR(driver->ReadMoney(&books.credit));
        }
        return Status::OK();
      });
  CLOUDCACHE_RETURN_IF_ERROR(processed.status());
  metered_models_.clear();
  for (size_t n = 0; n < cluster_->num_nodes(); ++n) {
    metered_models_.push_back(
        std::make_unique<CostModel>(catalog_, &options_.metered_prices));
  }
  start_processed_ = processed.value();
  restored_ = true;
  return Status::OK();
}

Result<SimMetrics> ParallelNodeSimulator::RunChecked() {
  SimMetrics metrics;
  if (restored_) {
    metrics = std::move(restored_metrics_);
  } else {
    metrics.scheme_name = cluster_->name();
    const SimTime start = workload_->PeekNextArrival();
    last_close_ = start;
    books_.assign(cluster_->num_nodes(), NodeBooks{});
    metered_models_.clear();
    for (size_t n = 0; n < cluster_->num_nodes(); ++n) {
      books_[n].rent.metered_until = start;
      books_[n].credit = cluster_->node(n).credit();
      metered_models_.push_back(
          std::make_unique<CostModel>(catalog_, &options_.metered_prices));
    }
  }

  // The window IS the elasticity check interval, so full windows land the
  // controller exactly where the serial path's modulo check fires.
  const uint64_t window_size =
      cluster_->options().elasticity.check_interval_queries;

  std::vector<QueryRecord> window;
  std::vector<std::vector<QueryRecord*>> slices;
  std::vector<std::future<void>> futures;
  uint64_t processed = start_processed_;
  while (processed < options_.num_queries) {
    const uint64_t count =
        std::min<uint64_t>(window_size, options_.num_queries - processed);
    window.clear();
    window.reserve(count);
    for (uint64_t k = 0; k < count; ++k) {
      QueryRecord rec;
      rec.query = workload_->Next();
      rec.index = processed + k;
      window.push_back(std::move(rec));
    }

    // Route the whole window against the window-start residencies (no
    // node has served yet, so every route sees the same frozen fleet).
    slices.assign(cluster_->num_nodes(), {});
    for (QueryRecord& rec : window) {
      rec.node = cluster_->RouteQuery(rec.query);
      slices[rec.node].push_back(&rec);
    }

    // One task per non-empty slice; tasks share no mutable state.
    futures.clear();
    for (size_t n = 0; n < slices.size(); ++n) {
      if (slices[n].empty()) continue;
      futures.push_back(pool_.Submit([this, n, &slices] {
        ServeSlice(n, slices[n].data(), slices[n].size());
      }));
    }
    for (std::future<void>& future : futures) future.get();

    // Merge in global arrival order, then close the window serially.
    for (const QueryRecord& rec : window) MergeRecord(rec, &metrics);
    const SimTime close = window.back().query.arrival_time;
    last_close_ = close;
    SyncRentTo(close, &metrics);
    const ClusterScheme::WindowEnd end = cluster_->EndWindow(
        close, window.front().query.arrival_time, close, count);
    ApplyFleetChange(end, close);
    const uint64_t previous = processed;
    processed += count;
    // Window closes are this driver's only deterministic boundaries, so a
    // snapshot lands at the first close at or past each multiple of
    // `every`.
    CLOUDCACHE_RETURN_IF_ERROR(CheckpointStep(
        options_.checkpoint, options_.num_queries, previous, processed,
        [&] { return WriteSnapshot(processed, metrics); }));
  }

  // The same rounded-up close of the books as the serial driver, node by
  // node.
  for (size_t n = 0; n < books_.size(); ++n) {
    books_[n].rent.Flush(&cluster_->mutable_node(n), last_close_);
  }
  StampRunEnd(*cluster_, &metrics);
  return metrics;
}

}  // namespace cloudcache
