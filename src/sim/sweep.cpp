#include "src/sim/sweep.h"

#include <algorithm>
#include <cstdio>
#include <future>
#include <thread>
#include <utility>

#include "src/util/logging.h"
#include "src/util/thread_pool.h"

namespace cloudcache {

namespace {

std::string CellLabel(const SweepSpec& spec, const SweepCell& cell) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), " @ %gs", cell.interarrival_seconds);
  std::string label = std::string(SchemeKindToString(cell.scheme)) + buffer;
  const std::string& variant = spec.variants[cell.variant_index].label;
  if (!variant.empty()) label += " [" + variant + "]";
  return label;
}

}  // namespace

std::vector<SweepCell> EnumerateSweepCells(const SweepSpec& spec) {
  CLOUDCACHE_CHECK(!spec.schemes.empty());
  CLOUDCACHE_CHECK(!spec.interarrivals.empty());
  CLOUDCACHE_CHECK(!spec.variants.empty());
  std::vector<SweepCell> cells;
  cells.reserve(spec.CellCount());
  for (size_t v = 0; v < spec.variants.size(); ++v) {
    for (size_t i = 0; i < spec.interarrivals.size(); ++i) {
      for (size_t s = 0; s < spec.schemes.size(); ++s) {
        SweepCell cell;
        cell.index = cells.size();
        cell.scheme_index = s;
        cell.interarrival_index = i;
        cell.variant_index = v;
        cell.scheme = spec.schemes[s];
        cell.interarrival_seconds = spec.interarrivals[i];
        cell.label = CellLabel(spec, cell);
        cells.push_back(std::move(cell));
      }
    }
  }
  return cells;
}

ExperimentConfig MakeCellConfig(const SweepSpec& spec,
                                const SweepCell& cell) {
  ExperimentConfig config = spec.base;
  config.scheme = cell.scheme;
  config.workload.interarrival_seconds = cell.interarrival_seconds;
  const SweepVariant& variant = spec.variants[cell.variant_index];
  if (variant.customize) variant.customize(config);
  return config;
}

std::vector<SweepResult> RunSweep(
    const Catalog& catalog, const std::vector<QueryTemplate>& templates,
    const SweepSpec& spec, unsigned n_threads,
    const std::function<void(const SweepCell&, const SimMetrics&)>&
        progress) {
  const std::vector<SweepCell> cells = EnumerateSweepCells(spec);

  auto run_cell = [&](const SweepCell& cell) {
    SimMetrics metrics =
        RunExperiment(catalog, templates, MakeCellConfig(spec, cell));
    if (progress) progress(cell, metrics);
    return metrics;
  };

  std::vector<SweepResult> results;
  results.reserve(cells.size());

  if (n_threads == 0) {
    const unsigned hardware = std::thread::hardware_concurrency();
    n_threads = hardware > 0 ? hardware : 1;
  }
  const size_t workers = std::min<size_t>(n_threads, cells.size());
  if (workers <= 1) {
    for (const SweepCell& cell : cells) {
      results.push_back({cell, run_cell(cell)});
    }
    return results;
  }

  // Every cell's config derives only from the spec, never from another
  // cell's outcome, so scheduling order cannot leak into results: the grid
  // is embarrassingly parallel and bit-identical for any worker count.
  ThreadPool pool(workers);
  std::vector<std::future<SimMetrics>> futures;
  futures.reserve(cells.size());
  for (const SweepCell& cell : cells) {
    futures.push_back(pool.Submit(run_cell, cell));
  }
  for (size_t i = 0; i < cells.size(); ++i) {
    results.push_back({cells[i], futures[i].get()});
  }
  return results;
}

}  // namespace cloudcache
