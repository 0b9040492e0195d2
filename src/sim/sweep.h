#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/sim/experiment.h"
#include "src/sim/metrics.h"

namespace cloudcache {

/// One point on a sweep's ablation axis: a label for reports plus a
/// mutation applied to the cell's ExperimentConfig after the scheme and
/// inter-arrival are set — so a variant can override anything, including
/// the seeds.
struct SweepVariant {
  std::string label;
  std::function<void(ExperimentConfig&)> customize;  // May be null.
};

/// Cross-product experiment grid: schemes x inter-arrival times x ablation
/// variants, all stamped from one base configuration. The grid order is
/// variant-major, scheme-minor:
///
///   index = (variant * |interarrivals| + interarrival) * |schemes| + scheme
///
/// so `RunSweep(...)[v*I*S + i*S + j]` is scheme j at interval i of variant
/// v — the rows[i][j] layout the figure grids print.
struct SweepSpec {
  std::vector<SchemeKind> schemes = PaperSchemes();
  std::vector<double> interarrivals = PaperInterarrivals();
  /// Ablation axis; the default single unlabeled variant makes plain
  /// scheme-x-interval grids (Figs. 4-5) need no setup.
  std::vector<SweepVariant> variants = {SweepVariant{}};

  /// Stamped into every cell before the per-cell fields are overwritten.
  /// Its seeds apply to every cell unchanged, so all cells of a variant
  /// face the identical query stream; a variant that wants another stream
  /// sets the seeds itself.
  ExperimentConfig base;

  size_t CellCount() const {
    return schemes.size() * interarrivals.size() * variants.size();
  }
};

/// Fully-resolved coordinates of one sweep cell.
struct SweepCell {
  size_t index = 0;  // Position in grid order.
  size_t scheme_index = 0;
  size_t interarrival_index = 0;
  size_t variant_index = 0;
  SchemeKind scheme = SchemeKind::kEconCheap;
  double interarrival_seconds = 0;
  /// "econ-cheap @ 10s" (+ " [variant]" when the variant is labeled).
  std::string label;
};

struct SweepResult {
  SweepCell cell;
  SimMetrics metrics;
};

/// The grid a spec describes, in grid order, with labels resolved (no
/// simulation). Exposed for tests and progress displays.
std::vector<SweepCell> EnumerateSweepCells(const SweepSpec& spec);

/// Builds the ExperimentConfig a given cell runs: base, then scheme /
/// interarrival, then the variant customizer.
ExperimentConfig MakeCellConfig(const SweepSpec& spec, const SweepCell& cell);

/// Runs every cell of the grid, fanning RunExperiment out over a
/// fixed-size thread pool. `n_threads` = 0 means hardware concurrency;
/// any value is clamped to [1, cells]. Results come back labeled, in grid
/// order, bit-identical for any `n_threads`. `progress`, when non-null,
/// is invoked from worker threads as cells finish (it must be
/// thread-safe).
std::vector<SweepResult> RunSweep(
    const Catalog& catalog, const std::vector<QueryTemplate>& templates,
    const SweepSpec& spec, unsigned n_threads,
    const std::function<void(const SweepCell&, const SimMetrics&)>& progress =
        nullptr);

}  // namespace cloudcache
