#pragma once

#include <string>
#include <vector>

#include "src/sim/experiment.h"
#include "src/sim/sweep.h"

namespace cloudcache {

/// One printed table over a grid's results: its title line, then either
/// one row per cell (`columns`) or a paper figure (`figure`).
struct GridPanel {
  std::string title;
  /// One row per cell in grid order: the variant label's `key=value`
  /// pairs as leading columns, then these metric columns, named from
  /// the shared list in grids.cpp.
  std::vector<std::string> columns;
  /// Set instead of `columns` by the paper figures, which print
  /// inter-arrival rows x scheme columns plus per-interval detail lines.
  std::string (*figure)(const std::vector<double>& interarrivals,
                        const std::vector<SweepResult>& results) = nullptr;
};

/// A named experiment grid: one sweep (schemes x inter-arrival times x
/// variants) and the panels printed from its results. Variant labels are
/// space-separated `key=value` pairs; each key heads a leading column.
struct Grid {
  std::string name;
  std::vector<SchemeKind> schemes;
  std::vector<double> interarrivals;
  std::vector<SweepVariant> variants = {SweepVariant{}};
  std::vector<GridPanel> panels;
};

/// The grid bare `cloudcache_sim --sweep` runs: Figs. 4 and 5.
inline constexpr const char* kDefaultGrid = "paper";

/// Every named grid, in listing order. Built per call (the variants hold
/// closures), so only callers that run a grid pay for it.
std::vector<Grid> MakeGrids();

/// Runs `grid` on `n_threads` sweep workers (0 = hardware concurrency),
/// each cell stamped from `base` (scheme and inter-arrival, then the
/// variant), and returns the printed report: every panel's title and
/// table, panels separated by one blank line. Bit-identical for any
/// `n_threads`; one progress line per finished cell goes to stderr.
std::string RunGrid(const Catalog& catalog,
                    const std::vector<QueryTemplate>& templates,
                    const Grid& grid, const ExperimentConfig& base,
                    unsigned n_threads);

}  // namespace cloudcache
