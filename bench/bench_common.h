#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/catalog/schema.h"
#include "src/query/templates.h"
#include "src/sim/experiment.h"
#include "src/sim/metrics.h"
#include "src/sim/sweep.h"
#include "src/util/table_writer.h"

namespace cloudcache::bench {

/// Command-line knobs shared by every figure/ablation bench binary.
///
///   --queries=N       queries per (scheme, configuration) cell
///   --scale-tb=X      back-end database size in TB (default 2.5, paper)
///   --seed=N          workload seed
///   --threads=N       sweep worker threads (default: hardware concurrency)
///   --csv=PATH        also write the result table as CSV
///   --quick           1/10th of the default queries (smoke runs)
struct BenchOptions {
  uint64_t queries = 40'000;
  double scale_tb = 2.5;
  uint64_t seed = 17;
  unsigned threads = 0;  // 0 = std::thread::hardware_concurrency().
  std::string csv_path;
  bool quick = false;
};

/// Parses argv; unknown flags abort with a usage message.
BenchOptions ParseArgs(int argc, char** argv, uint64_t default_queries);

/// The paper's evaluation environment: TPC-H catalog at `scale_tb`,
/// the seven templates, EC2 prices.
struct PaperSetup {
  Catalog catalog;
  std::vector<QueryTemplate> templates;
};
PaperSetup MakePaperSetup(const BenchOptions& options);

/// Baseline experiment configuration matching Section VII-A: conservative
/// provider, step budgets, 65 advisor indexes, EC2 metering. The economy's
/// free parameters that the paper does not pin carry a bench calibration:
/// $200 seed credit and regret fraction a = 0.02, so Eq. 3 trips within
/// the default cells; the amortization horizon keeps the EconomyOptions
/// default (src/econ/economy.h).
ExperimentConfig PaperConfig(const BenchOptions& options,
                             double interarrival_seconds);

/// Runs all four schemes at each inter-arrival time on the sweep engine,
/// fanned out over `options.threads` workers (0 = all cores); rows[i][j] =
/// scheme j at intervals[i]. Prints one progress line per cell to stderr.
std::vector<std::vector<SimMetrics>> RunInterarrivalSweep(
    const PaperSetup& setup, const BenchOptions& options,
    const std::vector<double>& intervals);

/// Runs `schemes` x {one 10 s interval} x `variants` on the sweep engine —
/// the shape every ablation driver sweeps. Results arrive in grid order:
/// variant-major, scheme-minor (variants.size() * schemes.size() cells).
/// Seeds are whatever `base` carries (SeedPolicy::kFixed), so every
/// variant faces the identical query stream and cells differ only in the
/// ablated knob.
std::vector<SweepResult> RunVariantSweep(const PaperSetup& setup,
                                         const BenchOptions& options,
                                         const ExperimentConfig& base,
                                         std::vector<SchemeKind> schemes,
                                         std::vector<SweepVariant> variants);

/// Prints the table to stdout and optionally writes the CSV.
void EmitTable(const cloudcache::TableWriter& table,
               const BenchOptions& options);

}  // namespace cloudcache::bench
