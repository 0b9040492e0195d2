#include "bench/bench_common.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>

#include "src/catalog/tpch.h"
#include "src/util/units.h"

namespace cloudcache::bench {

namespace {

bool ConsumeFlag(const char* arg, const char* name, std::string* value) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) == 0 && arg[len] == '=') {
    *value = arg + len + 1;
    return true;
  }
  return false;
}

}  // namespace

BenchOptions ParseArgs(int argc, char** argv, uint64_t default_queries) {
  BenchOptions options;
  options.queries = default_queries;
  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (ConsumeFlag(argv[i], "--queries", &value)) {
      options.queries = std::strtoull(value.c_str(), nullptr, 10);
    } else if (ConsumeFlag(argv[i], "--scale-tb", &value)) {
      options.scale_tb = std::strtod(value.c_str(), nullptr);
    } else if (ConsumeFlag(argv[i], "--seed", &value)) {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (ConsumeFlag(argv[i], "--threads", &value)) {
      options.threads =
          static_cast<unsigned>(std::strtoul(value.c_str(), nullptr, 10));
    } else if (ConsumeFlag(argv[i], "--csv", &value)) {
      options.csv_path = value;
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      options.quick = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--queries=N] [--scale-tb=X] [--seed=N] "
                   "[--threads=N] [--csv=PATH] [--quick]\n",
                   argv[0]);
      std::exit(2);
    }
  }
  if (options.quick) options.queries = std::max<uint64_t>(1, options.queries / 10);
  return options;
}

PaperSetup MakePaperSetup(const BenchOptions& options) {
  PaperSetup setup;
  setup.catalog = MakeTpchCatalog(TpchScaleForBytes(
      static_cast<uint64_t>(options.scale_tb * static_cast<double>(kTB))));
  setup.templates = MakeTpchTemplates();
  return setup;
}

ExperimentConfig PaperConfig(const BenchOptions& options,
                             double interarrival_seconds) {
  ExperimentConfig config;
  config.workload.interarrival_seconds = interarrival_seconds;
  config.workload.seed = options.seed;
  config.sim.num_queries = options.queries;
  config.seed = options.seed + 1;
  config.customize_econ = [](EconScheme::Config& econ) {
    // Working capital so the conservative provider can act within runs
    // shorter than the paper's million queries, and a regret fraction
    // calibrated so Eq. 3 trips within the default 40k-query cells (the
    // A1 ablation sweeps this knob); everything else is the library
    // default (EconomyOptions in src/econ/economy.h).
    econ.economy.initial_credit = Money::FromDollars(200);
    econ.economy.regret_fraction_a = 0.02;
    // The paper's evaluation does not model structure build latency (a
    // 120 GB column needs ~11 simulated hours on the 25 Mbps WAN, longer
    // than a bench run), and the bypass baseline loads instantly; keep
    // the comparison symmetric. The library models latency by default.
    econ.economy.model_build_latency = false;
  };
  return config;
}

std::vector<std::vector<SimMetrics>> RunInterarrivalSweep(
    const PaperSetup& setup, const BenchOptions& options,
    const std::vector<double>& intervals) {
  SweepSpec spec;
  spec.schemes = PaperSchemes();
  spec.interarrivals = intervals;
  spec.base = PaperConfig(options, /*interarrival_seconds=*/0);
  // Every cell keeps the --seed workload stream, exactly as the historical
  // serial loop did: scheme columns stay paired per row and rows differ
  // only in arrival spacing.
  spec.seed_policy = SweepSpec::SeedPolicy::kFixed;
  spec.base_seed = options.seed;

  return GroupRowsByInterarrival(
      RunSweep(setup.catalog, setup.templates, spec, options.threads,
               LogCellDone),
      intervals.size());
}

std::vector<SweepResult> RunVariantSweep(const PaperSetup& setup,
                                         const BenchOptions& options,
                                         const ExperimentConfig& base,
                                         std::vector<SchemeKind> schemes,
                                         std::vector<SweepVariant> variants) {
  SweepSpec spec;
  spec.schemes = std::move(schemes);
  spec.interarrivals = {base.workload.interarrival_seconds};
  spec.variants = std::move(variants);
  spec.base = base;
  spec.seed_policy = SweepSpec::SeedPolicy::kFixed;
  spec.base_seed = options.seed;
  return RunSweep(setup.catalog, setup.templates, spec, options.threads,
                  LogCellDone);
}

void EmitTable(const cloudcache::TableWriter& table,
               const BenchOptions& options) {
  std::fputs(table.ToAscii().c_str(), stdout);
  if (!options.csv_path.empty()) {
    const Status status = table.WriteCsvFile(options.csv_path);
    if (!status.ok()) {
      std::fprintf(stderr, "csv write failed: %s\n",
                   status.ToString().c_str());
    }
  }
}

}  // namespace cloudcache::bench
