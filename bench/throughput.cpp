// Hot-path throughput regression harness.
//
// Runs a Fig. 4-style grid (four schemes x four inter-arrival times) in a
// single thread, wall-clock-times each cell, and reports simulated
// queries/sec per scheme — the constant-factor speed of the full
// enumerate -> price -> skyline -> regret -> invest decision loop, which is
// what sweep wall-clock is made of. It needs no Google Benchmark, so it
// builds everywhere and runs in CI.
//
// Results are also written as JSON (default BENCH_hotpath.json) so
// successive PRs accumulate a perf trajectory:
//
//   throughput --smoke --json=BENCH_hotpath.json
//
// Meaningful numbers require a Release build; the driver warns otherwise.
// --no-plan-cache measures the same grid with the enumerator's
// plan-skeleton cache disabled, to quantify what the cache buys.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/sim/experiment.h"
#include "tools/experiment_flags.h"

namespace {

using cloudcache::ExperimentConfig;
using cloudcache::PaperInterarrivals;
using cloudcache::PaperSchemes;
using cloudcache::RunExperiment;
using cloudcache::SchemeKind;
using cloudcache::SchemeKindToString;
using cloudcache::SimMetrics;
using cloudcache::tools::FlagParse;
using cloudcache::tools::NumericFlag;

struct ThroughputOptions {
  /// The experiment surface the CLI shares; only --queries, --scale-tb,
  /// --seed and --no-plan-cache are settable here.
  cloudcache::tools::ExperimentFlags exp;
  std::string json_path = "BENCH_hotpath.json";
  bool smoke = false;
};

std::optional<ThroughputOptions> ParseThroughputArgs(int argc, char** argv) {
  ThroughputOptions options;
  options.exp.queries = 20'000;
  for (int i = 1; i < argc; ++i) {
    const FlagParse numeric = cloudcache::tools::FirstMatch({
        NumericFlag(argv[i], "--queries", &options.exp.queries),
        NumericFlag(argv[i], "--scale-tb", &options.exp.scale_tb),
        NumericFlag(argv[i], "--seed", &options.exp.seed),
    });
    if (numeric == FlagParse::kConsumed) continue;
    if (numeric == FlagParse::kError) return std::nullopt;
    std::string value;
    if (cloudcache::tools::FlagValue(argv[i], "--json", &value)) {
      options.json_path = value;
    } else if (std::strcmp(argv[i], "--no-plan-cache") == 0) {
      options.exp.plan_cache = false;
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      options.smoke = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--queries=N] [--scale-tb=X] [--seed=N] "
                   "[--json=PATH] [--no-plan-cache] [--smoke]\n",
                   argv[0]);
      return std::nullopt;
    }
  }
  if (options.smoke) {
    options.exp.queries = std::min<uint64_t>(options.exp.queries, 2'000);
  }
  return options;
}

struct CellResult {
  SchemeKind scheme;
  double interarrival_seconds = 0;
  uint64_t queries = 0;
  double wall_seconds = 0;
  double qps = 0;
  double operating_cost_dollars = 0;
  double cache_hit_rate = 0;
  double response_p50 = 0;
  double response_p95 = 0;
  double response_p99 = 0;
};

}  // namespace

int main(int argc, char** argv) {
  const std::optional<ThroughputOptions> parsed =
      ParseThroughputArgs(argc, argv);
  if (!parsed) return 2;
  ThroughputOptions options = *parsed;
  cloudcache::Catalog catalog;
  std::vector<cloudcache::QueryTemplate> templates;
  const cloudcache::Status made =
      cloudcache::tools::MakeExperimentCatalog(options.exp, &catalog,
                                               &templates);
  if (!made.ok()) {
    std::fprintf(stderr, "%s\n", made.ToString().c_str());
    return 2;
  }

#ifndef NDEBUG
  std::fprintf(stderr,
               "throughput: WARNING — assertions enabled; use a Release "
               "build for regression-grade numbers\n");
#endif
  std::fprintf(stderr, "throughput: %llu queries/cell, %.1f TB, plan cache "
               "%s\n",
               static_cast<unsigned long long>(options.exp.queries),
               options.exp.scale_tb, options.exp.plan_cache ? "on" : "off");

  const std::vector<double> intervals = PaperInterarrivals();
  const std::vector<SchemeKind> schemes = PaperSchemes();

  std::vector<CellResult> cells;
  for (double interval : intervals) {
    options.exp.interarrival = interval;
    for (SchemeKind scheme : schemes) {
      ExperimentConfig config =
          cloudcache::tools::MakeExperimentFlagsConfig(options.exp).value();
      config.scheme = scheme;
      // The scheme stream the committed baselines were recorded with.
      config.seed = options.exp.seed + 1;

      const auto start = std::chrono::steady_clock::now();
      const SimMetrics metrics =
          RunExperiment(catalog, templates, config);
      const double seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count();

      CellResult cell;
      cell.scheme = scheme;
      cell.interarrival_seconds = interval;
      cell.queries = metrics.queries;
      cell.wall_seconds = seconds;
      cell.qps = seconds > 0
                     ? static_cast<double>(metrics.queries) / seconds
                     : 0;
      cell.operating_cost_dollars = metrics.operating_cost.Total();
      cell.cache_hit_rate = metrics.CacheHitRate();
      cell.response_p50 = metrics.response_hist.Quantile(0.5);
      cell.response_p95 = metrics.response_hist.Quantile(0.95);
      cell.response_p99 = metrics.response_hist.Quantile(0.99);
      cells.push_back(cell);
      std::fprintf(stderr, "  [done] %-10s @ %4.0fs  %9.0f q/s\n",
                   SchemeKindToString(scheme), interval, cell.qps);
    }
  }

  // Per-scheme aggregate: total simulated queries over total wall time
  // across the interval axis.
  std::map<std::string, std::pair<uint64_t, double>> totals;
  for (const CellResult& cell : cells) {
    auto& [queries, seconds] = totals[SchemeKindToString(cell.scheme)];
    queries += cell.queries;
    seconds += cell.wall_seconds;
  }

  std::puts("Hot-path throughput (simulated queries per wall-clock second)");
  std::printf("%-12s %14s %14s\n", "scheme", "queries", "qps");
  for (const auto& [name, total] : totals) {
    std::printf("%-12s %14llu %14.0f\n", name.c_str(),
                static_cast<unsigned long long>(total.first),
                total.second > 0
                    ? static_cast<double>(total.first) / total.second
                    : 0.0);
  }

  std::FILE* json = std::fopen(options.json_path.c_str(), "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n",
                 options.json_path.c_str());
    return 1;
  }
  std::fprintf(json,
               "{\n"
               "  \"bench\": \"hotpath_throughput\",\n"
               "  \"queries_per_cell\": %llu,\n"
               "  \"scale_tb\": %.3f,\n"
               "  \"seed\": %llu,\n"
               "  \"plan_cache\": %s,\n"
               "  \"cells\": [\n",
               static_cast<unsigned long long>(options.exp.queries),
               options.exp.scale_tb,
               static_cast<unsigned long long>(options.exp.seed),
               options.exp.plan_cache ? "true" : "false");
  for (size_t i = 0; i < cells.size(); ++i) {
    const CellResult& cell = cells[i];
    std::fprintf(json,
                 "    {\"scheme\": \"%s\", \"interarrival_s\": %.1f, "
                 "\"queries\": %llu, \"wall_seconds\": %.6f, "
                 "\"qps\": %.1f, \"operating_cost_dollars\": %.6f, "
                 "\"cache_hit_rate\": %.6f, "
                 "\"response_p50_seconds\": %.6f, "
                 "\"response_p95_seconds\": %.6f, "
                 "\"response_p99_seconds\": %.6f}%s\n",
                 SchemeKindToString(cell.scheme), cell.interarrival_seconds,
                 static_cast<unsigned long long>(cell.queries),
                 cell.wall_seconds, cell.qps, cell.operating_cost_dollars,
                 cell.cache_hit_rate, cell.response_p50, cell.response_p95,
                 cell.response_p99, i + 1 < cells.size() ? "," : "");
  }
  std::fprintf(json,
               "  ],\n"
               "  \"aggregate_qps\": {\n");
  size_t emitted = 0;
  for (const auto& [name, total] : totals) {
    std::fprintf(json, "    \"%s\": %.1f%s\n", name.c_str(),
                 total.second > 0
                     ? static_cast<double>(total.first) / total.second
                     : 0.0,
                 ++emitted < totals.size() ? "," : "");
  }
  std::fprintf(json,
               "  }\n"
               "}\n");
  std::fclose(json);
  std::fprintf(stderr, "throughput: wrote %s\n", options.json_path.c_str());
  return 0;
}
