// cloudcache_sim — command-line front end to the simulator.
//
// Runs one scheme against one workload configuration and prints the full
// metric report, or — with --sweep=<grid> — one of the named experiment
// grids of src/sim/grids.cpp (the paper's figures, the ablations, the
// multi-tenant studies) fanned out over a thread pool.
//
// Exit codes: 0 = success; 1 = run or restore error; 2 = flag errors;
// 3 = deliberate crash injection (--crash-after fired; snapshot on disk).
//
// Examples:
//   cloudcache_sim --scheme=econ-cheap --queries=100000 --interarrival=10
//   cloudcache_sim --scheme=bypass --scale-tb=1.0 --arrival=poisson
//   cloudcache_sim --scheme=econ-fast --catalog=sdss --csv=credit.csv
//   cloudcache_sim --sweep --queries=40000 --threads=8   (Fig. 4/5 grid)
//   cloudcache_sim --sweep=amortization --queries=60000  (ablation A2)
//   cloudcache_sim --tenants=4 --tenant-skew=1.0   (multi-tenant economy)
//   cloudcache_sim --nodes=2 --elastic=on          (elastic cache cluster)
//   cloudcache_sim --trace-out=stream.csv --queries=50000   (record only)

#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/obs/registry.h"
#include "src/obs/stage_profile.h"
#include "src/obs/trace.h"
#include "src/sim/experiment.h"
#include "src/sim/grids.h"
#include "src/sim/report.h"
#include "src/sim/sweep.h"
#include "src/util/logging.h"
#include "src/util/status.h"
#include "src/workload/trace.h"
#include "tools/experiment_flags.h"

namespace {

using namespace cloudcache;
using tools::ExperimentFlags;
using tools::FlagParse;
using tools::FlagValue;
using tools::NumericFlag;

struct Args {
  ExperimentFlags exp;    // The shared experiment surface.
  std::string sweep;      // Named grid to run ("" = single run).
  unsigned threads = 0;   // Sweep workers; 0 = hardware concurrency.
  std::string csv;        // Credit/cost timeline CSV.
  std::string trace_out;  // Record the workload instead of simulating.
  uint64_t checkpoint_every = 0;  // Snapshot cadence in queries (0 = off).
  std::string checkpoint_path;    // Snapshot file.
  std::string restore;            // "", "auto", or "hard".
  uint64_t crash_after = 0;       // Crash-injection point (0 = off).
  std::string metrics_json;       // Machine-readable SimMetrics export.
  std::string trace;              // Economic event trace (JSONL).
  bool profile_stages = false;    // Decision-loop stage timing table.
};

std::string GridNames(const std::vector<Grid>& grids) {
  std::string names;
  for (const Grid& grid : grids) {
    names += (names.empty() ? "" : ", ") + grid.name;
  }
  return names;
}

void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [flags]\n"
      "%s"
      "  --sweep[=GRID]        run a named grid instead of one run\n"
      "                        (bare: %s); grids: %s\n"
      "  --threads=N           sweep worker threads (0 = all cores); with\n"
      "                        --checkpoint-path, intra-run workers for\n"
      "                        clustered runs (windowed driver)\n"
      "  --csv=PATH            write credit/cost timeline CSV\n"
      "  --trace-out=PATH      write the workload trace and exit\n"
      "  --checkpoint-every=N  snapshot the full economy every N queries\n"
      "  --checkpoint-path=P   snapshot file (required by the flags below)\n"
      "  --restore[=auto]      resume from the snapshot; bare --restore\n"
      "                        fails loudly on a missing/corrupt/mismatched\n"
      "                        snapshot, =auto falls back to a fresh run\n"
      "  --crash-after=K       crash injection: abort without finalizing\n"
      "                        after K queries (exit 3; restore resumes)\n"
      "  --metrics-json=PATH   write the final metrics as JSON (same names\n"
      "                        as the Prometheus exposition)\n"
      "  --trace=PATH          write the economic event trace (JSONL);\n"
      "                        single run, serial driver only\n"
      "  --profile-stages      time the decision-loop stages and print a\n"
      "                        per-stage table to stderr at the end\n",
      argv0, tools::ExperimentFlagsUsage(), kDefaultGrid,
      GridNames(MakeGrids()).c_str());
}

std::optional<Args> Parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const FlagParse shared = tools::ParseExperimentFlag(argv[i], &args.exp);
    if (shared == FlagParse::kConsumed) continue;
    if (shared == FlagParse::kError) return std::nullopt;
    const FlagParse numeric = tools::FirstMatch({
        NumericFlag(argv[i], "--threads", &args.threads),
        NumericFlag(argv[i], "--checkpoint-every", &args.checkpoint_every),
        NumericFlag(argv[i], "--crash-after", &args.crash_after),
    });
    if (numeric == FlagParse::kConsumed) continue;
    if (numeric == FlagParse::kError) return std::nullopt;
    std::string v;
    if (std::strcmp(argv[i], "--sweep") == 0) args.sweep = kDefaultGrid;
    else if (FlagValue(argv[i], "--sweep", &v)) args.sweep = v;
    else if (FlagValue(argv[i], "--csv", &v)) args.csv = v;
    else if (FlagValue(argv[i], "--trace-out", &v)) args.trace_out = v;
    else if (FlagValue(argv[i], "--checkpoint-path", &v))
      args.checkpoint_path = v;
    else if (std::strcmp(argv[i], "--restore") == 0) args.restore = "hard";
    else if (FlagValue(argv[i], "--restore", &v)) args.restore = v;
    else if (FlagValue(argv[i], "--metrics-json", &v))
      args.metrics_json = v;
    else if (FlagValue(argv[i], "--trace", &v)) args.trace = v;
    else if (std::strcmp(argv[i], "--profile-stages") == 0)
      args.profile_stages = true;
    else {
      Usage(argv[0]);
      return std::nullopt;
    }
  }
  return args;
}

/// Cross-flag validation, as Status so every rejection carries an
/// actionable message and a non-zero exit (kInvalidArgument throughout;
/// config-mismatch at restore time surfaces later as kFailedPrecondition
/// from the snapshot's config hash).
Status ValidateArgs(const Args& args) {
  CLOUDCACHE_RETURN_IF_ERROR(tools::ValidateExperimentFlags(args.exp));
  if (!args.restore.empty() && args.restore != "auto" &&
      args.restore != "hard") {
    return Status::InvalidArgument(
        "--restore wants no value (hard), =auto, or =hard; got '" +
        args.restore + "'");
  }
  const bool checkpointing = args.checkpoint_every > 0 ||
                             !args.restore.empty() || args.crash_after > 0;
  if (checkpointing && args.checkpoint_path.empty()) {
    return Status::InvalidArgument(
        "--checkpoint-every/--restore/--crash-after need a snapshot file; "
        "add --checkpoint-path=PATH");
  }
  if (!args.checkpoint_path.empty() && !args.sweep.empty()) {
    return Status::InvalidArgument(
        "--sweep runs a grid of cells that would clobber one snapshot "
        "file; checkpoint/restore applies to single runs only");
  }
  if (!args.checkpoint_path.empty() && !args.trace_out.empty()) {
    return Status::InvalidArgument(
        "--trace-out records the workload without simulating, so there is "
        "no economy state to checkpoint or restore");
  }
  if (!args.metrics_json.empty() && !args.sweep.empty()) {
    return Status::InvalidArgument(
        "--metrics-json exports one run's metrics; --sweep produces a "
        "grid — run the cells individually");
  }
  if (!args.metrics_json.empty() && !args.trace_out.empty()) {
    return Status::InvalidArgument(
        "--trace-out records the workload without simulating, so there "
        "are no metrics to export");
  }
  if (!args.trace.empty()) {
    if (!args.sweep.empty()) {
      return Status::InvalidArgument(
          "--trace records one run's events; --sweep runs a grid");
    }
    if (!args.trace_out.empty()) {
      return Status::InvalidArgument(
          "--trace records economic events during simulation; --trace-out "
          "records the workload without simulating — pick one");
    }
    if (args.threads > 0) {
      return Status::InvalidArgument(
          "--trace needs the serial driver for deterministic record "
          "order; drop --threads");
    }
  }
  if (args.crash_after > 0 && args.crash_after >= args.exp.queries) {
    return Status::InvalidArgument(
        "--crash-after=" + std::to_string(args.crash_after) +
        " never fires: the run finalizes at --queries=" +
        std::to_string(args.exp.queries) +
        " (crash injection stops strictly before the final query)");
  }
  return Status::OK();
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Args> parsed = Parse(argc, argv);
  if (!parsed) return 2;
  const Args& args = *parsed;
  const Status valid = ValidateArgs(args);
  if (!valid.ok()) {
    std::fprintf(stderr, "%s\n", valid.ToString().c_str());
    return 2;
  }
  // The grid table is built only when a grid runs.
  std::vector<Grid> grids;
  const Grid* grid = nullptr;
  if (!args.sweep.empty()) {
    grids = MakeGrids();
    for (const Grid& candidate : grids) {
      if (candidate.name == args.sweep) grid = &candidate;
    }
    if (grid == nullptr) {
      std::fprintf(stderr, "unknown --sweep grid '%s'; valid grids: %s\n",
                   args.sweep.c_str(), GridNames(grids).c_str());
      return 2;
    }
  }

  Catalog catalog;
  std::vector<QueryTemplate> templates;
  const Status made =
      tools::MakeExperimentCatalog(args.exp, &catalog, &templates);
  if (!made.ok()) {
    std::fprintf(stderr, "%s\n", made.ToString().c_str());
    return 2;
  }

  Result<ExperimentConfig> built =
      tools::MakeExperimentFlagsConfig(args.exp);
  if (!built.ok()) {
    std::fprintf(stderr, "%s\n", built.status().ToString().c_str());
    return 2;
  }
  ExperimentConfig config = std::move(built).value();

  if (args.profile_stages) {
    obs::StageProfiler::Instance().Enable(true);
  }
  std::unique_ptr<obs::EventTracer> tracer;
  if (!args.trace.empty()) {
    Result<std::unique_ptr<obs::EventTracer>> opened =
        obs::EventTracer::Open(args.trace);
    if (!opened.ok()) {
      std::fprintf(stderr, "%s\n", opened.status().ToString().c_str());
      return 1;
    }
    tracer = std::move(opened).value();
    config.tracer = tracer.get();
  }

  if (!args.trace_out.empty()) {
    Result<std::vector<ResolvedTemplate>> resolved =
        ResolveTemplates(catalog, templates);
    if (!resolved.ok()) {
      std::fprintf(stderr, "%s\n", resolved.status().ToString().c_str());
      return 1;
    }
    WorkloadGenerator generator(&catalog, *resolved, config.workload);
    std::vector<Query> trace;
    trace.reserve(args.exp.queries);
    for (uint64_t i = 0; i < args.exp.queries; ++i) {
      trace.push_back(generator.Next());
    }
    const Status status = TraceWriter::Write(args.trace_out, trace);
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("wrote %zu queries to %s\n", trace.size(),
                args.trace_out.c_str());
    return 0;
  }

  if (grid != nullptr) {
    if (args.exp.scheme_set || args.exp.interarrival_set) {
      std::fprintf(stderr,
                   "note: --sweep sets each cell's scheme and "
                   "inter-arrival; --scheme/--interarrival are ignored\n");
    }
    if (!args.csv.empty()) {
      std::fprintf(stderr,
                   "note: --csv writes the single-run timeline only; "
                   "ignored under --sweep\n");
    }
    std::fputs(
        RunGrid(catalog, templates, *grid, config, args.threads).c_str(),
        stdout);
    if (args.profile_stages) {
      std::fputs(obs::StageProfiler::Instance().FormatTable().c_str(),
                 stderr);
    }
    return 0;
  }

  SimMetrics metrics;
  if (!args.checkpoint_path.empty()) {
    // Checkpoint/restore run. A one-cell sweep leaves the config
    // untouched, so driving RunExperimentChecked directly is the sweep
    // path bit for bit — plus snapshots, crash injection, and restore.
    config.sim.checkpoint.every = args.checkpoint_every;
    config.sim.checkpoint.path = args.checkpoint_path;
    config.sim.checkpoint.crash_after = args.crash_after;
    config.sim.parallel_threads = args.threads;
    if (args.restore == "auto") {
      config.sim.checkpoint.restore = CheckpointOptions::Restore::kAuto;
    } else if (args.restore == "hard") {
      config.sim.checkpoint.restore = CheckpointOptions::Restore::kHard;
    }
    Result<SimMetrics> run = RunExperimentChecked(catalog, templates, config);
    if (!run.ok()) {
      std::fprintf(stderr, "%s\n", run.status().ToString().c_str());
      // Crash injection is a deliberate stop (snapshot on disk, no final
      // report), distinct from a genuine failure.
      return run.status().code() == StatusCode::kResourceExhausted ? 3 : 1;
    }
    metrics = std::move(run).value();
  } else {
    // One cell of the sweep engine: same code path as the grid runs.
    SweepSpec spec;
    spec.schemes = {config.scheme};
    spec.interarrivals = {args.exp.interarrival};
    spec.base = config;
    std::vector<SweepResult> results =
        RunSweep(catalog, templates, spec, /*n_threads=*/1);
    metrics = std::move(results[0].metrics);
  }
  std::fputs(FormatRunDetail(metrics).c_str(), stdout);
  if (metrics.tenants.size() > 1) {
    std::printf("\nPer-tenant breakdown (%zu tenants, traffic skew %g%s%s)\n",
                metrics.tenants.size(), args.exp.tenant_skew,
                args.exp.fair_eviction ? ", fair-eviction" : "",
                args.exp.admission ? ", admission" : "");
    std::fputs(MakeTenantTable(metrics).ToAscii().c_str(), stdout);
    std::fputs(FormatFairness(metrics).c_str(), stdout);
  }
  if (metrics.cluster.active) {
    std::printf("\nPer-node breakdown (%s)\n",
                args.exp.elastic ? "elastic" : "fixed fleet");
    std::fputs(MakeNodeTable(metrics).ToAscii().c_str(), stdout);
    std::fputs(FormatCluster(metrics).c_str(), stdout);
  }

  if (!args.csv.empty()) {
    TableWriter timeline({"time_s", "cumulative_cost_$", "credit_$"});
    const TimeSeries cost = metrics.cost_over_time.Downsample(2000);
    const TimeSeries credit = metrics.credit_over_time.Downsample(2000);
    for (size_t i = 0; i < cost.size() && i < credit.size(); ++i) {
      CLOUDCACHE_CHECK(
          timeline
              .AddNumericRow({cost.times()[i], cost.values()[i],
                              credit.values()[i]},
                             4)
              .ok());
    }
    const Status status = timeline.WriteCsvFile(args.csv);
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("timeline written to %s\n", args.csv.c_str());
  }

  if (tracer != nullptr) {
    tracer->Flush();
    std::printf("event trace written to %s\n", args.trace.c_str());
  }
  if (!args.metrics_json.empty()) {
    obs::Registry registry;
    obs::FillFromSimMetrics(metrics, &registry);
    std::ofstream out(args.metrics_json,
                      std::ios::binary | std::ios::trunc);
    out << registry.RenderJson();
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", args.metrics_json.c_str());
      return 1;
    }
    out.close();
    std::printf("metrics written to %s\n", args.metrics_json.c_str());
  }
  if (args.profile_stages) {
    std::fputs(obs::StageProfiler::Instance().FormatTable().c_str(),
               stderr);
  }
  return 0;
}
