// perfbench_trace — the traced twin of `cloudcache_sim`'s single-run path.
//
// Builds the ExperimentConfig through the shared tools/experiment_flags.h
// (so it hashes and behaves exactly like the shipped binary), drives the
// same scheme graph through the same simulator driver, and times the calls
// into each layer's public functions from the outside:
//
//   - every node scheme is wrapped in TimedScheme, a Scheme decorator that
//     forwards each call and records a span around OnQuery (the cluster
//     driver takes a NodeFactory, so rented nodes are wrapped too);
//   - clustered runs use TracedCluster, a ClusterScheme whose SaveState
//     (the scheme half of every checkpoint) is timed per checkpoint;
//   - obs::StageProfiler is switched on through its public API and read
//     after the run (enumerate, skyline, price, settle);
//   - WorkloadGenerator::Next is timed on twin generators drawing the
//     identical stream after the run (the driver draws internally).
//
// The run's metrics are written with --metrics-json exactly as
// cloudcache_sim writes them, so the benchmark can require instrumented ==
// bare bit for bit. Layer totals go to --layers-json.
//
//   perfbench_trace [experiment flags] [--threads=N --checkpoint-path=P
//       --checkpoint-every=N] --metrics-json=M --layers-json=L
//
// Exit codes: 0 = success; 1 = run error; 2 = flag errors.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/obs/registry.h"
#include "src/obs/stage_profile.h"
#include "src/sim/experiment.h"
#include "src/sim/node_parallel.h"
#include "src/sim/simulator.h"
#include "src/structure/index_advisor.h"
#include "src/util/rng.h"
#include "tools/experiment_flags.h"

namespace {

using namespace cloudcache;
using Clock = std::chrono::steady_clock;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// One timed call: [start, end) in steady-clock nanoseconds.
struct Span {
  int64_t start = 0;
  int64_t end = 0;
};

/// Where decorators hand their spans and counters when they retire (a
/// released cluster node is destroyed mid-run; its numbers must survive).
struct LayerSink {
  std::mutex mu;
  std::vector<Span> on_query;
  std::vector<Span> checkpoints;
  uint64_t plan_cache_hits = 0;
  uint64_t plan_cache_misses = 0;
};

/// Scheme decorator: forwards every call to the wrapped node scheme and
/// records a span around OnQuery. A node is served by one thread at a
/// time (the windowed driver runs one task per node), so the span buffer
/// needs no lock until retirement.
class TimedScheme : public Scheme {
 public:
  TimedScheme(std::unique_ptr<Scheme> inner, LayerSink* sink)
      : inner_(std::move(inner)), sink_(sink) {
    spans_.reserve(1 << 16);
  }
  ~TimedScheme() override {
    std::lock_guard<std::mutex> lock(sink_->mu);
    sink_->on_query.insert(sink_->on_query.end(), spans_.begin(),
                           spans_.end());
    if (const auto* econ = dynamic_cast<const EconScheme*>(inner_.get())) {
      sink_->plan_cache_hits += econ->engine().enumerator().plan_cache_hits();
      sink_->plan_cache_misses +=
          econ->engine().enumerator().plan_cache_misses();
    }
  }

  const std::string& name() const override { return inner_->name(); }
  ServedQuery OnQuery(const Query& query, SimTime now) override {
    const int64_t start = NowNs();
    ServedQuery served = inner_->OnQuery(query, now);
    spans_.push_back({start, NowNs()});
    return served;
  }
  const CacheState& cache() const override { return inner_->cache(); }
  Money credit() const override { return inner_->credit(); }
  Money TenantRegret(uint32_t tenant) const override {
    return inner_->TenantRegret(tenant);
  }
  void ChargeExpenditure(Money amount, SimTime now) override {
    inner_->ChargeExpenditure(amount, now);
  }
  uint64_t TotalResidentBytes() const override {
    return inner_->TotalResidentBytes();
  }
  uint32_t TotalExtraCpuNodes() const override {
    return inner_->TotalExtraCpuNodes();
  }
  uint32_t RentedNodes() const override { return inner_->RentedNodes(); }
  Money StandingRegret() const override { return inner_->StandingRegret(); }
  Status AdoptStructure(const StructureKey& key, SimTime now) override {
    return inner_->AdoptStructure(key, now);
  }
  void AbsorbCredit(Money amount, SimTime now) override {
    inner_->AbsorbCredit(amount, now);
  }
  void DescribeCluster(ClusterMetrics* out) const override {
    inner_->DescribeCluster(out);
  }
  void SetEventTracer(obs::EventTracer* tracer,
                      uint32_t node_ordinal) override {
    inner_->SetEventTracer(tracer, node_ordinal);
  }
  bool SupportsCheckpoint() const override {
    return inner_->SupportsCheckpoint();
  }
  void SaveState(persist::Encoder* enc) const override {
    inner_->SaveState(enc);
  }
  Status RestoreState(persist::Decoder* dec) override {
    return inner_->RestoreState(dec);
  }

 private:
  std::unique_ptr<Scheme> inner_;
  LayerSink* sink_;
  std::vector<Span> spans_;
};

/// ClusterScheme whose SaveState — the live-state serialization inside
/// every checkpoint the windowed driver writes — is timed.
class TracedCluster : public ClusterScheme {
 public:
  TracedCluster(const Catalog* catalog, const PriceList* decision_prices,
                ClusterOptions options, NodeFactory factory,
                LayerSink* sink)
      : ClusterScheme(catalog, decision_prices, std::move(options),
                      std::move(factory)),
        sink_(sink) {}

  void SaveState(persist::Encoder* enc) const override {
    const int64_t start = NowNs();
    ClusterScheme::SaveState(enc);
    const int64_t end = NowNs();
    std::lock_guard<std::mutex> lock(sink_->mu);
    sink_->checkpoints.push_back({start, end});
  }

 private:
  LayerSink* sink_;
};

/// Total length of the union of `spans` (overlapping spans from parallel
/// node tasks count once).
int64_t UnionNs(std::vector<Span> spans) {
  std::sort(spans.begin(), spans.end(),
            [](const Span& a, const Span& b) { return a.start < b.start; });
  int64_t total = 0;
  int64_t open_start = 0;
  int64_t open_end = 0;
  bool open = false;
  for (const Span& span : spans) {
    if (open && span.start <= open_end) {
      open_end = std::max(open_end, span.end);
      continue;
    }
    if (open) total += open_end - open_start;
    open_start = span.start;
    open_end = span.end;
    open = true;
  }
  if (open) total += open_end - open_start;
  return total;
}

int64_t SumNs(const std::vector<Span>& spans) {
  int64_t total = 0;
  for (const Span& span : spans) total += span.end - span.start;
  return total;
}

struct Args {
  tools::ExperimentFlags exp;
  unsigned threads = 0;
  uint64_t checkpoint_every = 0;
  std::string checkpoint_path;
  std::string metrics_json;
  std::string layers_json;
};

std::optional<Args> Parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const tools::FlagParse shared =
        tools::ParseExperimentFlag(argv[i], &args.exp);
    if (shared == tools::FlagParse::kConsumed) continue;
    if (shared == tools::FlagParse::kError) return std::nullopt;
    std::string v;
    if (tools::FlagValue(argv[i], "--threads", &v)) {
      args.threads =
          static_cast<unsigned>(std::strtoul(v.c_str(), nullptr, 10));
    } else if (tools::FlagValue(argv[i], "--checkpoint-every", &v)) {
      args.checkpoint_every = std::stoull(v);
    } else if (tools::FlagValue(argv[i], "--checkpoint-path", &v)) {
      args.checkpoint_path = v;
    } else if (tools::FlagValue(argv[i], "--metrics-json", &v)) {
      args.metrics_json = v;
    } else if (tools::FlagValue(argv[i], "--layers-json", &v)) {
      args.layers_json = v;
    } else {
      std::fprintf(stderr, "perfbench_trace: unknown flag %s\n%s", argv[i],
                   tools::ExperimentFlagsUsage());
      return std::nullopt;
    }
  }
  if (args.metrics_json.empty() || args.layers_json.empty()) {
    std::fprintf(stderr,
                 "perfbench_trace: --metrics-json and --layers-json are "
                 "required\n");
    return std::nullopt;
  }
  return args;
}

/// The run's stream generators, as RunExperiment builds them.
std::vector<std::unique_ptr<WorkloadGenerator>> MakeStreams(
    const Catalog& catalog, const std::vector<ResolvedTemplate>& resolved,
    const ExperimentConfig& config, bool multi_tenant) {
  std::vector<std::unique_ptr<WorkloadGenerator>> streams;
  for (uint32_t t = 0; t < config.tenancy.tenants; ++t) {
    streams.push_back(std::make_unique<WorkloadGenerator>(
        &catalog, resolved,
        multi_tenant
            ? TenantWorkloadOptions(config.workload, config.tenancy, t)
            : config.workload));
  }
  return streams;
}

/// Times `queries` draws on twins of the run's generators, in the
/// simulator's merge order (earliest arrival, ties to the lowest tenant).
int64_t TimeTwinDraws(std::vector<std::unique_ptr<WorkloadGenerator>> twins,
                      uint64_t queries) {
  int64_t total = 0;
  for (uint64_t i = 0; i < queries; ++i) {
    size_t head = 0;
    for (size_t u = 1; u < twins.size(); ++u) {
      if (twins[u]->PeekNextArrival() < twins[head]->PeekNextArrival()) {
        head = u;
      }
    }
    const int64_t start = NowNs();
    twins[head]->Next();
    total += NowNs() - start;
  }
  return total;
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Args> parsed = Parse(argc, argv);
  if (!parsed) return 2;
  const Args& args = *parsed;
  const Status valid = tools::ValidateExperimentFlags(args.exp);
  if (!valid.ok()) {
    std::fprintf(stderr, "%s\n", valid.ToString().c_str());
    return 2;
  }
  Catalog catalog;
  std::vector<QueryTemplate> templates;
  const Status made =
      tools::MakeExperimentCatalog(args.exp, &catalog, &templates);
  if (!made.ok()) {
    std::fprintf(stderr, "%s\n", made.ToString().c_str());
    return 2;
  }
  Result<ExperimentConfig> built = tools::MakeExperimentFlagsConfig(args.exp);
  if (!built.ok()) {
    std::fprintf(stderr, "%s\n", built.status().ToString().c_str());
    return 2;
  }
  ExperimentConfig config = std::move(built).value();
  // cloudcache_sim's wiring: without a snapshot path the run is one
  // serial sweep cell; with one, --threads feeds the windowed driver.
  if (!args.checkpoint_path.empty()) {
    config.sim.checkpoint.every = args.checkpoint_every;
    config.sim.checkpoint.path = args.checkpoint_path;
    config.sim.parallel_threads = args.threads;
  }

  Result<std::vector<ResolvedTemplate>> resolved =
      ResolveTemplates(catalog, templates);
  if (!resolved.ok()) {
    std::fprintf(stderr, "%s\n", resolved.status().ToString().c_str());
    return 1;
  }
  const std::vector<StructureKey> indexes =
      RecommendIndexes(catalog, *resolved, config.index_candidates);

  // The scheme graph of MakeExperimentScheme, with every node wrapped.
  // Each node is built by MakeExperimentScheme itself from a single-node
  // copy of the config carrying that node's seed (ordinal 0 keeps the
  // experiment seed; rented ordinals use the salted seed experiment.cpp
  // derives — a drift there shows as instrumented != bare).
  const bool multi_tenant =
      config.tenancy.tenants > 1 || config.tenancy.force_event_path;
  const bool clustered = config.cluster.nodes > 1 ||
                         config.cluster.elastic ||
                         config.cluster.force_cluster_path;
  LayerSink sink;
  std::deque<ExperimentConfig> node_configs;  // Outlive their schemes.
  const auto node_factory = [&](uint32_t ordinal) -> std::unique_ptr<Scheme> {
    constexpr uint64_t kNodeSeedSalt = 0x636c757374657231ull;
    ExperimentConfig node = config;
    node.cluster = ClusterOptions();
    node.seed = ordinal == 0 ? config.seed
                             : MixSeed(config.seed, kNodeSeedSalt + ordinal);
    node_configs.push_back(std::move(node));
    return std::make_unique<TimedScheme>(
        MakeExperimentScheme(catalog, indexes, node_configs.back()), &sink);
  };
  std::unique_ptr<Scheme> scheme;
  if (clustered) {
    scheme = std::make_unique<TracedCluster>(
        &catalog, &config.decision_prices, config.cluster, node_factory,
        &sink);
  } else {
    scheme = node_factory(0);
  }

  SimulatorOptions sim_options = config.sim;
  sim_options.node_rent_multiplier = config.cluster.node_rent_multiplier;
  sim_options.checkpoint.config_hash = HashExperimentConfig(config);

  obs::StageProfiler::Instance().Reset();
  obs::StageProfiler::Instance().Enable(true);
  const std::vector<std::unique_ptr<WorkloadGenerator>> generators =
      MakeStreams(catalog, *resolved, config, multi_tenant);
  std::vector<WorkloadGenerator*> generator_ptrs;
  for (const auto& generator : generators) {
    generator_ptrs.push_back(generator.get());
  }

  const int64_t run_start = NowNs();
  Result<SimMetrics> run = Status::Internal("not run");
  if (multi_tenant) {
    Simulator simulator(&catalog, scheme.get(), std::move(generator_ptrs),
                        sim_options);
    run = simulator.RunChecked();
  } else if (clustered && sim_options.parallel_threads > 0) {
    ParallelNodeSimulator simulator(
        &catalog, static_cast<ClusterScheme*>(scheme.get()),
        generator_ptrs[0], sim_options);
    run = simulator.RunChecked();
  } else {
    Simulator simulator(&catalog, scheme.get(), generator_ptrs[0],
                        sim_options);
    run = simulator.RunChecked();
  }
  const int64_t run_ns = NowNs() - run_start;
  obs::StageProfiler::Instance().Enable(false);
  if (!run.ok()) {
    std::fprintf(stderr, "%s\n", run.status().ToString().c_str());
    return 1;
  }
  const SimMetrics metrics = std::move(run).value();
  scheme.reset();  // Retires every live node's spans into the sink.

  const int64_t draw_ns = TimeTwinDraws(
      MakeStreams(catalog, *resolved, config, multi_tenant), metrics.queries);

  obs::Registry registry;
  obs::FillFromSimMetrics(metrics, &registry);
  std::ofstream metrics_out(args.metrics_json,
                            std::ios::binary | std::ios::trunc);
  metrics_out << registry.RenderJson();
  metrics_out.close();
  if (!metrics_out) {
    std::fprintf(stderr, "cannot write %s\n", args.metrics_json.c_str());
    return 1;
  }

  std::vector<Span> below = sink.on_query;
  below.insert(below.end(), sink.checkpoints.begin(),
               sink.checkpoints.end());
  const obs::StageProfiler& profiler = obs::StageProfiler::Instance();
  std::string checkpoint_ns = "[";
  for (size_t i = 0; i < sink.checkpoints.size(); ++i) {
    if (i > 0) checkpoint_ns += ", ";
    checkpoint_ns += std::to_string(sink.checkpoints[i].end -
                                    sink.checkpoints[i].start);
  }
  checkpoint_ns += "]";
  std::FILE* out = std::fopen(args.layers_json.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", args.layers_json.c_str());
    return 1;
  }
  std::fprintf(
      out,
      "{\"queries\": %llu, \"run_ns\": %lld, \"draw_ns\": %lld,\n"
      " \"on_query_calls\": %zu, \"on_query_ns\": %lld,\n"
      " \"enumerate_ns\": %llu, \"skyline_ns\": %llu, \"price_ns\": %llu,\n"
      " \"settle_ns\": %llu, \"plan_cache_hits\": %llu,\n"
      " \"plan_cache_misses\": %llu, \"checkpoint_ns\": %s,\n"
      " \"below_driver_ns\": %lld}\n",
      static_cast<unsigned long long>(metrics.queries),
      static_cast<long long>(run_ns), static_cast<long long>(draw_ns),
      sink.on_query.size(), static_cast<long long>(SumNs(sink.on_query)),
      static_cast<unsigned long long>(profiler.nanos(obs::Stage::kEnumerate)),
      static_cast<unsigned long long>(profiler.nanos(obs::Stage::kSkyline)),
      static_cast<unsigned long long>(profiler.nanos(obs::Stage::kPrice)),
      static_cast<unsigned long long>(profiler.nanos(obs::Stage::kSettle)),
      static_cast<unsigned long long>(sink.plan_cache_hits),
      static_cast<unsigned long long>(sink.plan_cache_misses),
      checkpoint_ns.c_str(), static_cast<long long>(UnionNs(below)));
  std::fclose(out);
  return 0;
}
