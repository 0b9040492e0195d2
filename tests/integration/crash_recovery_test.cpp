// Crash-injection harness: kill a run mid-flight (no finalization, no
// snapshot at the crash point), restore from the last periodic checkpoint,
// continue — and pin that save → load → continue is bit-identical to the
// uninterrupted run, across every scheme, the multi-tenant merge, and the
// elastic cluster under both the serial and the windowed parallel driver.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "src/catalog/tpch.h"
#include "src/persist/snapshot.h"
#include "src/sim/experiment.h"
#include "tests/testing/metrics_equal.h"

namespace cloudcache {
namespace {

using testing::ExpectBitIdenticalCluster;
using testing::ExpectBitIdenticalMetrics;
using testing::ExpectBitIdenticalTenants;

class CrashRecoveryTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    catalog_ = new Catalog(MakeTpchCatalog(20.0));
    templates_ = new std::vector<QueryTemplate>(MakeTpchTemplates());
  }
  static void TearDownTestSuite() {
    delete catalog_;
    delete templates_;
  }

  ExperimentConfig BaseConfig(SchemeKind scheme, uint64_t queries) const {
    ExperimentConfig config;
    config.scheme = scheme;
    config.sim.num_queries = queries;
    config.workload.seed = 13;
    return config;
  }

  std::string SnapPath(const std::string& name) const {
    return ::testing::TempDir() + name + ".snap";
  }

  /// The harness proper: run uninterrupted; run again with periodic
  /// checkpoints and a crash at `crash_after` (must stop with
  /// kResourceExhausted); restore hard from the surviving snapshot and
  /// finish; return the resumed metrics after asserting the crash fired.
  SimMetrics CrashAndRecover(ExperimentConfig config, uint64_t every,
                             uint64_t crash_after,
                             const std::string& path) const {
    config.sim.checkpoint.every = every;
    config.sim.checkpoint.path = path;
    config.sim.checkpoint.crash_after = crash_after;
    Result<SimMetrics> crashed =
        RunExperimentChecked(*catalog_, *templates_, config);
    EXPECT_FALSE(crashed.ok());
    EXPECT_EQ(crashed.status().code(), StatusCode::kResourceExhausted)
        << crashed.status().ToString();

    config.sim.checkpoint.crash_after = 0;
    config.sim.checkpoint.restore = CheckpointOptions::Restore::kHard;
    Result<SimMetrics> resumed =
        RunExperimentChecked(*catalog_, *templates_, config);
    EXPECT_TRUE(resumed.ok()) << resumed.status().ToString();
    return resumed.ok() ? std::move(resumed).value() : SimMetrics{};
  }

  static Catalog* catalog_;
  static std::vector<QueryTemplate>* templates_;
};

Catalog* CrashRecoveryTest::catalog_ = nullptr;
std::vector<QueryTemplate>* CrashRecoveryTest::templates_ = nullptr;

TEST_F(CrashRecoveryTest, EverySchemeResumesBitIdentically) {
  for (SchemeKind scheme : PaperSchemes()) {
    const ExperimentConfig config = BaseConfig(scheme, 800);
    const SimMetrics plain =
        RunExperiment(*catalog_, *templates_, config);
    // Crash off a checkpoint boundary: queries 251..430 replay on resume.
    const SimMetrics resumed = CrashAndRecover(
        config, /*every=*/250, /*crash_after=*/430,
        SnapPath(std::string("scheme_") + SchemeKindToString(scheme)));
    ExpectBitIdenticalMetrics(plain, resumed);
    ExpectBitIdenticalTenants(plain, resumed);
    ExpectBitIdenticalCluster(plain, resumed);
  }
}

TEST_F(CrashRecoveryTest, MultiTenantEconomyResumesBitIdentically) {
  for (SchemeKind scheme :
       {SchemeKind::kEconCheap, SchemeKind::kBypassYield}) {
    ExperimentConfig config = BaseConfig(scheme, 700);
    config.tenancy.tenants = 3;
    config.tenancy.traffic_skew = 1.0;
    config.tenancy.fair_eviction = true;
    config.tenancy.admission = true;
    TenantBudgetShape cheap;
    cheap.tenant = 1;
    cheap.price_scale = 0.5;
    TenantBudgetShape rich;
    rich.tenant = 2;
    rich.price_scale = 2.0;
    rich.tmax_scale = 1.5;
    config.tenancy.tenant_budgets = {cheap, rich};
    const SimMetrics plain =
        RunExperiment(*catalog_, *templates_, config);
    // Crash exactly on a checkpoint boundary: the snapshot at 400 is
    // written first, then the crash fires — resume replays 401..700.
    const SimMetrics resumed = CrashAndRecover(
        config, /*every=*/200, /*crash_after=*/400,
        SnapPath(std::string("tenants_") + SchemeKindToString(scheme)));
    ExpectBitIdenticalMetrics(plain, resumed);
    ASSERT_EQ(resumed.tenants.size(), 3u);
    ExpectBitIdenticalTenants(plain, resumed);
  }
}

TEST_F(CrashRecoveryTest, ElasticClusterResumesBitIdentically) {
  // Serial classic driver over a clustered scheme (threads = 0).
  ExperimentConfig config = BaseConfig(SchemeKind::kEconCheap, 900);
  config.cluster.nodes = 2;
  config.cluster.elastic = true;
  config.cluster.elasticity.check_interval_queries = 300;
  const SimMetrics plain = RunExperiment(*catalog_, *templates_, config);
  const SimMetrics resumed = CrashAndRecover(
      config, /*every=*/250, /*crash_after=*/600, SnapPath("cluster_serial"));
  ExpectBitIdenticalMetrics(plain, resumed);
  ASSERT_TRUE(resumed.cluster.active);
  ExpectBitIdenticalCluster(plain, resumed);
}

TEST_F(CrashRecoveryTest, WindowedParallelDriverResumesAcrossThreadCounts) {
  // Windowed driver: snapshots land at window closes; a checkpoint taken
  // under one worker count must restore under another (worker count never
  // reaches the bits — the driver's core determinism pin).
  ExperimentConfig config = BaseConfig(SchemeKind::kEconCheap, 1500);
  config.cluster.nodes = 2;
  config.cluster.elastic = true;
  config.cluster.elasticity.check_interval_queries = 300;
  config.sim.parallel_threads = 2;
  const SimMetrics plain = RunExperiment(*catalog_, *templates_, config);

  const std::string path = SnapPath("cluster_windowed");
  ExperimentConfig crash = config;
  crash.sim.checkpoint.every = 400;
  crash.sim.checkpoint.path = path;
  crash.sim.checkpoint.crash_after = 700;
  Result<SimMetrics> crashed =
      RunExperimentChecked(*catalog_, *templates_, crash);
  ASSERT_FALSE(crashed.ok());
  ASSERT_EQ(crashed.status().code(), StatusCode::kResourceExhausted);

  ExperimentConfig resume = config;
  resume.sim.checkpoint.path = path;
  resume.sim.checkpoint.restore = CheckpointOptions::Restore::kHard;
  resume.sim.parallel_threads = 3;  // Different worker count than the save.
  Result<SimMetrics> resumed =
      RunExperimentChecked(*catalog_, *templates_, resume);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  ExpectBitIdenticalMetrics(plain, *resumed);
  ASSERT_TRUE(resumed->cluster.active);
  ExpectBitIdenticalCluster(plain, *resumed);
}

TEST_F(CrashRecoveryTest, SnapshotSchemeSectionIsFlatInRunLength) {
  // The scheme's share of a snapshot is its economy's live state, which
  // does not grow with the queries already served: at 10x the run length
  // the section stays within 25% of its size. Measured: 3030 bytes at 2k
  // queries and 3054 at 20k; the per-mutation credit transcript the
  // account once kept made it 67 KB and 643 KB.
  const auto scheme_bytes = [&](uint64_t boundary) -> size_t {
    ExperimentConfig config = BaseConfig(SchemeKind::kEconCheap, boundary + 1);
    config.sim.checkpoint.every = boundary;
    config.sim.checkpoint.path = SnapPath("flat_" + std::to_string(boundary));
    Result<SimMetrics> run =
        RunExperimentChecked(*catalog_, *templates_, config);
    EXPECT_TRUE(run.ok()) << run.status().ToString();
    Result<persist::SnapshotReader> reader =
        persist::SnapshotReader::FromFile(config.sim.checkpoint.path);
    EXPECT_TRUE(reader.ok()) << reader.status().ToString();
    if (!reader.ok()) return 0;
    Result<persist::Decoder> scheme = reader->Section("scheme");
    EXPECT_TRUE(scheme.ok()) << scheme.status().ToString();
    return scheme.ok() ? scheme->remaining() : 0;
  };
  const size_t short_run = scheme_bytes(2'000);
  const size_t long_run = scheme_bytes(20'000);
  ASSERT_GT(short_run, 0u);
  EXPECT_LE(long_run, short_run + short_run / 4)
      << short_run << " scheme bytes at 2k queries, " << long_run
      << " at 20k";
}

TEST_F(CrashRecoveryTest, PeriodicCheckpointsDoNotPerturbTheRun) {
  // Writing snapshots must be invisible to the economy: a checkpointed
  // run that never crashes equals the plain run bit for bit.
  const ExperimentConfig config = BaseConfig(SchemeKind::kEconFast, 600);
  const SimMetrics plain = RunExperiment(*catalog_, *templates_, config);
  ExperimentConfig checkpointed = config;
  checkpointed.sim.checkpoint.every = 100;
  checkpointed.sim.checkpoint.path = SnapPath("no_perturb");
  Result<SimMetrics> result =
      RunExperimentChecked(*catalog_, *templates_, checkpointed);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectBitIdenticalMetrics(plain, *result);
}

TEST_F(CrashRecoveryTest, CheckedRunnerWithoutCheckpointingIsRunExperiment) {
  const ExperimentConfig config = BaseConfig(SchemeKind::kEconCol, 500);
  Result<SimMetrics> checked =
      RunExperimentChecked(*catalog_, *templates_, config);
  ASSERT_TRUE(checked.ok());
  const SimMetrics plain = RunExperiment(*catalog_, *templates_, config);
  ExpectBitIdenticalMetrics(plain, *checked);
}

TEST_F(CrashRecoveryTest, AutoRestoreFallsBackToFreshOnMissingSnapshot) {
  const ExperimentConfig config = BaseConfig(SchemeKind::kEconCheap, 500);
  const SimMetrics plain = RunExperiment(*catalog_, *templates_, config);
  ExperimentConfig auto_config = config;
  auto_config.sim.checkpoint.path = SnapPath("never_written");
  auto_config.sim.checkpoint.restore = CheckpointOptions::Restore::kAuto;
  Result<SimMetrics> fresh =
      RunExperimentChecked(*catalog_, *templates_, auto_config);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  ExpectBitIdenticalMetrics(plain, *fresh);
}

TEST_F(CrashRecoveryTest, HardRestoreRejectsMismatchedConfiguration) {
  // Snapshot a single-tenant run, then ask a 3-tenant run to restore it:
  // the config hash must refuse before any state is touched.
  ExperimentConfig config = BaseConfig(SchemeKind::kEconCheap, 600);
  config.sim.checkpoint.every = 200;
  config.sim.checkpoint.path = SnapPath("mismatch");
  Result<SimMetrics> saved =
      RunExperimentChecked(*catalog_, *templates_, config);
  ASSERT_TRUE(saved.ok());

  ExperimentConfig other = config;
  other.tenancy.tenants = 3;
  other.sim.checkpoint.every = 0;
  other.sim.checkpoint.restore = CheckpointOptions::Restore::kHard;
  Result<SimMetrics> resumed =
      RunExperimentChecked(*catalog_, *templates_, other);
  ASSERT_FALSE(resumed.ok());
  EXPECT_EQ(resumed.status().code(), StatusCode::kFailedPrecondition);

  // The same mismatch under kAuto falls back to a fresh (3-tenant) run.
  other.sim.checkpoint.restore = CheckpointOptions::Restore::kAuto;
  Result<SimMetrics> fresh =
      RunExperimentChecked(*catalog_, *templates_, other);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  ExperimentConfig plain_config = other;
  plain_config.sim.checkpoint = CheckpointOptions{};
  const SimMetrics plain =
      RunExperiment(*catalog_, *templates_, plain_config);
  ExpectBitIdenticalMetrics(plain, *fresh);
  ExpectBitIdenticalTenants(plain, *fresh);
}

/// The whole file at `path` ("" if it cannot be read).
std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

TEST_F(CrashRecoveryTest, AutoRestoreKeepsARefusedSnapshot) {
  // A snapshot the run refuses (here: another configuration's) is set
  // aside as <path>.refused, byte for byte, so the fresh run cannot
  // overwrite it; a missing snapshot leaves nothing behind.
  ExperimentConfig config = BaseConfig(SchemeKind::kEconCheap, 600);
  config.sim.checkpoint.every = 200;
  config.sim.checkpoint.path = SnapPath("refused");
  std::remove((config.sim.checkpoint.path + ".refused").c_str());
  ASSERT_TRUE(RunExperimentChecked(*catalog_, *templates_, config).ok());
  const std::string saved = ReadAll(config.sim.checkpoint.path);
  ASSERT_FALSE(saved.empty());

  ExperimentConfig other = config;
  other.tenancy.tenants = 2;
  other.sim.checkpoint.restore = CheckpointOptions::Restore::kAuto;
  Result<SimMetrics> fresh =
      RunExperimentChecked(*catalog_, *templates_, other);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  EXPECT_EQ(ReadAll(config.sim.checkpoint.path + ".refused"), saved);
  // The fresh run checkpointed its own state in the original's place.
  const std::string rewritten = ReadAll(config.sim.checkpoint.path);
  EXPECT_FALSE(rewritten.empty());
  EXPECT_NE(rewritten, saved);

  ExperimentConfig missing = BaseConfig(SchemeKind::kEconCheap, 300);
  missing.sim.checkpoint.path = SnapPath("absent");
  std::remove(missing.sim.checkpoint.path.c_str());
  missing.sim.checkpoint.restore = CheckpointOptions::Restore::kAuto;
  ASSERT_TRUE(RunExperimentChecked(*catalog_, *templates_, missing).ok());
  std::ifstream kept(missing.sim.checkpoint.path + ".refused");
  EXPECT_FALSE(kept.good());
}

}  // namespace
}  // namespace cloudcache
