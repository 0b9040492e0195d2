// Snapshot-format pin. Three committed snapshots, one per driver shape,
// were written by cloudcache_sim; the drivers must keep reading them:
//
//  1. each snapshot restores into the driver that wrote it;
//  2. each is refused, with a descriptive Status, by the other two
//     drivers (the driver-mode tag in the "meta" section);
//  3. for the two serial shapes, restore -> ExternalBegin ->
//     ExternalCheckpoint at the same boundary, with nothing served in
//     between, writes the committed bytes back exactly. No arithmetic
//     runs between the load and the save, so this holds on any compiler.
//
// Regenerate only on a deliberate format change (it must bump
// persist::kSnapshotFormatVersion). From the repository root, for each shape
// below run
//
//   cloudcache_sim <flags> --threads=<threads>
//       --checkpoint-path=tests/persist/testdata/<file>
//       --checkpoint-every=<every> --crash-after=<every>
//
// which writes the snapshot at the first boundary and exits 3. Before
// regenerating, copy the outgoing single_stream.snap over the old-format
// fixture (v<old version>_single_stream.snap, which replaces the one
// before it), so the refusal of the previous format stays pinned here and
// by the tools/OldSnapshot.* checks in tests/CMakeLists.txt.

#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "src/persist/snapshot.h"
#include "src/sim/experiment.h"
#include "src/sim/node_parallel.h"
#include "src/structure/index_advisor.h"
#include "tools/experiment_flags.h"

namespace cloudcache {
namespace {

struct PinShape {
  const char* file;
  std::vector<const char*> flags;
  uint32_t threads;  // > 0: the windowed parallel driver.
  uint64_t every;    // The checkpoint (and crash) boundary.
};

const std::vector<PinShape>& Shapes() {
  static const std::vector<PinShape> shapes = {
      {"single_stream.snap", {"--queries=400", "--scale-tb=0.05"}, 0, 200},
      {"three_tenants.snap",
       {"--queries=400", "--scale-tb=0.05", "--tenants=3"},
       0,
       200},
      {"windowed.snap",
       {"--queries=1200", "--scale-tb=0.05", "--nodes=2"},
       2,
       500},
  };
  return shapes;
}

std::string PinPath(const PinShape& shape) {
  return std::string(CLOUDCACHE_TESTDATA_DIR) + "/" + shape.file;
}

std::vector<uint8_t> ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(in), {});
}

tools::ExperimentFlags ShapeFlags(const PinShape& shape) {
  tools::ExperimentFlags flags;
  for (const char* flag : shape.flags) {
    EXPECT_EQ(tools::ParseExperimentFlag(flag, &flags),
              tools::FlagParse::kConsumed)
        << flag;
  }
  return flags;
}

/// One shape's object graph and driver, built the way RunExperiment
/// builds it, except that the snapshot header's config hash is supplied
/// by the caller (so a foreign-shape snapshot reaches the driver-mode
/// check instead of stopping at the hash).
class PinnedDriver {
 public:
  PinnedDriver(const PinShape& shape, uint64_t config_hash,
               const std::string& save_path) {
    const tools::ExperimentFlags flags = ShapeFlags(shape);
    EXPECT_TRUE(tools::MakeExperimentCatalog(flags, &catalog_, &templates_)
                    .ok());
    Result<ExperimentConfig> config = tools::MakeExperimentFlagsConfig(flags);
    EXPECT_TRUE(config.ok());
    config_ = std::move(config).value();
    config_.sim.parallel_threads = shape.threads;

    Result<std::vector<ResolvedTemplate>> resolved =
        ResolveTemplates(catalog_, templates_);
    EXPECT_TRUE(resolved.ok());
    resolved_ = std::move(resolved).value();
    indexes_ = RecommendIndexes(catalog_, resolved_, config_.index_candidates);
    scheme_ = MakeExperimentScheme(catalog_, indexes_, config_);

    const bool multi_tenant = config_.tenancy.tenants > 1;
    std::vector<WorkloadGenerator*> streams;
    for (uint32_t t = 0; t < config_.tenancy.tenants; ++t) {
      streams_.push_back(std::make_unique<WorkloadGenerator>(
          &catalog_, resolved_,
          multi_tenant
              ? TenantWorkloadOptions(config_.workload, config_.tenancy, t)
              : config_.workload));
      streams.push_back(streams_.back().get());
    }

    SimulatorOptions options = config_.sim;
    options.node_rent_multiplier = config_.cluster.node_rent_multiplier;
    options.checkpoint.config_hash = config_hash;
    options.checkpoint.path = save_path;
    if (shape.threads > 0) {
      windowed_ = std::make_unique<ParallelNodeSimulator>(
          &catalog_, static_cast<ClusterScheme*>(scheme_.get()), streams[0],
          options);
    } else if (multi_tenant) {
      serial_ = std::make_unique<Simulator>(&catalog_, scheme_.get(),
                                            streams, options);
    } else {
      serial_ = std::make_unique<Simulator>(&catalog_, scheme_.get(),
                                            streams[0], options);
    }
  }

  Status Restore(const persist::SnapshotReader& reader) {
    return windowed_ != nullptr ? windowed_->RestoreFrom(reader)
                                : serial_->RestoreFrom(reader);
  }

  Simulator* serial() { return serial_.get(); }
  ParallelNodeSimulator* windowed() { return windowed_.get(); }
  uint64_t num_queries() const { return config_.sim.num_queries; }

 private:
  Catalog catalog_;
  std::vector<QueryTemplate> templates_;
  ExperimentConfig config_;
  std::vector<ResolvedTemplate> resolved_;
  std::vector<StructureKey> indexes_;
  std::unique_ptr<Scheme> scheme_;
  std::vector<std::unique_ptr<WorkloadGenerator>> streams_;
  std::unique_ptr<Simulator> serial_;
  std::unique_ptr<ParallelNodeSimulator> windowed_;
};

uint64_t ShapeHash(const PinShape& shape) {
  Result<ExperimentConfig> config =
      tools::MakeExperimentFlagsConfig(ShapeFlags(shape));
  EXPECT_TRUE(config.ok());
  return HashExperimentConfig(config.value());
}

TEST(SnapshotFormatTest, EachPinRestoresIntoItsOwnDriver) {
  for (const PinShape& shape : Shapes()) {
    SCOPED_TRACE(shape.file);
    Result<persist::SnapshotReader> reader =
        persist::SnapshotReader::FromFile(PinPath(shape));
    ASSERT_TRUE(reader.ok()) << reader.status().ToString();
    PinnedDriver driver(shape, ShapeHash(shape), "");
    const Status restored = driver.Restore(reader.value());
    ASSERT_TRUE(restored.ok()) << restored.ToString();
    if (driver.windowed() != nullptr) {
      // The windowed driver has no external surface; finishing the run
      // shows the restored fleet and rent books are usable.
      Result<SimMetrics> finished = driver.windowed()->RunChecked();
      ASSERT_TRUE(finished.ok()) << finished.status().ToString();
      EXPECT_EQ(finished->queries, driver.num_queries());
    }
  }
}

TEST(SnapshotFormatTest, EachPinIsRefusedByTheOtherDrivers) {
  for (const PinShape& pin : Shapes()) {
    Result<persist::SnapshotReader> reader =
        persist::SnapshotReader::FromFile(PinPath(pin));
    ASSERT_TRUE(reader.ok()) << reader.status().ToString();
    for (const PinShape& other : Shapes()) {
      if (&other == &pin) continue;
      SCOPED_TRACE(std::string(pin.file) + " into " + other.file);
      PinnedDriver driver(other, ShapeHash(pin), "");
      const Status restored = driver.Restore(reader.value());
      EXPECT_EQ(restored.code(), StatusCode::kFailedPrecondition)
          << restored.ToString();
      EXPECT_NE(restored.message().find("driver mode"), std::string::npos)
          << restored.ToString();
    }
  }
}

TEST(SnapshotFormatTest, SerialPinsResaveByteForByte) {
  for (const PinShape& shape : Shapes()) {
    if (shape.threads > 0) continue;
    SCOPED_TRACE(shape.file);
    const std::string resaved =
        ::testing::TempDir() + "resaved_" + shape.file;
    Result<persist::SnapshotReader> reader =
        persist::SnapshotReader::FromFile(PinPath(shape));
    ASSERT_TRUE(reader.ok()) << reader.status().ToString();
    PinnedDriver driver(shape, ShapeHash(shape), resaved);
    const Status restored = driver.Restore(reader.value());
    ASSERT_TRUE(restored.ok()) << restored.ToString();
    driver.serial()->ExternalBegin();
    EXPECT_EQ(driver.serial()->external_processed(), shape.every);
    const Status saved = driver.serial()->ExternalCheckpoint();
    ASSERT_TRUE(saved.ok()) << saved.ToString();
    const std::vector<uint8_t> pinned = ReadBytes(PinPath(shape));
    ASSERT_FALSE(pinned.empty());
    EXPECT_TRUE(ReadBytes(resaved) == pinned)
        << "re-saved snapshot differs from the committed pin";
  }
}

TEST(SnapshotFormatTest, OldFormatIsRefusedNamingItsVersion) {
  // single_stream.snap as format v2 wrote it (v3 dropped the account's
  // credit history and added the timelines' stride): refused up front,
  // before any section is decoded.
  Result<persist::SnapshotReader> reader = persist::SnapshotReader::FromFile(
      std::string(CLOUDCACHE_TESTDATA_DIR) + "/v2_single_stream.snap");
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(reader.status().message().find("version 2"), std::string::npos)
      << reader.status().ToString();
}

}  // namespace
}  // namespace cloudcache
