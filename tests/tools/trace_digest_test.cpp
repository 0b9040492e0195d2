// Golden pins of the economic event trace (`cloudcache_sim --trace`) for
// three eviction-heavy runs: every invest and maintenance-failure evict
// record — which structure, when, at what owed rent and threshold — must
// stay byte for byte what the every-resident failure scan produced. The
// digests are FNV-1a 64 over the JSONL bytes `cloudcache_sim --trace=F
// --queries=20000 <flags>` writes; regenerate them only for a deliberate
// change of the economy's decisions or of the trace format.

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "src/obs/trace.h"
#include "src/sim/experiment.h"
#include "tools/experiment_flags.h"

namespace cloudcache {
namespace {

uint64_t Fnv1a64(const std::string& bytes) {
  uint64_t hash = 0xcbf29ce484222325ull;
  for (unsigned char byte : bytes) {
    hash ^= byte;
    hash *= 0x100000001b3ull;
  }
  return hash;
}

/// The `--trace` output of one cloudcache_sim run with `args`.
std::string TraceOf(const std::vector<const char*>& args) {
  tools::ExperimentFlags flags;
  for (const char* arg : args) {
    EXPECT_EQ(tools::ParseExperimentFlag(arg, &flags),
              tools::FlagParse::kConsumed)
        << arg;
  }
  Catalog catalog;
  std::vector<QueryTemplate> templates;
  EXPECT_TRUE(tools::MakeExperimentCatalog(flags, &catalog, &templates).ok());
  Result<ExperimentConfig> config = tools::MakeExperimentFlagsConfig(flags);
  EXPECT_TRUE(config.ok());
  if (!config.ok()) return "";
  std::ostringstream out;
  obs::EventTracer tracer(&out);
  config.value().tracer = &tracer;
  RunExperiment(catalog, templates, config.value());
  tracer.Flush();
  return out.str();
}

/// Runs `args` and checks the trace against its pinned size and digest.
void ExpectTracePin(const std::vector<const char*>& args, uint64_t digest,
                    size_t bytes) {
  const std::string trace = TraceOf(args);
  EXPECT_NE(trace.find("\"reason\":\"maintenance\""), std::string::npos);
  EXPECT_EQ(trace.size(), bytes);
  EXPECT_EQ(Fnv1a64(trace), digest)
      << "digest 0x" << std::hex << Fnv1a64(trace);
}

TEST(TraceDigestTest, EconCheapSeed17) {
  ExpectTracePin({"--queries=20000", "--scheme=econ-cheap", "--seed=17"},
                 0xcf6029798f2dc778ull, 10404);
}

TEST(TraceDigestTest, FourTenantsWithFairEvictionAndAdmission) {
  ExpectTracePin(
      {"--queries=20000", "--tenants=4", "--fair-eviction", "--admission"},
      0xaf2fc042f71d4db2ull, 10353);
}

TEST(TraceDigestTest, BuildLatency) {
  ExpectTracePin({"--queries=20000", "--build-latency"},
                 0xc0eb4c0c7a2bf6fbull, 20138);
}

}  // namespace
}  // namespace cloudcache
