// The shared experiment flag surface: every numeric value is parsed whole
// or refused as a flag error (exit 2 in the binaries), never truncated,
// wrapped, defaulted to 0, or thrown as an uncaught exception.

#include "tools/experiment_flags.h"

#include <gtest/gtest.h>

#include <string>

namespace cloudcache {
namespace {

using tools::ExperimentFlags;
using tools::FlagParse;
using tools::ParseExperimentFlag;

struct FlagCase {
  const char* arg;
  FlagParse expected;
};

TEST(ExperimentFlagsTest, MalformedNumbersAreFlagErrors) {
  const FlagCase cases[] = {
      {"--queries=abc", FlagParse::kError},
      {"--queries=12abc", FlagParse::kError},
      {"--queries=", FlagParse::kError},
      {"--queries=-5", FlagParse::kError},
      {"--queries= 5", FlagParse::kError},
      {"--queries=99999999999999999999999", FlagParse::kError},
      {"--seed=", FlagParse::kError},
      {"--seed=0x11", FlagParse::kError},
      {"--scale-tb=x1", FlagParse::kError},
      {"--scale-tb=1.5TB", FlagParse::kError},
      {"--scale-tb=1e999", FlagParse::kError},
      {"--scale-tb=nan", FlagParse::kError},
      {"--interarrival=inf", FlagParse::kError},
      {"--skew=", FlagParse::kError},
      {"--repeat=0.3.1", FlagParse::kError},
      {"--regret-a=a", FlagParse::kError},
      {"--horizon=1.5", FlagParse::kError},
      {"--credit=$200", FlagParse::kError},
      {"--tenants=abc", FlagParse::kError},
      {"--tenants=4294967296", FlagParse::kError},
      {"--tenant-skew=1,5", FlagParse::kError},
      {"--admission-ratio=", FlagParse::kError},
      {"--tenant-budget=1:x", FlagParse::kError},
      {"--tenant-budget=1:0.5:", FlagParse::kError},
      {"--tenant-budget=-1:0.5", FlagParse::kError},
      {"--nodes=two", FlagParse::kError},
      {"--node-rent-multiplier=", FlagParse::kError},
      {"--max-nodes=4x", FlagParse::kError},
      // Not this parser's flags: the caller handles (or rejects) them.
      {"--threads=abc", FlagParse::kNotMine},
      {"--queries", FlagParse::kNotMine},
      {"--queriesx=5", FlagParse::kNotMine},
  };
  for (const FlagCase& c : cases) {
    ExperimentFlags flags;
    EXPECT_EQ(ParseExperimentFlag(c.arg, &flags), c.expected) << c.arg;
    // A refused value leaves the default in place.
    EXPECT_EQ(flags.queries, ExperimentFlags{}.queries) << c.arg;
    EXPECT_EQ(flags.scale_tb, ExperimentFlags{}.scale_tb) << c.arg;
    EXPECT_EQ(flags.tenants, ExperimentFlags{}.tenants) << c.arg;
    EXPECT_TRUE(flags.tenant_budgets.empty()) << c.arg;
  }
}

TEST(ExperimentFlagsTest, WellFormedNumbersApply) {
  ExperimentFlags flags;
  for (const char* arg :
       {"--queries=3000", "--seed=0", "--scale-tb=0.25", "--interarrival=2.5",
        "--horizon=-1", "--tenants=4", "--credit=1e3", "--max-nodes=8",
        "--tenant-budget=3:0.5:2"}) {
    EXPECT_EQ(ParseExperimentFlag(arg, &flags), FlagParse::kConsumed) << arg;
  }
  EXPECT_EQ(flags.queries, 3000u);
  EXPECT_EQ(flags.seed, 0u);
  EXPECT_EQ(flags.scale_tb, 0.25);
  EXPECT_EQ(flags.interarrival, 2.5);
  EXPECT_TRUE(flags.interarrival_set);
  EXPECT_EQ(flags.horizon, -1);
  EXPECT_EQ(flags.tenants, 4u);
  EXPECT_EQ(flags.initial_credit, 1000.0);
  EXPECT_EQ(flags.max_nodes, 8u);
  ASSERT_EQ(flags.tenant_budgets.size(), 1u);
  EXPECT_EQ(flags.tenant_budgets[0].tenant, 3u);
  EXPECT_EQ(flags.tenant_budgets[0].price_scale, 0.5);
  EXPECT_EQ(flags.tenant_budgets[0].tmax_scale, 2.0);
}

}  // namespace
}  // namespace cloudcache
