// Golden pins for the named experiment grids (`cloudcache_sim --sweep=`).
//
// Each file in testdata/grids/ is the stdout of one of the per-figure
// bench binaries the grid table replaced (bench/fig4_operating_cost,
// bench/ablation_*, bench/multi_tenant, ...), captured with
// `--queries=3000 --seed=17 --threads=1` at the default 2.5 TB. Those
// binaries ran on the shared flags config at 3000 queries and seed 17
// with a scheme seed of 18; over that base every grid must reproduce its
// file byte for byte, at one sweep worker and at four.

#include "src/sim/grids.h"

#include <gtest/gtest.h>

#include <fstream>
#include <ostream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "tools/experiment_flags.h"

namespace cloudcache {
namespace {

/// Grids whose reports, joined by a blank line, equal the goldens joined
/// the same way.
struct GoldenPin {
  const char* name;  // Test-name suffix.
  std::vector<std::string> grids;
  std::vector<std::string> goldens;
};

void PrintTo(const GoldenPin& pin, std::ostream* os) { *os << pin.name; }

const std::vector<GoldenPin>& Pins() {
  static const std::vector<GoldenPin> pins = {
      {"paper", {"paper"}, {"fig4_operating_cost", "fig5_response_time"}},
      {"fig4", {"fig4"}, {"fig4_operating_cost"}},
      {"fig5", {"fig5"}, {"fig5_response_time"}},
      {"regret_threshold", {"regret-threshold"},
       {"ablation_regret_threshold"}},
      {"amortization", {"amortization"}, {"ablation_amortization"}},
      {"network", {"network"}, {"ablation_network"}},
      {"cache_size", {"cache-size"}, {"ablation_cache_size"}},
      {"locality", {"locality"}, {"ablation_locality"}},
      {"budget_shape", {"budget-shape"}, {"ablation_budget_shape"}},
      {"multi_tenant", {"multi-tenant", "tenant-policy"}, {"multi_tenant"}},
  };
  return pins;
}

std::string ReadGolden(const std::string& name) {
  const std::string path =
      std::string(CLOUDCACHE_TESTDATA_DIR) + "/grids/" + name + ".txt";
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing golden " << path;
  std::ostringstream contents;
  contents << in.rdbuf();
  return contents.str();
}

const Grid* Find(const std::vector<Grid>& grids, const std::string& name) {
  for (const Grid& grid : grids) {
    if (grid.name == name) return &grid;
  }
  return nullptr;
}

/// The retired binaries' base: the shared flags config, 3000 queries,
/// workload seed 17, scheme seed 18.
ExperimentConfig RetiredBinaryBase() {
  tools::ExperimentFlags flags;
  flags.queries = 3000;
  flags.seed = 17;
  ExperimentConfig config = tools::MakeExperimentFlagsConfig(flags).value();
  config.seed = flags.seed + 1;
  return config;
}

class GridGoldenTest
    : public ::testing::TestWithParam<std::tuple<GoldenPin, unsigned>> {};

TEST_P(GridGoldenTest, MatchesGolden) {
  const auto& [pin, threads] = GetParam();
  Catalog catalog;
  std::vector<QueryTemplate> templates;
  ASSERT_TRUE(tools::MakeExperimentCatalog(tools::ExperimentFlags{},
                                           &catalog, &templates)
                  .ok());
  const std::vector<Grid> grids = MakeGrids();

  std::string expected;
  for (const std::string& golden : pin.goldens) {
    expected += (expected.empty() ? "" : "\n") + ReadGolden(golden);
  }
  std::string actual;
  for (const std::string& name : pin.grids) {
    const Grid* grid = Find(grids, name);
    ASSERT_NE(grid, nullptr) << name;
    actual += (actual.empty() ? "" : "\n") +
              RunGrid(catalog, templates, *grid, RetiredBinaryBase(), threads);
  }
  EXPECT_EQ(actual, expected);
}

INSTANTIATE_TEST_SUITE_P(
    Pins, GridGoldenTest,
    ::testing::Combine(::testing::ValuesIn(Pins()),
                       ::testing::Values(1u, 4u)),
    [](const ::testing::TestParamInfo<GridGoldenTest::ParamType>& info) {
      return std::string(std::get<0>(info.param).name) + "_" +
             std::to_string(std::get<1>(info.param)) + "threads";
    });

TEST(GridTableTest, EveryGridIsPinnedAndNamedOnce) {
  std::set<std::string> pinned;
  for (const GoldenPin& pin : Pins()) {
    pinned.insert(pin.grids.begin(), pin.grids.end());
  }
  std::set<std::string> names;
  for (const Grid& grid : MakeGrids()) {
    EXPECT_TRUE(names.insert(grid.name).second) << "duplicate " << grid.name;
    EXPECT_EQ(pinned.count(grid.name), 1u) << grid.name << " has no golden";
  }
  EXPECT_EQ(names.count(kDefaultGrid), 1u);
}

TEST(GridTableTest, VariantsWrapTheBaseEconHook) {
  // A variant tunes its one knob on top of the base hook, so the CLI's
  // flags (here a seed credit) still reach every cell.
  const std::vector<Grid> grids = MakeGrids();
  const Grid* grid = Find(grids, "amortization");
  ASSERT_NE(grid, nullptr);
  ExperimentConfig config;
  config.customize_econ = [](EconScheme::Config& econ) {
    econ.economy.initial_credit = Money::FromDollars(123);
    econ.economy.amortization_horizon = 7;
  };
  grid->variants.front().customize(config);
  EconScheme::Config econ;
  config.customize_econ(econ);
  EXPECT_EQ(econ.economy.initial_credit, Money::FromDollars(123));
  EXPECT_EQ(econ.economy.amortization_horizon, 100);
}

}  // namespace
}  // namespace cloudcache
