#include "src/sim/sweep.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "src/catalog/tpch.h"

namespace cloudcache {
namespace {

// --- Grid-enumeration unit tests (no simulation). -------------------------

TEST(SweepSpecTest, EnumeratesFigureGridInRowMajorOrder) {
  SweepSpec spec;  // Defaults: paper schemes x paper interarrivals.
  EXPECT_EQ(spec.CellCount(), 16u);
  const std::vector<SweepCell> cells = EnumerateSweepCells(spec);
  ASSERT_EQ(cells.size(), 16u);
  for (size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(cells[i].index, i);
    EXPECT_EQ(cells[i].interarrival_index, i / 4);
    EXPECT_EQ(cells[i].scheme_index, i % 4);
    EXPECT_EQ(cells[i].scheme, PaperSchemes()[i % 4]);
    EXPECT_EQ(cells[i].interarrival_seconds, PaperInterarrivals()[i / 4]);
  }
  EXPECT_EQ(cells[0].label, "bypass @ 1s");
}

TEST(SweepSpecTest, VariantAxisLabelsAndCustomizesCells) {
  SweepSpec spec;
  spec.schemes = {SchemeKind::kEconCheap};
  spec.interarrivals = {10.0};
  spec.variants = {
      {"a=0.01", [](ExperimentConfig& c) {
         c.customize_econ = [](EconScheme::Config& econ) {
           econ.economy.regret_fraction_a = 0.01;
         };
       }},
      {"a=0.10", [](ExperimentConfig& c) {
         c.customize_econ = [](EconScheme::Config& econ) {
           econ.economy.regret_fraction_a = 0.10;
         };
       }},
  };
  const std::vector<SweepCell> cells = EnumerateSweepCells(spec);
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_EQ(cells[0].label, "econ-cheap @ 10s [a=0.01]");
  EXPECT_EQ(cells[1].label, "econ-cheap @ 10s [a=0.10]");

  EconScheme::Config econ;
  ExperimentConfig config = MakeCellConfig(spec, cells[1]);
  ASSERT_TRUE(config.customize_econ != nullptr);
  config.customize_econ(econ);
  EXPECT_DOUBLE_EQ(econ.economy.regret_fraction_a, 0.10);
}

TEST(SweepSpecTest, CellConfigCarriesSchemeIntervalAndSeed) {
  SweepSpec spec;
  spec.base.sim.num_queries = 123;
  spec.base.workload.seed = 41;
  spec.base.seed = 43;
  const std::vector<SweepCell> cells = EnumerateSweepCells(spec);
  const SweepCell& cell = cells[7];  // econ-fast @ 10s.
  const ExperimentConfig config = MakeCellConfig(spec, cell);
  EXPECT_EQ(config.scheme, cell.scheme);
  EXPECT_DOUBLE_EQ(config.workload.interarrival_seconds,
                   cell.interarrival_seconds);
  // The base seeds reach every cell unchanged.
  EXPECT_EQ(config.workload.seed, 41u);
  EXPECT_EQ(config.seed, 43u);
  EXPECT_EQ(config.sim.num_queries, 123u);  // Base fields survive.
}

/// Two variants on distinct query streams: how the bit-identity pins below
/// give every variant its own workload and scheme seeds.
std::vector<SweepVariant> SeedVariants(uint64_t first, uint64_t second) {
  std::vector<SweepVariant> variants;
  for (uint64_t seed : {first, second}) {
    variants.push_back({"seed=" + std::to_string(seed),
                        [seed](ExperimentConfig& config) {
                          config.workload.seed = seed;
                          config.seed = seed + 1;
                        }});
  }
  return variants;
}

TEST(SweepSpecTest, SeedVariantsSetTheirOwnStreams) {
  SweepSpec spec;
  spec.variants = SeedVariants(23, 24);
  const std::vector<SweepCell> cells = EnumerateSweepCells(spec);
  ASSERT_EQ(cells.size(), 32u);
  EXPECT_EQ(MakeCellConfig(spec, cells[0]).workload.seed, 23u);
  EXPECT_EQ(MakeCellConfig(spec, cells[0]).seed, 24u);
  EXPECT_EQ(MakeCellConfig(spec, cells[16]).workload.seed, 24u);
  EXPECT_EQ(MakeCellConfig(spec, cells[16]).seed, 25u);
}

// --- Thread-count invariance on the real Fig. 4 grid. ---------------------

/// Exact (bitwise, for doubles) equality over everything a SimMetrics
/// carries that reports can see. Any scheduling leak shows up here.
void ExpectBitIdentical(const SimMetrics& a, const SimMetrics& b) {
  EXPECT_EQ(a.scheme_name, b.scheme_name);

  EXPECT_EQ(a.response_seconds.count(), b.response_seconds.count());
  EXPECT_EQ(a.response_seconds.mean(), b.response_seconds.mean());
  EXPECT_EQ(a.response_seconds.sum(), b.response_seconds.sum());
  EXPECT_EQ(a.response_seconds.min(), b.response_seconds.min());
  EXPECT_EQ(a.response_seconds.max(), b.response_seconds.max());
  for (double q : {0.0, 0.5, 0.95, 0.99, 1.0}) {
    EXPECT_EQ(a.response_hist.Quantile(q), b.response_hist.Quantile(q));
  }
  EXPECT_TRUE(obs::BitIdentical(a.response_hist, b.response_hist));

  EXPECT_EQ(a.operating_cost.cpu_dollars, b.operating_cost.cpu_dollars);
  EXPECT_EQ(a.operating_cost.network_dollars,
            b.operating_cost.network_dollars);
  EXPECT_EQ(a.operating_cost.disk_dollars, b.operating_cost.disk_dollars);
  EXPECT_EQ(a.operating_cost.io_dollars, b.operating_cost.io_dollars);

  EXPECT_EQ(a.revenue.micros(), b.revenue.micros());
  EXPECT_EQ(a.profit.micros(), b.profit.micros());
  EXPECT_EQ(a.final_credit.micros(), b.final_credit.micros());

  EXPECT_EQ(a.queries, b.queries);
  EXPECT_EQ(a.served, b.served);
  EXPECT_EQ(a.served_in_cache, b.served_in_cache);
  EXPECT_EQ(a.served_in_backend, b.served_in_backend);
  EXPECT_EQ(a.wan_bytes, b.wan_bytes);
  EXPECT_EQ(a.investments, b.investments);
  EXPECT_EQ(a.evictions, b.evictions);
  EXPECT_EQ(a.case_a, b.case_a);
  EXPECT_EQ(a.case_b, b.case_b);
  EXPECT_EQ(a.case_c, b.case_c);
  EXPECT_EQ(a.final_resident_bytes, b.final_resident_bytes);
  EXPECT_EQ(a.final_extra_nodes, b.final_extra_nodes);

  ASSERT_EQ(a.cost_over_time.size(), b.cost_over_time.size());
  EXPECT_EQ(a.cost_over_time.times(), b.cost_over_time.times());
  EXPECT_EQ(a.cost_over_time.values(), b.cost_over_time.values());
  ASSERT_EQ(a.credit_over_time.size(), b.credit_over_time.size());
  EXPECT_EQ(a.credit_over_time.times(), b.credit_over_time.times());
  EXPECT_EQ(a.credit_over_time.values(), b.credit_over_time.values());
}

/// The Fig. 4 grid (all four schemes x all four paper inter-arrivals) at
/// CI scale on two query streams, run serially and with a saturated pool.
TEST(RunSweepTest, Fig4GridBitIdenticalAcrossThreadCounts) {
  const Catalog catalog = MakeTpchCatalog(100.0);
  const std::vector<QueryTemplate> templates = MakeTpchTemplates();

  SweepSpec spec;  // Fig. 4 grid is the default scheme/interval product.
  spec.variants = SeedVariants(23, 24);
  spec.base.sim.num_queries = 400;
  spec.base.customize_econ = [](EconScheme::Config& econ) {
    econ.economy.regret_fraction_a = 0.001;
    econ.economy.conservative_provider = false;
    econ.economy.initial_credit = Money::FromDollars(20);
    econ.economy.model_build_latency = false;
  };

  const unsigned hardware =
      std::max(2u, std::thread::hardware_concurrency());
  const std::vector<SweepResult> serial =
      RunSweep(catalog, templates, spec, /*n_threads=*/1);
  const std::vector<SweepResult> parallel =
      RunSweep(catalog, templates, spec, hardware);

  ASSERT_EQ(serial.size(), spec.CellCount());
  ASSERT_EQ(parallel.size(), serial.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].cell.index, i);
    EXPECT_EQ(parallel[i].cell.label, serial[i].cell.label);
    ExpectBitIdentical(parallel[i].metrics, serial[i].metrics);
  }
  // The grid really ran: every scheme served its queries.
  for (const SweepResult& result : serial) {
    EXPECT_EQ(result.metrics.queries, 400u) << result.cell.label;
  }
}

TEST(RunSweepTest, ProgressCallbackFiresOncePerCell) {
  const Catalog catalog = MakeTpchCatalog(100.0);
  const std::vector<QueryTemplate> templates = MakeTpchTemplates();

  SweepSpec spec;
  spec.schemes = {SchemeKind::kBypassYield};
  spec.interarrivals = {1.0, 10.0};
  spec.base.sim.num_queries = 50;

  std::mutex mutex;
  std::vector<size_t> seen;
  const std::vector<SweepResult> results = RunSweep(
      catalog, templates, spec, /*n_threads=*/2,
      [&mutex, &seen](const SweepCell& cell, const SimMetrics&) {
        std::lock_guard<std::mutex> lock(mutex);
        seen.push_back(cell.index);
      });
  EXPECT_EQ(results.size(), 2u);
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(seen, (std::vector<size_t>{0, 1}));
}

}  // namespace
}  // namespace cloudcache
