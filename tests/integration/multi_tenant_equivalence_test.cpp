// The multi-tenant simulator is an event-driven generalization of the
// paper's single-stream loop, and three properties pin it down:
//
//  1. Collapse: with one tenant, the merged schedule IS the single
//     stream, so the event-driven path must reproduce the classic path's
//     SimMetrics bit for bit — every count, micro-dollar, double, and
//     timeline byte (the `--tenants=1` equivalence of the roadmap).
//  2. Determinism: an N-tenant run is a pure function of its
//     configuration — repeated runs, and runs fanned over any sweep
//     thread count, replay identically.
//  3. Shared-cache invariants survive tenancy: the plan-skeleton cache
//     must stay a pure memoization when residency mutations come from
//     many tenants' queries (epoch bumps from any tenant invalidate all),
//     and the per-tenant slices must partition the run-wide aggregates.

#include <gtest/gtest.h>

#include "src/catalog/tpch.h"
#include "src/sim/experiment.h"
#include "src/sim/sweep.h"
#include "tests/testing/metrics_equal.h"

namespace cloudcache {
namespace {

using cloudcache::testing::ExpectBitIdenticalMetrics;
using cloudcache::testing::ExpectBitIdenticalTenants;

class MultiTenantEquivalenceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    catalog_ = new Catalog(MakeTpchCatalog(100.0));
    templates_ = new std::vector<QueryTemplate>(MakeTpchTemplates());
  }
  static void TearDownTestSuite() {
    delete catalog_;
    catalog_ = nullptr;
    delete templates_;
    templates_ = nullptr;
  }

  /// Active economy configuration (investments and failure evictions
  /// within the short run) so the shared cache actually churns under the
  /// merged stream.
  static ExperimentConfig ActiveConfig(SchemeKind scheme, double interval) {
    ExperimentConfig config;
    config.scheme = scheme;
    config.workload.interarrival_seconds = interval;
    config.workload.seed = 29;
    config.seed = 30;
    config.sim.num_queries = 1'500;
    config.customize_econ = [](EconScheme::Config& econ) {
      econ.economy.regret_fraction_a = 0.001;
      econ.economy.conservative_provider = false;
      econ.economy.initial_credit = Money::FromDollars(20);
      econ.economy.model_build_latency = false;
    };
    return config;
  }

  static Catalog* catalog_;
  static std::vector<QueryTemplate>* templates_;
};

Catalog* MultiTenantEquivalenceTest::catalog_ = nullptr;
std::vector<QueryTemplate>* MultiTenantEquivalenceTest::templates_ = nullptr;

TEST_F(MultiTenantEquivalenceTest, SingleTenantEventPathBitIdentical) {
  // Every scheme, two arrival spacings: the forced event-driven path with
  // one tenant must replay the classic single-stream loop exactly.
  for (SchemeKind scheme : PaperSchemes()) {
    for (double interval : {1.0, 10.0}) {
      SCOPED_TRACE(std::string(SchemeKindToString(scheme)) + " @ " +
                   std::to_string(interval) + "s");
      ExperimentConfig config = ActiveConfig(scheme, interval);
      const SimMetrics classic = RunExperiment(*catalog_, *templates_, config);
      config.tenancy.force_event_path = true;
      const SimMetrics merged = RunExperiment(*catalog_, *templates_, config);
      ExpectBitIdenticalMetrics(classic, merged);
      // The classic path carries no tenant slice; the merged path carries
      // exactly one, and it must restate the aggregates.
      EXPECT_TRUE(classic.tenants.empty());
      ASSERT_EQ(merged.tenants.size(), 1u);
      EXPECT_EQ(merged.tenants[0].queries, merged.queries);
      EXPECT_EQ(merged.tenants[0].served, merged.served);
      EXPECT_EQ(merged.tenants[0].revenue.micros(), merged.revenue.micros());
    }
  }
}

TEST_F(MultiTenantEquivalenceTest, MultiTenantRepeatedRunsBitIdentical) {
  ExperimentConfig config = ActiveConfig(SchemeKind::kEconCheap, 5.0);
  config.tenancy.tenants = 4;
  config.tenancy.traffic_skew = 1.0;
  const SimMetrics first = RunExperiment(*catalog_, *templates_, config);
  const SimMetrics second = RunExperiment(*catalog_, *templates_, config);
  ExpectBitIdenticalMetrics(first, second);
  ExpectBitIdenticalTenants(first, second);
  // All four streams actually ran.
  for (const TenantMetrics& tenant : first.tenants) {
    EXPECT_GT(tenant.queries, 0u);
  }
}

TEST_F(MultiTenantEquivalenceTest, MultiTenantBitIdenticalAcrossSweepThreads) {
  // Multi-tenant cells through the sweep engine, on two query streams:
  // the per-variant seeds plus the per-tenant seed discipline must make
  // the grid bit-identical for any worker count.
  SweepSpec spec;
  spec.schemes = {SchemeKind::kEconCheap, SchemeKind::kEconFast};
  spec.interarrivals = {5.0, 30.0};
  spec.base = ActiveConfig(SchemeKind::kEconCheap, 5.0);
  spec.base.tenancy.tenants = 3;
  spec.base.tenancy.traffic_skew = 0.5;
  spec.variants.clear();
  for (uint64_t seed : {29u, 31u}) {
    spec.variants.push_back({"seed=" + std::to_string(seed),
                             [seed](ExperimentConfig& config) {
                               config.workload.seed = seed;
                               config.seed = seed + 1;
                             }});
  }

  const std::vector<SweepResult> serial =
      RunSweep(*catalog_, *templates_, spec, /*n_threads=*/1);
  const std::vector<SweepResult> parallel =
      RunSweep(*catalog_, *templates_, spec, /*n_threads=*/4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    SCOPED_TRACE(serial[i].cell.label);
    ExpectBitIdenticalMetrics(serial[i].metrics, parallel[i].metrics);
    ExpectBitIdenticalTenants(serial[i].metrics, parallel[i].metrics);
  }
}

TEST_F(MultiTenantEquivalenceTest, PlanCacheStaysPureUnderMultiTenancy) {
  // Residency mutations now come from four tenants' investments and
  // failure evictions interleaved through one cache; any of them must
  // bump the epoch the plan-skeleton cache keys on, or a stale skeleton
  // would diverge the runs.
  for (SchemeKind scheme :
       {SchemeKind::kEconCheap, SchemeKind::kEconFast}) {
    SCOPED_TRACE(SchemeKindToString(scheme));
    ExperimentConfig config = ActiveConfig(scheme, 5.0);
    config.tenancy.tenants = 4;
    config.tenancy.traffic_skew = 1.0;
    const auto base_customize = config.customize_econ;
    auto with_cache = [base_customize](bool enable) {
      return [base_customize, enable](EconScheme::Config& econ) {
        base_customize(econ);
        econ.enumerator.enable_plan_cache = enable;
      };
    };
    config.customize_econ = with_cache(true);
    const SimMetrics on = RunExperiment(*catalog_, *templates_, config);
    config.customize_econ = with_cache(false);
    const SimMetrics off = RunExperiment(*catalog_, *templates_, config);
    ExpectBitIdenticalMetrics(on, off);
    ExpectBitIdenticalTenants(on, off);
  }
}

TEST_F(MultiTenantEquivalenceTest, SingleTenantStaysClassicEvenWithPoliciesOn) {
  // The tenant-economics policies need a population to arbitrate
  // between: with one tenant they must be fully inert — a lone tenant
  // must never throttle itself, and breadth-weighted eviction has no
  // breadth to weigh — so the forced event path stays bit-identical to
  // the classic path even with both flags (and aggressive knobs) on.
  ExperimentConfig config = ActiveConfig(SchemeKind::kEconCheap, 5.0);
  const SimMetrics classic = RunExperiment(*catalog_, *templates_, config);

  ExperimentConfig forced = config;
  forced.tenancy.force_event_path = true;
  forced.tenancy.fair_eviction = true;
  forced.tenancy.admission = true;
  const auto base_customize = forced.customize_econ;
  forced.customize_econ = [base_customize](EconScheme::Config& econ) {
    base_customize(econ);
    econ.economy.admission.throttle_ratio = 0.001;
    econ.economy.admission.readmit_ratio = 0.0005;
    econ.economy.admission.min_regret = Money::FromMicros(1);
    econ.economy.eviction_breadth_slack = 25.0;
  };
  const SimMetrics merged = RunExperiment(*catalog_, *templates_, forced);
  ExpectBitIdenticalMetrics(classic, merged);
  EXPECT_EQ(merged.throttled, 0u);
}

TEST_F(MultiTenantEquivalenceTest, PolicyFlagsOffAreBitIdenticalToBaseline) {
  // The tenant-economics policies (fairness-weighted eviction, admission
  // control) ship off by default; with the flags off, a run must be bit
  // for bit the PR 3 baseline even when every policy *knob* is tuned —
  // this is the guard against a policy leaking into the flags-off path.
  ExperimentConfig config = ActiveConfig(SchemeKind::kEconCheap, 5.0);
  config.tenancy.tenants = 4;
  config.tenancy.traffic_skew = 1.0;
  const SimMetrics baseline = RunExperiment(*catalog_, *templates_, config);
  EXPECT_EQ(baseline.throttled, 0u);

  ExperimentConfig tuned = config;
  const auto base_customize = tuned.customize_econ;
  tuned.customize_econ = [base_customize](EconScheme::Config& econ) {
    base_customize(econ);
    // Aggressive knobs behind disabled switches: none of this may leak.
    econ.economy.eviction_breadth_slack = 25.0;
    econ.economy.eviction_aging_window = 64;
    econ.economy.admission.throttle_ratio = 0.001;
    econ.economy.admission.readmit_ratio = 0.0005;
    econ.economy.admission.min_regret = Money::FromMicros(1);
    econ.economy.admission.throttled_regret_scale = 0.9;
    econ.economy.admission.forfeit_standing_regret = false;
  };
  const SimMetrics tuned_run = RunExperiment(*catalog_, *templates_, tuned);
  ExpectBitIdenticalMetrics(baseline, tuned_run);
  ExpectBitIdenticalTenants(baseline, tuned_run);
}

TEST_F(MultiTenantEquivalenceTest, TenantSlicesPartitionAggregates) {
  ExperimentConfig config = ActiveConfig(SchemeKind::kEconCheap, 5.0);
  config.tenancy.tenants = 4;
  config.tenancy.traffic_skew = 1.0;
  const SimMetrics metrics = RunExperiment(*catalog_, *templates_, config);
  ASSERT_EQ(metrics.tenants.size(), 4u);

  uint64_t queries = 0, served = 0, in_cache = 0, in_backend = 0;
  uint64_t wan = 0, investments = 0, evictions = 0;
  uint64_t case_a = 0, case_b = 0, case_c = 0;
  int64_t response_count = 0;
  Money revenue, profit;
  double cpu = 0, network = 0, io = 0;
  for (const TenantMetrics& tenant : metrics.tenants) {
    queries += tenant.queries;
    served += tenant.served;
    in_cache += tenant.served_in_cache;
    in_backend += tenant.served_in_backend;
    wan += tenant.wan_bytes;
    investments += tenant.investments;
    evictions += tenant.evictions;
    case_a += tenant.case_a;
    case_b += tenant.case_b;
    case_c += tenant.case_c;
    response_count += tenant.response_seconds.count();
    revenue += tenant.revenue;
    profit += tenant.profit;
    cpu += tenant.operating_cost.cpu_dollars;
    network += tenant.operating_cost.network_dollars;
    io += tenant.operating_cost.io_dollars;
    // Disk rent is shared-infrastructure spending; no tenant is billed it.
    EXPECT_EQ(tenant.operating_cost.disk_dollars, 0.0);
  }
  // Counts and Money partition exactly.
  EXPECT_EQ(queries, metrics.queries);
  EXPECT_EQ(served, metrics.served);
  EXPECT_EQ(in_cache, metrics.served_in_cache);
  EXPECT_EQ(in_backend, metrics.served_in_backend);
  EXPECT_EQ(wan, metrics.wan_bytes);
  EXPECT_EQ(investments, metrics.investments);
  EXPECT_EQ(evictions, metrics.evictions);
  EXPECT_EQ(case_a, metrics.case_a);
  EXPECT_EQ(case_b, metrics.case_b);
  EXPECT_EQ(case_c, metrics.case_c);
  EXPECT_EQ(response_count, metrics.response_seconds.count());
  EXPECT_EQ(revenue.micros(), metrics.revenue.micros());
  EXPECT_EQ(profit.micros(), metrics.profit.micros());
  // Billed dollars partition the run-wide breakdown up to shared rent:
  // network and I/O are entirely per-query, CPU additionally carries the
  // run's node-reservation rent, disk is rent alone.
  EXPECT_NEAR(network, metrics.operating_cost.network_dollars,
              1e-9 * (1.0 + metrics.operating_cost.network_dollars));
  EXPECT_NEAR(io, metrics.operating_cost.io_dollars,
              1e-9 * (1.0 + metrics.operating_cost.io_dollars));
  EXPECT_LE(cpu, metrics.operating_cost.cpu_dollars +
                     1e-9 * (1.0 + metrics.operating_cost.cpu_dollars));
  EXPECT_GT(metrics.operating_cost.disk_dollars, 0.0);
}

}  // namespace
}  // namespace cloudcache
