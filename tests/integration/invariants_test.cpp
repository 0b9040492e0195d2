// Property-style invariant tests: randomized inputs, structural truths.
//
// Where the unit tests pin exact values on hand-built scenarios, these
// sweep randomized configurations and assert the invariants that must
// hold for *every* input: conservation of money, Pareto-correctness of
// the skyline, monotonicity of the cost model, and the economy's
// bookkeeping identities.

#include <gtest/gtest.h>

#include <algorithm>

#include "src/catalog/tpch.h"
#include "src/plan/skyline.h"
#include "src/sim/experiment.h"
#include "src/structure/index_advisor.h"
#include "src/workload/trace.h"
#include "tests/testing/fixtures.h"

namespace cloudcache {
namespace {

// ---------------------------------------------------------------- skyline

QueryPlan RandomPlan(Rng& rng) {
  QueryPlan plan;
  plan.execution.time_seconds = rng.NextUniform(0.1, 100.0);
  plan.execution.cost = Money::FromMicros(rng.NextInt(1, 1'000'000));
  if (rng.NextBernoulli(0.5)) plan.missing.push_back(0);
  return plan;
}

bool Dominates(const QueryPlan& a, const QueryPlan& b) {
  const bool no_worse = a.TimeSeconds() <= b.TimeSeconds() &&
                        a.Price() <= b.Price();
  const bool better = a.TimeSeconds() < b.TimeSeconds() ||
                      a.Price() < b.Price();
  return no_worse && better;
}

class SkylineProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SkylineProperty, SurvivorsAreUndominatedAndLosersAreDominated) {
  Rng rng(GetParam());
  std::vector<QueryPlan> plans;
  const int n = static_cast<int>(rng.NextInt(1, 60));
  for (int i = 0; i < n; ++i) plans.push_back(RandomPlan(rng));

  const std::vector<size_t> kept = SkylineIndices(plans);
  ASSERT_FALSE(kept.empty());

  std::vector<bool> is_kept(plans.size(), false);
  for (size_t idx : kept) is_kept[idx] = true;

  for (size_t i = 0; i < plans.size(); ++i) {
    if (is_kept[i]) {
      // No plan strictly dominates a survivor.
      for (size_t j = 0; j < plans.size(); ++j) {
        EXPECT_FALSE(j != i && Dominates(plans[j], plans[i]))
            << "plan " << j << " dominates surviving plan " << i;
      }
    } else {
      // Every eliminated plan is dominated or duplicates a survivor.
      bool justified = false;
      for (size_t idx : kept) {
        justified |= Dominates(plans[idx], plans[i]);
        justified |= plans[idx].TimeSeconds() == plans[i].TimeSeconds() &&
                     plans[idx].Price() == plans[i].Price();
      }
      EXPECT_TRUE(justified) << "plan " << i << " eliminated unjustly";
    }
  }

  // Survivors are reported in strictly ascending time.
  for (size_t k = 1; k < kept.size(); ++k) {
    EXPECT_LT(plans[kept[k - 1]].TimeSeconds(),
              plans[kept[k]].TimeSeconds());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SkylineProperty,
                         ::testing::Range<uint64_t>(1, 26));

// ------------------------------------------------------------ cost model

class CostMonotonicity : public ::testing::TestWithParam<uint64_t> {
 protected:
  CostMonotonicity()
      : catalog_(testing::MakeTinyCatalog()),
        prices_(testing::MakeRoundPrices()),
        model_(&catalog_, &prices_) {}

  Catalog catalog_;
  PriceList prices_;
  CostModel model_;
};

TEST_P(CostMonotonicity, WiderSelectionNeverCheaperOrFaster) {
  Rng rng(GetParam());
  const double lo = rng.NextUniform(0.001, 0.4);
  const double hi = lo * rng.NextUniform(1.01, 2.0);
  const Query narrow = testing::MakeTinyQuery(catalog_, lo);
  const Query wide = testing::MakeTinyQuery(catalog_, std::min(1.0, hi));
  for (auto access : {PlanSpec::Access::kBackend,
                      PlanSpec::Access::kCacheScan}) {
    PlanSpec spec;
    spec.access = access;
    const ExecutionEstimate en = model_.EstimateExecution(narrow, spec);
    const ExecutionEstimate ew = model_.EstimateExecution(wide, spec);
    EXPECT_LE(en.time_seconds, ew.time_seconds * (1 + 1e-9));
    EXPECT_LE(en.cost.micros(), ew.cost.micros() + 1);
  }
}

TEST_P(CostMonotonicity, ParallelFactorsAreSane) {
  Rng rng(GetParam() + 1000);
  const double f = rng.NextUniform(0.0, 1.0);
  double prev_time = 2.0;
  for (uint32_t k = 1; k <= 16; ++k) {
    const double time = model_.ParallelTimeFactor(f, k);
    const double cpu = model_.ParallelCpuFactor(f, k);
    EXPECT_GT(time, 0.0);
    EXPECT_LE(time, 1.0 + 1e-12);
    EXPECT_GE(cpu, 1.0 - 1e-12);  // Parallelism never reduces total CPU.
    EXPECT_LE(time, prev_time + 1e-12);  // More nodes never slower.
    // Work conservation: k nodes for time t provide >= the serial work.
    EXPECT_GE(static_cast<double>(k) * time, 1.0 - 1e-9);
    prev_time = time;
  }
}

TEST_P(CostMonotonicity, SupersetIndexCostsAtLeastAsMuchToBuild) {
  Rng rng(GetParam() + 2000);
  const ColumnId date = *catalog_.FindColumn("fact.f_date");
  const ColumnId value = *catalog_.FindColumn("fact.f_value");
  std::vector<bool> cached(catalog_.num_columns(),
                           rng.NextBernoulli(0.5));
  const Money single =
      model_.IndexBuildCost(IndexKey(catalog_, {date}), cached);
  const Money composite =
      model_.IndexBuildCost(IndexKey(catalog_, {date, value}), cached);
  EXPECT_GE(composite, single);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CostMonotonicity,
                         ::testing::Range<uint64_t>(1, 21));

// --------------------------------------------------------------- economy

class EconomyInvariants : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EconomyInvariants, BooksBalanceUnderRandomTraffic) {
  const Catalog catalog = testing::MakeTinyCatalog();
  const PriceList prices = testing::MakeRoundPrices();
  const CostModel model(&catalog, &prices);
  StructureRegistry registry(&catalog);
  Rng rng(GetParam());

  EconomyOptions options;
  options.initial_credit = Money::FromDollars(rng.NextUniform(0.1, 20));
  options.regret_fraction_a = rng.NextUniform(0.001, 0.5);
  options.amortization_horizon = rng.NextInt(1, 500);
  options.conservative_provider = rng.NextBernoulli(0.5);
  options.model_build_latency = rng.NextBernoulli(0.5);
  options.maintenance_failure_fraction = rng.NextUniform(0.01, 0.9);
  options.selection = static_cast<PlanSelection>(rng.NextInt(0, 2));
  EconomyEngine engine(&catalog, &registry, &model, EnumeratorOptions{},
                       options);
  const ColumnId date = *catalog.FindColumn("fact.f_date");
  const ColumnId value = *catalog.FindColumn("fact.f_value");
  engine.SetIndexCandidates(
      {IndexKey(catalog, {date}), IndexKey(catalog, {date, value})});

  double now = 0;
  for (int i = 0; i < 300; ++i) {
    now += rng.NextExponential(20.0);
    const Query q = testing::MakeTinyQuery(
        catalog, rng.NextUniform(0.001, 0.4), static_cast<uint64_t>(i));
    StepBudget budget(
        Money::FromDollars(rng.NextUniform(0.00001, 0.01)),
        rng.NextUniform(0.01, 1000.0));
    const QueryOutcome outcome = engine.OnQuery(q, budget, now);

    // Identity: credit == initial + revenue - expenditure - investment.
    const CloudAccount& account = engine.account();
    ASSERT_EQ(account.credit(),
              account.initial_credit() + account.total_revenue() -
                  account.total_expenditure() - account.total_investment())
        << "seed " << GetParam() << " query " << i;

    // Profit is never negative; payments cover the plan price.
    ASSERT_GE(outcome.profit.micros(), 0);
    if (outcome.served) {
      ASSERT_GE(outcome.payment, outcome.chosen.Price());
      // Every structure of the executed plan is resident.
      for (StructureId id : outcome.chosen.structures) {
        ASSERT_TRUE(engine.cache().IsResident(id));
      }
    }

    // Regret is non-negative by construction.
    ASSERT_GE(engine.regret().Total().micros(), 0);

    // Structures invested this round are no longer regretted.
    for (StructureId id : outcome.investments) {
      ASSERT_TRUE(engine.regret().Get(id).IsZero());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EconomyInvariants,
                         ::testing::Range<uint64_t>(1, 16));

// ------------------------------------------------------------- simulator

// gtest names each case by the raw bytes of its SimCase, so every byte
// must be defined: `name_tag` fills the four bytes that would otherwise
// be uninitialised padding after `scheme`, whose garbage made the names
// change from build to build. Its values keep the names the cases have
// always been listed under; the test never reads it.
struct SimCase {
  SchemeKind scheme;
  uint32_t name_tag;
  double interarrival;
  uint64_t seed;
};
static_assert(sizeof(SimCase) == 24, "SimCase must have no padding");

class SimulatorInvariants : public ::testing::TestWithParam<SimCase> {};

TEST_P(SimulatorInvariants, MetricsAreStructurallyConsistent) {
  static const Catalog catalog = MakeTpchCatalog(50.0);
  static const std::vector<QueryTemplate> templates = MakeTpchTemplates();
  const SimCase param = GetParam();

  ExperimentConfig config;
  config.scheme = param.scheme;
  config.workload.interarrival_seconds = param.interarrival;
  config.workload.seed = param.seed;
  config.sim.num_queries = 1200;
  config.customize_econ = [](EconScheme::Config& econ) {
    econ.economy.regret_fraction_a = 0.005;
    econ.economy.conservative_provider = false;
    econ.economy.initial_credit = Money::FromDollars(30);
    econ.economy.model_build_latency = false;
  };
  const SimMetrics m = RunExperiment(catalog, templates, config);

  EXPECT_EQ(m.queries, 1200u);
  EXPECT_LE(m.served, m.queries);
  EXPECT_EQ(m.served_in_cache + m.served_in_backend, m.served);
  EXPECT_GE(m.operating_cost.cpu_dollars, 0.0);
  EXPECT_GE(m.operating_cost.network_dollars, 0.0);
  EXPECT_GE(m.operating_cost.disk_dollars, 0.0);
  EXPECT_GE(m.operating_cost.io_dollars, 0.0);
  EXPECT_GT(m.operating_cost.Total(), 0.0);
  EXPECT_EQ(m.response_seconds.count(), static_cast<int64_t>(m.served));
  EXPECT_GE(m.response_hist.Quantile(1.0), m.response_hist.Quantile(0.0));
  EXPECT_GE(m.MeanResponse(), m.response_hist.Quantile(0.0));
  EXPECT_LE(m.MeanResponse(), m.response_hist.Quantile(1.0));
  // Cumulative cost timeline is non-decreasing and ends at the total.
  double last = -1;
  for (double v : m.cost_over_time.values()) {
    EXPECT_GE(v, last);
    last = v;
  }
  EXPECT_NEAR(last, m.operating_cost.Total(), 1e-6);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, SimulatorInvariants,
    ::testing::Values(SimCase{SchemeKind::kBypassYield, 0xF0, 1.0, 1},
                      SimCase{SchemeKind::kBypassYield, 0xF0, 60.0, 2},
                      SimCase{SchemeKind::kEconCol, 0x90, 1.0, 3},
                      SimCase{SchemeKind::kEconCol, 0xD0, 60.0, 4},
                      SimCase{SchemeKind::kEconCheap, 0x00, 1.0, 5},
                      SimCase{SchemeKind::kEconCheap, 0xF0, 60.0, 6},
                      SimCase{SchemeKind::kEconFast, 0xD0, 1.0, 7},
                      SimCase{SchemeKind::kEconFast, 0xF0, 60.0, 8}));

// ----------------------------------------------------------- trace replay

TEST(TraceReplayInvariant, ReplayedStreamDrivesIdenticalDecisions) {
  // A recorded trace must be a perfect substitute for the live generator:
  // the same scheme makes the same decisions query for query.
  const Catalog catalog = MakeTpchCatalog(50.0);
  Result<std::vector<ResolvedTemplate>> resolved =
      ResolveTemplates(catalog, MakeTpchTemplates());
  ASSERT_TRUE(resolved.ok());

  WorkloadOptions wl;
  wl.interarrival_seconds = 2.0;
  wl.seed = 31;
  WorkloadGenerator generator(&catalog, *resolved, wl);
  std::vector<Query> live;
  for (int i = 0; i < 600; ++i) live.push_back(generator.Next());

  const std::string csv = TraceWriter::ToCsv(live);
  Result<std::vector<Query>> replayed = TraceReader::FromCsv(csv, catalog);
  ASSERT_TRUE(replayed.ok());
  ASSERT_EQ(replayed->size(), live.size());

  const PriceList prices = PriceList::AmazonEc2_2009();
  const std::vector<StructureKey> indexes =
      RecommendIndexes(catalog, *resolved, 65);
  auto make_scheme = [&]() {
    EconScheme::Config config = EconScheme::EconCheapConfig();
    config.economy.regret_fraction_a = 0.005;
    config.economy.conservative_provider = false;
    config.economy.initial_credit = Money::FromDollars(30);
    config.economy.model_build_latency = false;
    config.seed = 5;
    return std::make_unique<EconScheme>(&catalog, &prices, indexes,
                                        std::move(config));
  };
  auto live_scheme = make_scheme();
  auto replay_scheme = make_scheme();
  for (size_t i = 0; i < live.size(); ++i) {
    const ServedQuery a =
        live_scheme->OnQuery(live[i], live[i].arrival_time);
    const ServedQuery b =
        replay_scheme->OnQuery((*replayed)[i], (*replayed)[i].arrival_time);
    ASSERT_EQ(a.spec.access, b.spec.access) << "query " << i;
    ASSERT_EQ(a.spec.cpu_nodes, b.spec.cpu_nodes) << "query " << i;
    ASSERT_EQ(a.payment, b.payment) << "query " << i;
    ASSERT_EQ(a.investments, b.investments) << "query " << i;
  }
  EXPECT_EQ(live_scheme->credit(), replay_scheme->credit());
}

// ---------------------------------------------------------------- budget

class BudgetProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BudgetProperty, AllShapesMonotoneAndBounded) {
  Rng rng(GetParam());
  const Money amount = Money::FromDollars(rng.NextUniform(0.001, 100.0));
  const double t_max = rng.NextUniform(0.01, 1000.0);
  const StepBudget step(amount, t_max);
  const LinearBudget linear(amount, t_max);
  const ConvexBudget convex(amount, t_max);
  const ConcaveBudget concave(amount, t_max);
  const std::vector<const BudgetFunction*> all = {&step, &linear, &convex,
                                                  &concave};
  for (const BudgetFunction* budget : all) {
    EXPECT_TRUE(budget->ValidateMonotone().ok());
    Money prev = amount + Money::FromMicros(1);
    for (int i = 1; i <= 32; ++i) {
      const double t = t_max * i / 32.0;
      const Money value = budget->At(t);
      EXPECT_LE(value, amount);      // Never above the headline amount.
      EXPECT_GE(value.micros(), 0);  // Never negative.
      EXPECT_LE(value, prev);        // Non-increasing.
      prev = value;
    }
    EXPECT_TRUE(budget->At(t_max * 1.0001).IsZero());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BudgetProperty,
                         ::testing::Range<uint64_t>(1, 21));

}  // namespace
}  // namespace cloudcache
