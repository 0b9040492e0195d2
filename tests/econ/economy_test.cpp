#include "src/econ/economy.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "src/persist/codec.h"
#include "src/util/rng.h"
#include "tests/testing/fixtures.h"

namespace cloudcache {
namespace {

class EconomyTest : public ::testing::Test {
 protected:
  EconomyTest()
      : catalog_(testing::MakeTinyCatalog()),
        prices_(testing::MakeRoundPrices()),
        model_(&catalog_, &prices_),
        registry_(&catalog_) {}

  EconomyOptions DefaultOptions() {
    EconomyOptions options;
    options.model_build_latency = false;   // Deterministic residency.
    options.conservative_provider = false; // Allow spending seed capital.
    options.initial_credit = Money::FromDollars(100);
    options.amortization_horizon = 10;
    options.regret_fraction_a = 0.1;
    return options;
  }

  std::unique_ptr<EconomyEngine> MakeEngine(
      EconomyOptions options, EnumeratorOptions enumerator = {}) {
    auto engine = std::make_unique<EconomyEngine>(
        &catalog_, &registry_, &model_, enumerator, options);
    const ColumnId date = *catalog_.FindColumn("fact.f_date");
    const ColumnId value = *catalog_.FindColumn("fact.f_value");
    const ColumnId key = *catalog_.FindColumn("fact.f_key");
    engine->SetIndexCandidates({
        IndexKey(catalog_, {date}),
        IndexKey(catalog_, {date, value, key}),
    });
    return engine;
  }

  /// Price of the backend plan for a query (no carried charges possible).
  Money BackendPrice(const Query& q) {
    PlanSpec spec;
    spec.access = PlanSpec::Access::kBackend;
    return model_.EstimateExecution(q, spec).cost;
  }

  double BackendTime(const Query& q) {
    PlanSpec spec;
    spec.access = PlanSpec::Access::kBackend;
    return model_.EstimateExecution(q, spec).time_seconds;
  }

  /// A "snug" budget: barely above the back-end quote, with a loose
  /// deadline. Keeps regret (and thus investment activity) negligible so
  /// tests can observe one mechanism at a time.
  StepBudget SnugBudget(const Query& q, double margin = 1.05) {
    return StepBudget(BackendPrice(q) * margin, BackendTime(q) * 10);
  }

  /// Options under which investments actually fire on the tiny catalog:
  /// result-heavy queries, small seed credit (so Eq. 3's a*CR threshold is
  /// reachable), long amortization (so hypothetical cache plans undercut
  /// the back-end and earn Eq. 1 regret).
  EconomyOptions InvestingOptions() {
    EconomyOptions options = DefaultOptions();
    options.initial_credit = Money::FromDollars(2);
    options.amortization_horizon = 100;
    options.regret_fraction_a = 0.001;
    return options;
  }

  /// A result-heavy query (20% clustered selectivity): shipping its result
  /// over the WAN costs more than scanning cached columns, so cache plans
  /// are the cheaper hypotheticals.
  Query HeavyQuery(uint64_t id = 0) {
    return testing::MakeTinyQuery(catalog_, 0.2, id);
  }

  Catalog catalog_;
  PriceList prices_;
  CostModel model_;
  StructureRegistry registry_;
};

TEST_F(EconomyTest, GenerousBudgetIsCaseB) {
  auto engine = MakeEngine(DefaultOptions());
  const Query q = testing::MakeTinyQuery(catalog_);
  StepBudget budget(Money::FromDollars(1000), 1e6);
  const QueryOutcome outcome = engine->OnQuery(q, budget, 0.0);
  EXPECT_EQ(outcome.budget_case, BudgetCase::kCaseB);
  EXPECT_TRUE(outcome.served);
}

TEST_F(EconomyTest, ColdCacheServesFromBackend) {
  auto engine = MakeEngine(DefaultOptions());
  const Query q = testing::MakeTinyQuery(catalog_);
  StepBudget budget(Money::FromDollars(1000), 1e6);
  const QueryOutcome outcome = engine->OnQuery(q, budget, 0.0);
  ASSERT_TRUE(outcome.served);
  EXPECT_EQ(outcome.chosen.spec.access, PlanSpec::Access::kBackend);
}

TEST_F(EconomyTest, CaseBPaymentIsUserBudgetAtChosenTime) {
  auto engine = MakeEngine(DefaultOptions());
  const Query q = testing::MakeTinyQuery(catalog_);
  StepBudget budget(Money::FromDollars(1000), 1e6);
  const QueryOutcome outcome = engine->OnQuery(q, budget, 0.0);
  ASSERT_TRUE(outcome.served);
  EXPECT_EQ(outcome.payment, Money::FromDollars(1000));
  EXPECT_EQ(outcome.profit, outcome.payment - outcome.chosen.Price());
  EXPECT_GT(outcome.profit.micros(), 0);
}

TEST_F(EconomyTest, ProfitIsCreditedToAccount) {
  auto engine = MakeEngine(DefaultOptions());
  const Query q = testing::MakeTinyQuery(catalog_);
  const Money before = engine->account().credit();
  const StepBudget budget = SnugBudget(q);
  const QueryOutcome outcome = engine->OnQuery(q, budget, 0.0);
  ASSERT_TRUE(outcome.served);
  EXPECT_TRUE(outcome.investments.empty());
  EXPECT_EQ(engine->account().credit(), before + outcome.payment);
  EXPECT_GT(outcome.profit.micros(), 0);
}

TEST_F(EconomyTest, UnaffordableBudgetIsCaseA) {
  auto engine = MakeEngine(DefaultOptions());
  const Query q = testing::MakeTinyQuery(catalog_);
  StepBudget budget(Money::FromMicros(1), 1e6);  // Far below any price.
  const QueryOutcome outcome = engine->OnQuery(q, budget, 0.0);
  EXPECT_EQ(outcome.budget_case, BudgetCase::kCaseA);
  // The paper's user accepts the (backend) offer at its quoted price.
  ASSERT_TRUE(outcome.served);
  EXPECT_EQ(outcome.payment, outcome.chosen.Price());
  EXPECT_TRUE(outcome.profit.IsZero());
}

TEST_F(EconomyTest, CaseARejectedWhenUserDeclines) {
  EconomyOptions options = DefaultOptions();
  options.user_accepts_above_budget = false;
  auto engine = MakeEngine(options);
  const Query q = testing::MakeTinyQuery(catalog_);
  StepBudget budget(Money::FromMicros(1), 1e6);
  const QueryOutcome outcome = engine->OnQuery(q, budget, 0.0);
  EXPECT_FALSE(outcome.served);
  EXPECT_TRUE(outcome.payment.IsZero());
}

TEST_F(EconomyTest, TightDeadlineExcludesSlowPlans) {
  auto engine = MakeEngine(DefaultOptions());
  const Query q = testing::MakeTinyQuery(catalog_);
  // Generous money but a deadline far below the backend response time
  // leaves no executable plan affordable: case A.
  StepBudget budget(Money::FromDollars(1000), BackendTime(q) * 1e-6);
  const QueryOutcome outcome = engine->OnQuery(q, budget, 0.0);
  EXPECT_EQ(outcome.budget_case, BudgetCase::kCaseA);
}

TEST_F(EconomyTest, CaseARegretAccumulatesOnCheaperHypotheticals) {
  auto engine = MakeEngine(InvestingOptions());
  const Query q = HeavyQuery();
  StepBudget budget(Money::FromMicros(1), 1e6);
  const QueryOutcome outcome = engine->OnQuery(q, budget, 0.0);
  EXPECT_EQ(outcome.budget_case, BudgetCase::kCaseA);
  // Result-heavy query: serving from cached columns would be cheaper than
  // shipping S(Q) over the WAN, so those hypotheticals earn Eq. 1 regret.
  EXPECT_GT(engine->regret().Total().micros(), 0);
}

TEST_F(EconomyTest, RegretConservation) {
  // Distributing regret never loses or invents micro-dollars: total regret
  // equals the sum of per-plan regrets, which we bound by checking the
  // ledger grows monotonically across queries.
  auto engine = MakeEngine(DefaultOptions());
  Money last_total;
  for (int i = 0; i < 10; ++i) {
    const Query q = testing::MakeTinyQuery(catalog_, 0.01, i);
    StepBudget budget(Money::FromMicros(1), 1e6);
    engine->OnQuery(q, budget, static_cast<double>(i));
    const Money total = engine->regret().Total();
    EXPECT_GE(total, last_total);
    last_total = total;
  }
}

TEST_F(EconomyTest, RegretTriggersInvestment) {
  auto engine = MakeEngine(InvestingOptions());
  StepBudget budget(Money::FromMicros(1), 1e6);
  bool invested = false;
  for (int i = 0; i < 50 && !invested; ++i) {
    invested = !engine->OnQuery(HeavyQuery(i), budget, i).investments.empty();
  }
  EXPECT_TRUE(invested);
}

TEST_F(EconomyTest, InvestmentsDebitTheAccount) {
  auto engine = MakeEngine(InvestingOptions());
  StepBudget budget(Money::FromMicros(1), 1e6);
  for (int i = 0; i < 50; ++i) {
    engine->OnQuery(HeavyQuery(i), budget, i);
  }
  // Every micro-dollar balances:
  // credit = initial + revenue - expenditure - investment.
  const CloudAccount& account = engine->account();
  EXPECT_EQ(account.credit(),
            account.initial_credit() + account.total_revenue() -
                account.total_expenditure() - account.total_investment());
  EXPECT_GT(account.total_investment().micros(), 0);
}

TEST_F(EconomyTest, InvestedStructureBecomesResident) {
  auto engine = MakeEngine(InvestingOptions());
  StepBudget budget(Money::FromMicros(1), 1e6);
  std::vector<StructureId> investments;
  for (int i = 0; i < 50 && investments.empty(); ++i) {
    investments = engine->OnQuery(HeavyQuery(i), budget, i).investments;
  }
  ASSERT_FALSE(investments.empty());
  EXPECT_TRUE(engine->cache().IsResident(investments.front()));
  // Regret of the built structure is cleared.
  EXPECT_TRUE(engine->regret().Get(investments.front()).IsZero());
}

TEST_F(EconomyTest, CacheHitAfterInvestment) {
  auto engine = MakeEngine(InvestingOptions());
  StepBudget poor(Money::FromMicros(1), 1e6);
  for (int i = 0; i < 80; ++i) {
    engine->OnQuery(HeavyQuery(i), poor, i);
  }
  // Once enough structures exist, a generous query executes in the cache.
  StepBudget rich(Money::FromDollars(1000), 1e6);
  const QueryOutcome outcome =
      engine->OnQuery(HeavyQuery(999), rich, 100.0);
  ASSERT_TRUE(outcome.served);
  EXPECT_NE(outcome.chosen.spec.access, PlanSpec::Access::kBackend);
}

TEST_F(EconomyTest, ConservativeProviderWaitsForProfit) {
  EconomyOptions options = InvestingOptions();
  options.conservative_provider = true;
  options.initial_credit = Money();  // No seed capital at all.
  // Users decline offers above budget, so there is no pass-through
  // revenue either: the account must stay at zero.
  options.user_accepts_above_budget = false;
  auto engine = MakeEngine(options);
  // Case-A queries generate regret but zero profit; with an empty account
  // the conservative provider can never cover a build.
  StepBudget poor(Money::FromMicros(1), 1e6);
  for (int i = 0; i < 50; ++i) {
    const QueryOutcome outcome = engine->OnQuery(HeavyQuery(i), poor, i);
    EXPECT_TRUE(outcome.investments.empty());
  }
  EXPECT_EQ(engine->account().total_investment(), Money());
}

TEST_F(EconomyTest, BuildLatencyDelaysResidency) {
  EconomyOptions options = InvestingOptions();
  options.model_build_latency = true;
  auto engine = MakeEngine(options);
  StepBudget budget(Money::FromMicros(1), 1e6);
  std::vector<StructureId> investments;
  double t = 0;
  for (int i = 0; i < 50 && investments.empty(); ++i, t += 1.0) {
    investments =
        engine->OnQuery(HeavyQuery(i), budget, t).investments;
  }
  ASSERT_FALSE(investments.empty());
  // Immediately after the decision the structure is still in flight.
  EXPECT_FALSE(engine->cache().IsResident(investments.front()));
  EXPECT_GT(engine->pending_builds(), 0u);
  // After the WAN transfer time it lands (a few seconds on the tiny
  // catalog; 1000 s is ample but short enough that no rent-failure
  // eviction kicks in).
  engine->OnTick(t + 1000.0);
  EXPECT_TRUE(engine->cache().IsResident(investments.front()));
  EXPECT_EQ(engine->pending_builds(), 0u);
}

TEST_F(EconomyTest, ForceBuildInstallsStructure) {
  auto engine = MakeEngine(DefaultOptions());
  const ColumnId date = *catalog_.FindColumn("fact.f_date");
  ASSERT_TRUE(engine->ForceBuild(ColumnKey(catalog_, date), 0.0).ok());
  EXPECT_TRUE(engine->cache().ColumnResident(date));
  // Double build fails.
  EXPECT_EQ(engine->ForceBuild(ColumnKey(catalog_, date), 0.0).code(),
            StatusCode::kAlreadyExists);
}

TEST_F(EconomyTest, ForceBuildIndexShipsItsColumns) {
  auto engine = MakeEngine(DefaultOptions());
  const ColumnId date = *catalog_.FindColumn("fact.f_date");
  ASSERT_TRUE(engine->ForceBuild(IndexKey(catalog_, {date}), 0.0).ok());
  // Eq. 14's build includes the column transfer, so the base column is
  // now cached too.
  EXPECT_TRUE(engine->cache().ColumnResident(date));
}

TEST_F(EconomyTest, MaintenanceFailureEvictsIdleStructure) {
  EconomyOptions options = DefaultOptions();
  options.maintenance_failure_fraction = 0.01;
  auto engine = MakeEngine(options);
  const ColumnId date = *catalog_.FindColumn("fact.f_date");
  ASSERT_TRUE(engine->ForceBuild(ColumnKey(catalog_, date), 0.0).ok());
  // A month of unpaid rent on an unused column exceeds 1% of its build
  // cost by a wide margin.
  engine->OnTick(6 * kMonth);
  EXPECT_FALSE(engine->cache().ColumnResident(date));
}

/// EvictFailedStructures' exact predicate judged for every resident, in
/// ascending id order: the scan the failure deadlines replace. (Judging
/// all residents up front equals judging them one by one while evicting:
/// an eviction can only move a zero-cost index's fallback threshold, and
/// every index build records its cost.)
std::vector<StructureId> BruteForceFailures(const EconomyEngine& engine,
                                            SimTime now) {
  const MaintenanceLedger& ledger = engine.maintenance();
  const EconomyOptions& options = engine.options();
  std::vector<StructureId> failed;
  for (StructureId id : engine.cache().Residents()) {
    if (!ledger.IsTracked(id)) continue;
    const Money owed = ledger.Owed(id, now);
    if (owed.IsZero()) continue;
    Money build_cost = ledger.BuildCostOf(id);
    if (build_cost.IsZero()) {
      build_cost = engine.decision_model().BuildCost(
          engine.cache().registry().key(id),
          engine.cache().column_residency());
    }
    Money threshold = build_cost * options.maintenance_failure_fraction;
    if (options.tenant_weighted_eviction) {
      const double scale = ledger.FailureScale(id);
      if (scale != 1.0) threshold = threshold * scale;
    }
    if (owed > threshold) failed.push_back(id);
  }
  return failed;
}

TEST_F(EconomyTest, DeadlineScanMatchesBruteForceEveryResidentScan) {
  // Random arrival gaps (seconds to a quarter year), ticks between
  // queries, cheap and generous budgets: before every call the brute-force
  // scan predicts which residents fail, and the engine must evict exactly
  // those, in that order (tick evictions surface in the next outcome).
  size_t failures = 0;
  for (int variant = 0; variant < 4; ++variant) {
    EconomyOptions options = InvestingOptions();
    options.maintenance_failure_fraction = variant % 2 == 0 ? 0.01 : 0.25;
    options.tenant_weighted_eviction = variant >= 2;
    auto engine = MakeEngine(options);
    if (options.tenant_weighted_eviction) engine->SetTenantCount(3);
    Rng rng(100 + variant);
    SimTime now = 0;
    std::vector<StructureId> expected;
    for (int i = 0; i < 400; ++i) {
      now += std::exp(rng.NextUniform(0.0, std::log(kMonth / 4)));
      const std::vector<StructureId> predicted =
          BruteForceFailures(*engine, now);
      failures += predicted.size();
      expected.insert(expected.end(), predicted.begin(), predicted.end());
      if (rng.NextBernoulli(0.3)) {
        engine->OnTick(now);
        for (StructureId id : predicted) {
          EXPECT_FALSE(engine->cache().IsResident(id)) << "tick " << i;
        }
        continue;
      }
      Query q = testing::MakeTinyQuery(catalog_, rng.NextUniform(0.01, 0.3),
                                       static_cast<uint64_t>(i));
      if (options.tenant_weighted_eviction) q.tenant_id = i % 3;
      const StepBudget cheap(Money::FromMicros(1), 1e6);
      const StepBudget generous(Money::FromDollars(1000), 1e6);
      const QueryOutcome outcome = engine->OnQuery(
          q, rng.NextBernoulli(0.5) ? cheap : generous, now);
      EXPECT_EQ(outcome.evictions, expected) << "query " << i;
      expected.clear();
    }
  }
  EXPECT_GT(failures, 20u);  // The predicate was exercised, not skipped.
}

TEST_F(EconomyTest, PendingBuildFailsOnTheQueryThatActivatesIt) {
  // A build still in flight at the last query lands during a long idle
  // gap; the next query activates it and, in the same call, finds its
  // rent backlog past the failure threshold.
  EconomyOptions options = InvestingOptions();
  options.model_build_latency = true;
  options.maintenance_failure_fraction = 0.01;
  auto engine = MakeEngine(options);
  StepBudget budget(Money::FromMicros(1), 1e6);
  std::vector<StructureId> investments;
  double t = 0;
  for (int i = 0; i < 50 && investments.empty(); ++i, t += 1.0) {
    investments = engine->OnQuery(HeavyQuery(i), budget, t).investments;
  }
  ASSERT_FALSE(investments.empty());
  const StructureId built = investments.front();
  ASSERT_FALSE(engine->cache().IsResident(built));
  ASSERT_TRUE(engine->maintenance().IsTracked(built));

  const QueryOutcome late =
      engine->OnQuery(HeavyQuery(99), budget, t + 6 * kMonth);
  EXPECT_NE(std::find(late.evictions.begin(), late.evictions.end(), built),
            late.evictions.end());
  EXPECT_FALSE(engine->cache().IsResident(built));
}

TEST_F(EconomyTest, RestoredDeadlineFailsOnTheSameQuery) {
  // An idle column fails at some query k of an uninterrupted run. Saved
  // one query short of that — its deadline not yet reached — and restored
  // into a fresh engine, the run must fail it at query k all the same and
  // continue bit for bit.
  EconomyOptions options = DefaultOptions();
  options.maintenance_failure_fraction = 0.25;
  const StructureKey idle =
      ColumnKey(catalog_, *catalog_.FindColumn("fact.f_flag"));
  const StructureId idle_id = registry_.Intern(idle);
  const double step = kMonth / 100;
  const StepBudget budget(Money::FromDollars(1000), 1e6);
  auto query = [&](int i) {
    return testing::MakeTinyQuery(catalog_, 0.01, static_cast<uint64_t>(i));
  };
  constexpr int kQueries = 200;

  auto straight = MakeEngine(options);
  ASSERT_TRUE(straight->ForceBuild(idle, 0.0).ok());
  std::vector<QueryOutcome> outcomes;
  int k = 0;
  for (int i = 1; i <= kQueries; ++i) {
    outcomes.push_back(straight->OnQuery(query(i), budget, i * step));
    const std::vector<StructureId>& evicted = outcomes.back().evictions;
    if (k == 0 &&
        std::find(evicted.begin(), evicted.end(), idle_id) != evicted.end()) {
      k = i;
    }
  }
  ASSERT_GT(k, 1);

  auto first = MakeEngine(options);
  ASSERT_TRUE(first->ForceBuild(idle, 0.0).ok());
  for (int i = 1; i < k; ++i) first->OnQuery(query(i), budget, i * step);
  persist::Encoder saved;
  first->SaveState(&saved);
  auto resumed = MakeEngine(options);
  persist::Decoder decoder(saved.buffer().data(), saved.buffer().size());
  ASSERT_TRUE(resumed->RestoreState(&decoder).ok());
  EXPECT_GT(resumed->maintenance().NextDue(), (k - 1) * step);
  EXPECT_LE(resumed->maintenance().NextDue(), k * step);

  for (int i = k; i <= kQueries; ++i) {
    const QueryOutcome outcome = resumed->OnQuery(query(i), budget, i * step);
    EXPECT_EQ(outcome.evictions, outcomes[i - 1].evictions) << "query " << i;
    EXPECT_EQ(outcome.investments, outcomes[i - 1].investments);
    EXPECT_EQ(outcome.payment, outcomes[i - 1].payment);
  }
  persist::Encoder end_straight;
  persist::Encoder end_resumed;
  straight->SaveState(&end_straight);
  resumed->SaveState(&end_resumed);
  EXPECT_EQ(end_straight.buffer(), end_resumed.buffer());
}

TEST_F(EconomyTest, UsedStructuresSurviveMaintenance) {
  EconomyOptions options = DefaultOptions();
  options.maintenance_failure_fraction = 0.01;
  // Footnote-3 exact semantics: each selected plan settles the whole
  // backlog since the previous payer (no per-use recovery cap), so a
  // regularly used structure can never drift toward failure.
  options.maintenance_recovery_cap_seconds =
      MaintenanceLedger::kNoCapSeconds;
  // Fastest selection routes queries through the cached columns, so every
  // query is a rent payer for them (footnote 3). A long amortization
  // horizon keeps the per-use share small enough that the cache plan
  // stays affordable under the snug budget.
  options.selection = PlanSelection::kFastest;
  options.amortization_horizon = 1000;
  auto engine = MakeEngine(options);
  const Query q = HeavyQuery();
  for (ColumnId col : q.AccessedColumns()) {
    ASSERT_TRUE(engine->ForceBuild(ColumnKey(catalog_, col), 0.0).ok());
  }
  // Result-heavy queries keep choosing (and paying for) the cache plan,
  // so the columns never fail maintenance. (Unrelated structures the
  // engine invests in along the way may legitimately fail — only the
  // *used* columns must survive.)
  for (int i = 1; i <= 20; ++i) {
    const Query heavy = HeavyQuery(i);
    const StepBudget budget = SnugBudget(heavy, 1.1);
    const QueryOutcome outcome =
        engine->OnQuery(heavy, budget, i * (kMonth / 100));
    for (StructureId evicted : outcome.evictions) {
      EXPECT_NE(engine->cache().registry().key(evicted).type,
                StructureType::kColumn)
          << "query " << i;
    }
  }
  for (ColumnId col : q.AccessedColumns()) {
    EXPECT_TRUE(engine->cache().ColumnResident(col));
  }
}

TEST_F(EconomyTest, SelectedPlanPaysMaintenance) {
  auto engine = MakeEngine(DefaultOptions());
  const Query q = testing::MakeTinyQuery(catalog_);
  for (ColumnId col : q.AccessedColumns()) {
    ASSERT_TRUE(engine->ForceBuild(ColumnKey(catalog_, col), 0.0).ok());
  }
  StepBudget budget(Money::FromDollars(1000), 1e6);
  const QueryOutcome outcome =
      engine->OnQuery(testing::MakeTinyQuery(catalog_, 0.01, 1), budget,
                      kMonth / 10);
  ASSERT_TRUE(outcome.served);
  if (outcome.chosen.spec.access != PlanSpec::Access::kBackend) {
    EXPECT_GT(outcome.maintenance_collected.micros(), 0);
  }
}

TEST_F(EconomyTest, AmortizationCollectedOverHorizon) {
  EconomyOptions options = DefaultOptions();
  options.amortization_horizon = 5;
  // Fastest selection picks the cache plan (no WAN transfer), which is
  // the one that carries amortized shares.
  options.selection = PlanSelection::kFastest;
  auto engine = MakeEngine(options);
  const Query q = HeavyQuery();
  for (ColumnId col : q.AccessedColumns()) {
    ASSERT_TRUE(engine->ForceBuild(ColumnKey(catalog_, col), 0.0).ok());
  }
  Money collected;
  for (int i = 1; i <= 10; ++i) {
    const Query heavy = HeavyQuery(i);
    const StepBudget budget = SnugBudget(heavy, 3.0);
    const QueryOutcome outcome = engine->OnQuery(heavy, budget, i);
    collected += outcome.amortization_collected;
  }
  EXPECT_GT(collected.micros(), 0);
}

TEST_F(EconomyTest, FastestSelectionPrefersSpeed) {
  EconomyOptions cheap_options = DefaultOptions();
  cheap_options.selection = PlanSelection::kCheapest;
  EconomyOptions fast_options = DefaultOptions();
  fast_options.selection = PlanSelection::kFastest;

  // Pre-build everything so real choices exist, in two identical engines.
  auto build_all = [&](EconomyEngine& engine) {
    const Query q = testing::MakeTinyQuery(catalog_);
    for (ColumnId col : q.AccessedColumns()) {
      CLOUDCACHE_CHECK(
          engine.ForceBuild(ColumnKey(catalog_, col), 0.0).ok());
    }
    const ColumnId date = *catalog_.FindColumn("fact.f_date");
    CLOUDCACHE_CHECK(engine.ForceBuild(IndexKey(catalog_, {date}), 0.0).ok());
    CLOUDCACHE_CHECK(engine.ForceBuild(CpuNodeKey(0), 0.0).ok());
    CLOUDCACHE_CHECK(engine.ForceBuild(CpuNodeKey(1), 0.0).ok());
  };
  auto cheap_engine = MakeEngine(cheap_options);
  auto fast_engine = MakeEngine(fast_options);
  build_all(*cheap_engine);
  build_all(*fast_engine);

  const Query q = testing::MakeTinyQuery(catalog_, 0.01, 42);
  StepBudget budget(Money::FromDollars(1000), 1e6);
  const QueryOutcome cheap = cheap_engine->OnQuery(q, budget, 1.0);
  const QueryOutcome fast = fast_engine->OnQuery(q, budget, 1.0);
  ASSERT_TRUE(cheap.served);
  ASSERT_TRUE(fast.served);
  EXPECT_LE(fast.chosen.TimeSeconds(), cheap.chosen.TimeSeconds());
  EXPECT_LE(cheap.chosen.Price(), fast.chosen.Price());
}

TEST_F(EconomyTest, MinProfitSelectionMinimizesGain) {
  EconomyOptions options = DefaultOptions();
  options.selection = PlanSelection::kMinProfit;
  auto engine = MakeEngine(options);
  const Query q = testing::MakeTinyQuery(catalog_);
  for (ColumnId col : q.AccessedColumns()) {
    ASSERT_TRUE(engine->ForceBuild(ColumnKey(catalog_, col), 0.0).ok());
  }
  StepBudget budget(Money::FromDollars(1000), 1e6);
  const QueryOutcome outcome =
      engine->OnQuery(testing::MakeTinyQuery(catalog_, 0.01, 1), budget, 1);
  ASSERT_TRUE(outcome.served);
  // With a step budget, minimal gain = maximal price: the user gets the
  // most service for her money (the altruistic criterion).
  EXPECT_GT(outcome.chosen.Price(),
            Money());  // Sanity.
  EXPECT_EQ(outcome.profit, outcome.payment - outcome.chosen.Price());
}

TEST_F(EconomyTest, MixedAffordabilityIsCaseC) {
  // Warm the columns so an executable cache plan exists, then budget just
  // above it: the cache plan is affordable (so not case A) while pricier
  // hypotheticals (index builds amortized over a short horizon, parallel
  // node variants) are not (so not case B) — the mixed relationship of
  // Fig. 2, case C.
  EconomyOptions options = DefaultOptions();
  options.amortization_horizon = 10;  // Hypotheticals stay expensive.
  options.selection = PlanSelection::kFastest;
  auto engine = MakeEngine(options);
  const Query q = HeavyQuery();
  for (ColumnId col : q.AccessedColumns()) {
    ASSERT_TRUE(engine->ForceBuild(ColumnKey(catalog_, col), 0.0).ok());
  }
  // Find the cheapest executable plan's price by asking with a huge
  // budget first (deterministic engine state is restored by re-running on
  // a fresh engine).
  auto probe_engine = MakeEngine(options);
  for (ColumnId col : q.AccessedColumns()) {
    ASSERT_TRUE(
        probe_engine->ForceBuild(ColumnKey(catalog_, col), 0.0).ok());
  }
  StepBudget huge(Money::FromDollars(1e6), 1e6);
  const QueryOutcome probe = probe_engine->OnQuery(q, huge, 1.0);
  ASSERT_TRUE(probe.served);

  StepBudget snug(probe.chosen.Price() * 1.3, 1e6);
  const QueryOutcome outcome = engine->OnQuery(q, snug, 1.0);
  EXPECT_EQ(outcome.budget_case, BudgetCase::kCaseC);
  ASSERT_TRUE(outcome.served);
  // Served within budget: payment equals the budget level, not the price.
  EXPECT_EQ(outcome.payment, probe.chosen.Price() * 1.3);
}

TEST_F(EconomyTest, OutcomeCountsPlans) {
  auto engine = MakeEngine(DefaultOptions());
  const Query q = testing::MakeTinyQuery(catalog_);
  StepBudget budget(Money::FromDollars(1000), 1e6);
  const QueryOutcome outcome = engine->OnQuery(q, budget, 0.0);
  EXPECT_GE(outcome.num_plans, outcome.num_existing);
  EXPECT_GE(outcome.num_existing, 1u);
  EXPECT_GT(outcome.num_plans, 1u);  // Hypotheticals on a cold cache.
}

TEST_F(EconomyTest, CandidatePoolEvictionForfeitsRegret) {
  EconomyOptions options = DefaultOptions();
  options.candidate_pool_capacity = 1;  // Pathologically small.
  auto engine = MakeEngine(options);
  StepBudget budget(Money::FromMicros(1), 1e6);
  for (int i = 0; i < 5; ++i) {
    engine->OnQuery(testing::MakeTinyQuery(catalog_, 0.01, i), budget, i);
  }
  // With a pool of one, total regret stays bounded by what a single
  // candidate can accumulate: most regret is forfeited.
  EXPECT_LE(engine->regret().NonZeroDescending().size(), 2u);
}

TEST_F(EconomyTest, DeterministicAcrossRuns) {
  auto run = [&]() {
    StructureRegistry registry(&catalog_);
    EconomyOptions options = DefaultOptions();
    options.regret_fraction_a = 0.001;
    EnumeratorOptions enumerator;
    EconomyEngine engine(&catalog_, &registry, &model_, enumerator,
                         options);
    const ColumnId date = *catalog_.FindColumn("fact.f_date");
    engine.SetIndexCandidates({IndexKey(catalog_, {date})});
    StepBudget budget(Money::FromDollars(0.002), 1e6);
    Money credit;
    for (int i = 0; i < 60; ++i) {
      engine.OnQuery(testing::MakeTinyQuery(catalog_, 0.01, i), budget, i);
    }
    return engine.account().credit();
  };
  EXPECT_EQ(run(), run());
}

TEST_F(EconomyTest, TenantRegretPartitionsGlobalLedger) {
  auto engine = MakeEngine(InvestingOptions());
  engine->SetTenantCount(3);
  EXPECT_EQ(engine->tenant_count(), 3u);

  // Drive case-A queries (budget below every plan) from alternating
  // tenants; every Eq. 1 contribution must land in both the global ledger
  // and the serving tenant's, so at any instant — including right after
  // an investment clears entries from both — the tenant ledgers sum to
  // the global one.
  const StepBudget budget(Money::FromMicros(1), 1e6);
  bool saw_regret = false;
  for (uint64_t i = 0; i < 30; ++i) {
    Query q = HeavyQuery(i);
    q.tenant_id = static_cast<uint32_t>(i % 3);
    engine->OnQuery(q, budget, static_cast<double>(i) * 10.0);

    Money tenant_sum;
    for (size_t t = 0; t < 3; ++t) {
      tenant_sum += engine->TenantRegretTotal(t);
    }
    EXPECT_EQ(tenant_sum.micros(), engine->regret().Total().micros());
    saw_regret = saw_regret || engine->regret().Total().IsPositive();
  }
  // Regret actually flowed at some point, or the partition was vacuous.
  EXPECT_TRUE(saw_regret);
}

TEST_F(EconomyTest, TenantRegretClearedWhenStructureIsBuilt) {
  auto engine = MakeEngine(InvestingOptions());
  engine->SetTenantCount(2);

  // Run tenant 1's queries until an investment fires; the built
  // structures' regret must vanish from the tenant ledgers along with the
  // global entries (partition preserved through MaybeInvest's clears).
  const StepBudget budget(Money::FromMicros(1), 1e6);
  bool invested = false;
  for (uint64_t i = 0; i < 200 && !invested; ++i) {
    Query q = HeavyQuery(i);
    q.tenant_id = 1;
    const QueryOutcome outcome =
        engine->OnQuery(q, budget, static_cast<double>(i) * 10.0);
    invested = !outcome.investments.empty();
    if (invested) {
      for (StructureId id : outcome.investments) {
        EXPECT_EQ(engine->regret().Get(id).micros(), 0);
        EXPECT_EQ(engine->tenant_regret(0).Get(id).micros(), 0);
        EXPECT_EQ(engine->tenant_regret(1).Get(id).micros(), 0);
      }
    }
  }
  ASSERT_TRUE(invested);
  // Untouched tenant 0 never accumulated anything.
  EXPECT_EQ(engine->TenantRegretTotal(0).micros(), 0);

  Money tenant_sum =
      engine->TenantRegretTotal(0) + engine->TenantRegretTotal(1);
  EXPECT_EQ(tenant_sum.micros(), engine->regret().Total().micros());
}

TEST_F(EconomyTest, TenantRegretDisabledByDefault) {
  auto engine = MakeEngine(InvestingOptions());
  EXPECT_EQ(engine->tenant_count(), 0u);
  Query q = HeavyQuery(0);
  q.tenant_id = 7;  // Out-of-range tenant on a non-attributing engine.
  const StepBudget budget(Money::FromMicros(1), 1e6);
  engine->OnQuery(q, budget, 0.0);
  // No attribution, and asking is safe.
  EXPECT_EQ(engine->TenantRegretTotal(7).micros(), 0);
}

}  // namespace
}  // namespace cloudcache
