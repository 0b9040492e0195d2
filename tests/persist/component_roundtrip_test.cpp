// Serialize → deserialize == identity, pinned per component: each test
// mutates a component into a mid-run state, snapshots it, restores into a
// freshly constructed twin, and checks the twin is indistinguishable —
// including the forward behavior (next decisions, next draws), which is
// the property crash recovery actually needs.

#include <gtest/gtest.h>

#include <vector>

#include "src/cache/maintenance.h"
#include "src/catalog/tpch.h"
#include "src/cluster/elasticity.h"
#include "src/cost/cost_model.h"
#include "src/econ/account.h"
#include "src/econ/regret.h"
#include "src/persist/codec.h"
#include "src/persist/util_io.h"
#include "src/query/templates.h"
#include "src/sim/experiment.h"
#include "src/structure/structure.h"
#include "src/util/rng.h"
#include "src/workload/generator.h"

namespace cloudcache {
namespace {

using persist::Decoder;
using persist::Encoder;
using persist::RestoreTimeSeries;
using persist::SaveTimeSeries;

TEST(RegretLedgerPersistTest, RoundTripPreservesEveryEntry) {
  RegretLedger ledger;
  ledger.Add(3, Money::FromDollars(1.5));
  ledger.Distribute({1, 2, 5}, Money::FromMicros(1'000'001));
  ledger.Add(7, Money::FromMicros(42));
  ledger.Clear(2);

  Encoder enc;
  ledger.SaveState(&enc);
  RegretLedger twin;
  Decoder dec(enc.buffer().data(), enc.size());
  ASSERT_TRUE(twin.RestoreState(&dec).ok());
  EXPECT_TRUE(dec.AtEnd());

  EXPECT_EQ(twin.Total().micros(), ledger.Total().micros());
  EXPECT_EQ(twin.size(), ledger.size());
  for (StructureId id = 0; id < 10; ++id) {
    EXPECT_EQ(twin.Get(id).micros(), ledger.Get(id).micros()) << id;
  }
  EXPECT_EQ(twin.NonZeroDescending(), ledger.NonZeroDescending());
}

TEST(RegretLedgerPersistTest, TenantLedgersStillPartitionTheGlobalOne) {
  // The invariant crash recovery must not break: summing the restored
  // tenant ledgers reproduces the restored global ledger, entry by entry.
  RegretLedger global;
  std::vector<RegretLedger> tenants(3);
  const StructureId ids[] = {0, 2, 4, 9};
  Money amounts[] = {Money::FromMicros(101), Money::FromMicros(3'000'000),
                     Money::FromMicros(77), Money::FromMicros(12'345)};
  for (size_t i = 0; i < 4; ++i) {
    global.Add(ids[i], amounts[i]);
    // Split over tenants, exact to the micro-dollar.
    for (size_t t = 0; t < 3; ++t) {
      tenants[t].Add(ids[i],
                     EvenShare(amounts[i], 3, static_cast<int64_t>(t)));
    }
  }

  Encoder enc;
  global.SaveState(&enc);
  for (const RegretLedger& ledger : tenants) ledger.SaveState(&enc);

  RegretLedger global_twin;
  std::vector<RegretLedger> tenant_twins(3);
  Decoder dec(enc.buffer().data(), enc.size());
  ASSERT_TRUE(global_twin.RestoreState(&dec).ok());
  for (RegretLedger& ledger : tenant_twins) {
    ASSERT_TRUE(ledger.RestoreState(&dec).ok());
  }
  EXPECT_TRUE(dec.AtEnd());

  Money tenant_total;
  for (const RegretLedger& ledger : tenant_twins) {
    tenant_total += ledger.Total();
  }
  EXPECT_EQ(tenant_total.micros(), global_twin.Total().micros());
  for (StructureId id : ids) {
    Money per_entry;
    for (const RegretLedger& ledger : tenant_twins) {
      per_entry += ledger.Get(id);
    }
    EXPECT_EQ(per_entry.micros(), global_twin.Get(id).micros()) << id;
  }
}

TEST(MaintenanceLedgerPersistTest, RoundTripKeepsClocksAndFailureScales) {
  const Catalog catalog = MakeTpchCatalog(1.0);
  const PriceList prices = PriceList::AmazonEc2_2009();
  const CostModel model(&catalog, &prices);
  StructureRegistry registry(&catalog);
  const StructureId a = registry.Intern(ColumnKey(catalog, 0));
  const StructureId b = registry.Intern(ColumnKey(catalog, 1));
  const StructureId c = registry.Intern(CpuNodeKey(0));

  MaintenanceLedger ledger(&model);
  ledger.Register(a, registry.key(a), 10.0, Money::FromDollars(2.0), 1.0);
  ledger.Register(b, registry.key(b), 20.0, Money::FromDollars(5.0), 1.75);
  ledger.Register(c, registry.key(c), 30.0, Money::FromDollars(0.5), 1.0);
  ledger.Pay(a, 500.0, /*cap_seconds=*/100.0);  // Partially repaid clock.

  Encoder enc;
  ledger.SaveState(&enc);
  MaintenanceLedger twin(&model);
  Decoder dec(enc.buffer().data(), enc.size());
  ASSERT_TRUE(twin.RestoreState(&dec, registry).ok());
  EXPECT_TRUE(dec.AtEnd());

  for (StructureId id : {a, b, c}) {
    EXPECT_TRUE(twin.IsTracked(id));
    EXPECT_EQ(twin.FailureScale(id), ledger.FailureScale(id)) << id;
    EXPECT_EQ(twin.BuildCostOf(id).micros(), ledger.BuildCostOf(id).micros());
    EXPECT_EQ(twin.Owed(id, 1000.0).micros(), ledger.Owed(id, 1000.0).micros())
        << id;
  }
  // Forward behavior: the next payment collects the same amount.
  EXPECT_EQ(twin.Pay(b, 1000.0).micros(), ledger.Pay(b, 1000.0).micros());
}

TEST(MaintenanceLedgerPersistTest, UnknownStructureIdIsRejected) {
  const Catalog catalog = MakeTpchCatalog(1.0);
  const PriceList prices = PriceList::AmazonEc2_2009();
  const CostModel model(&catalog, &prices);
  StructureRegistry full(&catalog);
  const StructureId id = full.Intern(ColumnKey(catalog, 3));
  MaintenanceLedger ledger(&model);
  ledger.Register(id, full.key(id), 1.0, Money::FromDollars(1.0));

  Encoder enc;
  ledger.SaveState(&enc);
  // Restoring against a registry that never interned the structure must
  // fail with a Status: a clock for an unknown id has no footprint.
  StructureRegistry empty(&catalog);
  MaintenanceLedger twin(&model);
  Decoder dec(enc.buffer().data(), enc.size());
  EXPECT_FALSE(twin.RestoreState(&dec, empty).ok());
}

TEST(ElasticityControllerPersistTest, StreaksAndCooldownSurviveRestore) {
  ElasticityOptions options;
  options.sustain_windows = 3;
  options.cooldown_windows = 2;
  options.max_nodes = 4;
  ElasticityController controller(options);

  // Two hot windows: regret far above one node's projected rent. The
  // streak is at 2 of 3 — the next hot window rents.
  ElasticityWindow hot;
  hot.standing_regret = Money::FromDollars(100.0);
  hot.projected_rent_dollars = 1.0;
  hot.routed = {50, 50};
  hot.window_queries = 100;
  EXPECT_EQ(controller.Step(hot).decision, ElasticDecision::kHold);
  EXPECT_EQ(controller.Step(hot).decision, ElasticDecision::kHold);

  Encoder enc;
  controller.SaveState(&enc);
  ElasticityController twin(options);
  Decoder dec(enc.buffer().data(), enc.size());
  ASSERT_TRUE(twin.RestoreState(&dec).ok());
  EXPECT_TRUE(dec.AtEnd());

  // Both controllers must act identically from here: the third hot window
  // completes the streak and rents...
  EXPECT_EQ(controller.Step(hot).decision, ElasticDecision::kRent);
  EXPECT_EQ(twin.Step(hot).decision, ElasticDecision::kRent);
  // ...and both sit out the same cooldown afterwards.
  for (int window = 0; window < 4; ++window) {
    const ElasticAction a = controller.Step(hot);
    const ElasticAction b = twin.Step(hot);
    EXPECT_EQ(a.decision, b.decision) << "window " << window;
  }
}

TEST(AccountPersistTest, BooksBalanceAfterRestore) {
  CloudAccount account(Money::FromDollars(100.0));
  account.DepositRevenue(Money::FromDollars(3.5));
  account.ChargeExpenditure(Money::FromMicros(123'456));
  ASSERT_TRUE(account.WithdrawInvestment(Money::FromDollars(10.0)).ok());

  Encoder enc;
  account.SaveState(&enc);
  CloudAccount twin(Money::FromDollars(100.0));
  Decoder dec(enc.buffer().data(), enc.size());
  ASSERT_TRUE(twin.RestoreState(&dec).ok());
  EXPECT_TRUE(dec.AtEnd());

  EXPECT_EQ(twin.credit().micros(), account.credit().micros());
  EXPECT_EQ(twin.total_revenue().micros(), account.total_revenue().micros());
  EXPECT_EQ(twin.total_expenditure().micros(),
            account.total_expenditure().micros());
  EXPECT_EQ(twin.total_investment().micros(),
            account.total_investment().micros());
  // The audit identity holds on the restored books.
  EXPECT_EQ(twin.credit().micros(),
            (twin.initial_credit() + twin.total_revenue() -
             twin.total_expenditure() - twin.total_investment())
                .micros());
  EXPECT_EQ(twin.initial_credit().micros(), account.initial_credit().micros());
}

TEST(TimeSeriesPersistTest, SaveRestoreContinueMatchesTheUninterruptedRun) {
  TimeSeries whole(8);
  TimeSeries first(8);
  for (int i = 0; i < 37; ++i) {
    whole.Add(i, 0.5 * i);
    first.Add(i, 0.5 * i);
  }
  Encoder enc;
  SaveTimeSeries(first, &enc);
  TimeSeries resumed(8);
  Decoder dec(enc.buffer().data(), enc.size());
  ASSERT_TRUE(RestoreTimeSeries(&dec, &resumed).ok());
  EXPECT_TRUE(dec.AtEnd());
  for (int i = 37; i < 300; ++i) {
    whole.Add(i, 0.5 * i);
    resumed.Add(i, 0.5 * i);
  }
  EXPECT_EQ(resumed.times(), whole.times());
  EXPECT_EQ(resumed.values(), whole.values());
  EXPECT_EQ(resumed.stride_level(), whole.stride_level());
}

TEST(TimeSeriesPersistTest, OversizedTimelineIsRejected) {
  TimeSeries big(16);
  for (int i = 0; i < 16; ++i) big.Add(i, i);
  Encoder enc;
  SaveTimeSeries(big, &enc);
  TimeSeries small(8);
  Decoder dec(enc.buffer().data(), enc.size());
  const Status restored = RestoreTimeSeries(&dec, &small);
  EXPECT_EQ(restored.code(), StatusCode::kInvalidArgument)
      << restored.ToString();
  EXPECT_EQ(small.size(), 0u);
}

TEST(RngPersistTest, RestoredStreamContinuesExactly) {
  Rng rng(1234);
  for (int i = 0; i < 100; ++i) rng.Next();

  Encoder enc;
  persist::SaveRng(rng, &enc);
  Rng twin(999);  // Different seed: the restore must overwrite it fully.
  Decoder dec(enc.buffer().data(), enc.size());
  ASSERT_TRUE(persist::RestoreRng(&dec, &twin).ok());
  EXPECT_TRUE(dec.AtEnd());

  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(twin.Next(), rng.Next()) << "draw " << i;
  }
  // Fork lineage survives too (the retained seed is part of the state).
  EXPECT_EQ(twin.Fork(7).Next(), rng.Fork(7).Next());
}

TEST(WorkloadGeneratorPersistTest, PerTenantStreamsResumeMidFlight) {
  const Catalog catalog = MakeTpchCatalog(10.0);
  const std::vector<QueryTemplate> templates = MakeTpchTemplates();
  Result<std::vector<ResolvedTemplate>> resolved =
      ResolveTemplates(catalog, templates);
  ASSERT_TRUE(resolved.ok());

  // Three tenant streams with distinct seeds/mixes, as the multi-tenant
  // simulator derives them; each is advanced a different distance so the
  // snapshot captures three distinct RNG positions.
  WorkloadOptions base;
  base.seed = 11;
  base.arrival = WorkloadOptions::Arrival::kPoisson;
  TenancyOptions tenancy;
  tenancy.tenants = 3;
  tenancy.traffic_skew = 1.0;
  std::vector<WorkloadGenerator> streams;
  for (uint32_t t = 0; t < 3; ++t) {
    streams.emplace_back(&catalog, *resolved,
                         TenantWorkloadOptions(base, tenancy, t));
    for (uint32_t i = 0; i < 17 * (t + 1); ++i) streams[t].Next();
  }

  Encoder enc;
  for (const WorkloadGenerator& gen : streams) gen.SaveState(&enc);

  std::vector<WorkloadGenerator> twins;
  for (uint32_t t = 0; t < 3; ++t) {
    twins.emplace_back(&catalog, *resolved,
                       TenantWorkloadOptions(base, tenancy, t));
  }
  Decoder dec(enc.buffer().data(), enc.size());
  for (WorkloadGenerator& twin : twins) {
    ASSERT_TRUE(twin.RestoreState(&dec).ok());
  }
  EXPECT_TRUE(dec.AtEnd());

  for (uint32_t t = 0; t < 3; ++t) {
    EXPECT_EQ(twins[t].queries_generated(), streams[t].queries_generated());
    EXPECT_EQ(twins[t].PeekNextArrival(), streams[t].PeekNextArrival());
    for (int i = 0; i < 50; ++i) {
      const Query want = streams[t].Next();
      const Query got = twins[t].Next();
      EXPECT_EQ(got.id, want.id);
      EXPECT_EQ(got.template_id, want.template_id);
      EXPECT_EQ(got.arrival_time, want.arrival_time);
      EXPECT_EQ(got.tenant_id, want.tenant_id);
      EXPECT_EQ(got.result_bytes, want.result_bytes);
      ASSERT_EQ(got.predicates.size(), want.predicates.size());
      for (size_t p = 0; p < want.predicates.size(); ++p) {
        EXPECT_EQ(got.predicates[p].selectivity,
                  want.predicates[p].selectivity);
      }
    }
  }
}

}  // namespace
}  // namespace cloudcache
