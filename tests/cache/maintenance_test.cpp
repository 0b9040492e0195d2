#include "src/cache/maintenance.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "src/util/rng.h"
#include "tests/testing/fixtures.h"

namespace cloudcache {
namespace {

class MaintenanceTest : public ::testing::Test {
 protected:
  MaintenanceTest()
      : catalog_(testing::MakeTinyCatalog()),
        prices_(testing::MakeRoundPrices()),
        model_(&catalog_, &prices_),
        ledger_(&model_) {}

  StructureKey FactColumn() {
    return ColumnKey(catalog_, *catalog_.FindColumn("fact.f_key"));
  }

  Catalog catalog_;
  PriceList prices_;
  CostModel model_;
  MaintenanceLedger ledger_;
};

TEST_F(MaintenanceTest, FreshStructureOwesNothing) {
  ledger_.Register(0, FactColumn(), 100.0, Money::FromDollars(1));
  EXPECT_TRUE(ledger_.Owed(0, 100.0).IsZero());
  EXPECT_TRUE(ledger_.IsTracked(0));
}

TEST_F(MaintenanceTest, OwedGrowsLinearly) {
  ledger_.Register(0, FactColumn(), 0.0, Money());
  const Money one_month = ledger_.Owed(0, kMonth);
  // 8 MB at $0.10/GB-month.
  EXPECT_EQ(one_month, Money::FromDollars(8e6 * 0.10 / 1e9));
  EXPECT_EQ(ledger_.Owed(0, 2 * kMonth), one_month * 2);
}

TEST_F(MaintenanceTest, PayCollectsAndResets) {
  ledger_.Register(0, FactColumn(), 0.0, Money());
  const Money paid = ledger_.Pay(0, kMonth);
  EXPECT_EQ(paid, Money::FromDollars(8e6 * 0.10 / 1e9));
  EXPECT_TRUE(ledger_.Owed(0, kMonth).IsZero());
  // Rent keeps accruing from the payment point (another full month).
  EXPECT_FALSE(ledger_.Owed(0, 2 * kMonth).IsZero());
}

TEST_F(MaintenanceTest, FootnoteThreePaymentCoversSinceLastPayer) {
  // Two payments at different times collect exactly the whole rent.
  ledger_.Register(0, FactColumn(), 0.0, Money());
  const Money p1 = ledger_.Pay(0, kMonth / 2);
  const Money p2 = ledger_.Pay(0, kMonth);
  EXPECT_EQ(p1 + p2, Money::FromDollars(8e6 * 0.10 / 1e9));
}

TEST_F(MaintenanceTest, UnregisterReturnsWriteOff) {
  ledger_.Register(0, FactColumn(), 0.0, Money());
  const Money writeoff = ledger_.Unregister(0, kMonth);
  EXPECT_EQ(writeoff, Money::FromDollars(8e6 * 0.10 / 1e9));
  EXPECT_FALSE(ledger_.IsTracked(0));
}

TEST_F(MaintenanceTest, BuildCostRetained) {
  ledger_.Register(3, FactColumn(), 0.0, Money::FromDollars(42));
  EXPECT_EQ(ledger_.BuildCostOf(3), Money::FromDollars(42));
}

TEST_F(MaintenanceTest, TimeNeverRunsBackwards) {
  ledger_.Register(0, FactColumn(), 10.0, Money());
  // Asking about a time before registration owes nothing.
  EXPECT_TRUE(ledger_.Owed(0, 5.0).IsZero());
  EXPECT_TRUE(ledger_.Pay(0, 5.0).IsZero());
}

TEST_F(MaintenanceTest, CpuNodeChargesReservationRate) {
  ledger_.Register(1, CpuNodeKey(0), 0.0, Money());
  const Money owed = ledger_.Owed(1, 1000.0);
  EXPECT_EQ(owed, Money::FromDollars(1000.0 * 0.001 *
                                     prices_.cpu_reserve_fraction));
}

TEST_F(MaintenanceTest, IndependentClocks) {
  ledger_.Register(0, FactColumn(), 0.0, Money());
  ledger_.Register(1, CpuNodeKey(0), 0.0, Money());
  ledger_.Pay(0, 100.0);
  EXPECT_TRUE(ledger_.Owed(0, 100.0).IsZero());
  EXPECT_FALSE(ledger_.Owed(1, 100.0).IsZero());
}

TEST_F(MaintenanceTest, FailureScaleDefaultsToOne) {
  ledger_.Register(0, FactColumn(), 0.0, Money::FromDollars(1));
  EXPECT_DOUBLE_EQ(ledger_.FailureScale(0), 1.0);
  // Untracked structures also read 1.0 so callers can ask blindly.
  EXPECT_DOUBLE_EQ(ledger_.FailureScale(42), 1.0);
}

TEST_F(MaintenanceTest, FailureScaleRetainedUntilUnregister) {
  ledger_.Register(0, FactColumn(), 0.0, Money::FromDollars(1), 1.75);
  EXPECT_DOUBLE_EQ(ledger_.FailureScale(0), 1.75);
  ledger_.Unregister(0, 10.0);
  EXPECT_DOUBLE_EQ(ledger_.FailureScale(0), 1.0);
}

// --- Failure deadlines -------------------------------------------------

/// The economy's exact failure predicate (EconomyEngine::
/// EvictFailedStructures) over a bare ledger: unpaid rent above the
/// recorded build cost — or, recorded at zero, the structure's own build
/// cost under `residency` — times the rule's fraction and, if the rule
/// scales, the stamped failure scale.
bool Fails(const MaintenanceLedger& ledger, const CostModel& model,
           MaintenanceLedger::FailureRule rule, StructureId id,
           const StructureKey& key, const std::vector<bool>& residency,
           SimTime now) {
  const Money owed = ledger.Owed(id, now);
  if (owed.IsZero()) return false;
  Money build_cost = ledger.BuildCostOf(id);
  if (build_cost.IsZero()) build_cost = model.BuildCost(key, residency);
  Money threshold = build_cost * rule.fraction;
  if (rule.scaled) {
    const double scale = ledger.FailureScale(id);
    if (scale != 1.0) threshold = threshold * scale;
  }
  return owed > threshold;
}

/// Drives one ledger through random registrations, payments and clock
/// advances, and at every step checks the deadline scan (what the economy
/// runs: nothing before NextDue, then the exact predicate over the due
/// clocks) against a brute-force scan of every clock in ascending id
/// order. Failures are unregistered, as the economy evicts them.
class DeadlineHarness {
 public:
  DeadlineHarness(const Catalog* catalog, const CostModel* model,
                  MaintenanceLedger::FailureRule rule, uint64_t seed)
      : model_(model),
        rule_(rule),
        ledger_(model, rule),
        rng_(seed),
        residency_(catalog->num_columns(), false) {
    for (ColumnId c = 0; c < catalog->num_columns(); ++c) {
      keys_.push_back(ColumnKey(*catalog, c));
    }
    const ColumnId date = *catalog->FindColumn("fact.f_date");
    const ColumnId value = *catalog->FindColumn("fact.f_value");
    const ColumnId key = *catalog->FindColumn("fact.f_key");
    keys_.push_back(IndexKey(*catalog, {date}));
    keys_.push_back(IndexKey(*catalog, {date, value, key}));
    keys_.push_back(IndexKey(*catalog, {value}));
    for (uint32_t n = 0; n < 4; ++n) keys_.push_back(CpuNodeKey(n));
  }

  /// Runs `steps` random operations; returns how many clocks failed.
  size_t Run(int steps) {
    size_t failures = 0;
    for (int step = 0; step < steps; ++step) {
      const double roll = rng_.NextDouble();
      if (roll < 0.3) {
        RegisterRandom();
      } else if (roll < 0.55) {
        PayRandom();
      } else if (roll < 0.6) {
        // Three scans at one instant, as the driver does per query.
      } else {
        // Log-uniform steps from a millisecond to a quarter year.
        now_ += std::exp(rng_.NextUniform(std::log(1e-3),
                                          std::log(kMonth / 4)));
      }
      if (rng_.NextBernoulli(0.1)) {
        residency_[rng_.NextBounded(residency_.size())].flip();
      }
      failures += CheckScan();
    }
    return failures;
  }

 private:
  void RegisterRandom() {
    const StructureId id =
        static_cast<StructureId>(rng_.NextBounded(keys_.size()));
    if (ledger_.IsTracked(id)) return;
    Money build_cost;
    switch (rng_.NextBounded(4)) {
      case 0:
        break;  // A companion column (or a free build): the fallback.
      case 1:
        build_cost = Money::FromMicros(rng_.NextInt(1, 10));
        break;
      case 2:
        build_cost = Money::FromMicros(rng_.NextInt(1, 1'000'000));
        break;
      default:
        build_cost = Money::FromDollars(rng_.NextUniform(1, 1000));
        break;
    }
    const double scale =
        rng_.NextBernoulli(0.5) ? 1.0 : rng_.NextUniform(1.0, 3.0);
    // Some builds land later (a pending build's clock starts at ready_at).
    const SimTime ready_at =
        now_ + (rng_.NextBernoulli(0.3) ? rng_.NextUniform(0, 1e5) : 0.0);
    ledger_.Register(id, keys_[id], ready_at, build_cost, scale);
  }

  void PayRandom() {
    std::vector<StructureId> tracked = Tracked();
    if (tracked.empty()) return;
    const StructureId id = tracked[rng_.NextBounded(tracked.size())];
    const double caps[] = {60.0, 3600.0, MaintenanceLedger::kNoCapSeconds};
    ledger_.Pay(id, now_, caps[rng_.NextBounded(3)]);
  }

  std::vector<StructureId> Tracked() const {
    std::vector<StructureId> tracked;
    for (StructureId id = 0; id < keys_.size(); ++id) {
      if (ledger_.IsTracked(id)) tracked.push_back(id);
    }
    return tracked;
  }

  size_t CheckScan() {
    std::vector<StructureId> brute;
    for (StructureId id : Tracked()) {
      if (Fails(ledger_, *model_, rule_, id, keys_[id], residency_, now_)) {
        brute.push_back(id);
      }
    }
    std::vector<StructureId> scanned;
    if (now_ >= ledger_.NextDue()) {
      std::vector<StructureId> due;
      ledger_.CollectDue(now_, &due);
      EXPECT_TRUE(std::is_sorted(due.begin(), due.end()));
      for (StructureId id : due) {
        if (Fails(ledger_, *model_, rule_, id, keys_[id], residency_,
                  now_)) {
          scanned.push_back(id);
        }
      }
      for (StructureId id : scanned) ledger_.Unregister(id, now_);
      ledger_.RefreshNextDue();
    }
    EXPECT_EQ(scanned, brute) << "at t=" << now_;
    return brute.size();
  }

  const CostModel* model_;
  MaintenanceLedger::FailureRule rule_;
  MaintenanceLedger ledger_;
  Rng rng_;
  std::vector<bool> residency_;
  std::vector<StructureKey> keys_;
  SimTime now_ = 0;
};

TEST_F(MaintenanceTest, DeadlineScanMatchesBruteForceOnRandomClocks) {
  // Rent rates from zero through the round list to a million times it,
  // so failure gaps range from never through months down to milliseconds.
  const double disk_scales[] = {0.0, 1e-12, 1.0, 1e6};
  size_t failures = 0;
  uint64_t seed = 1;
  for (double disk_scale : disk_scales) {
    PriceList prices = testing::MakeRoundPrices();
    prices.disk_byte_second_dollars *= disk_scale;
    const CostModel model(&catalog_, &prices);
    for (double fraction : {0.0, 0.01, 0.25, 1.0}) {
      for (bool scaled : {false, true}) {
        DeadlineHarness harness(&catalog_, &model, {fraction, scaled},
                                seed++);
        failures += harness.Run(600);
      }
    }
  }
  EXPECT_GT(failures, 100u);  // The predicate was exercised, not skipped.
}

TEST_F(MaintenanceTest, DeadlineHonorsThresholdsOneMicroEitherSide) {
  // Three clocks whose thresholds sit one micro-dollar below, at, and
  // above the rent owed at `gap`: exactly the first has failed, and the
  // deadline scan must find it at that instant — and at the first instant
  // the rent exceeds a threshold, but not one representable time earlier.
  const MaintenanceLedger::FailureRule rule{1.0, false};
  const std::vector<bool> residency(catalog_.num_columns(), false);
  const StructureKey keys[] = {
      FactColumn(), ColumnKey(catalog_, *catalog_.FindColumn("dim.d_attr")),
      CpuNodeKey(0), CpuNodeKey(3)};
  Rng rng(7);
  int checked = 0;
  for (const StructureKey& key : keys) {
    for (int trial = 0; trial < 200; ++trial) {
      MaintenanceLedger probe(&model_);
      probe.Register(0, key, 0.0, Money());
      const double gap =
          std::exp(rng.NextUniform(std::log(1.0), std::log(12 * kMonth)));
      const Money owed = probe.Owed(0, gap);
      if (owed.micros() < 2) continue;
      MaintenanceLedger ledger(&model_, rule);
      const Money one = Money::FromMicros(1);
      ledger.Register(0, key, 0.0, owed - one);
      ledger.Register(1, key, 0.0, owed);
      ledger.Register(2, key, 0.0, owed + one);
      // The first instant the rent exceeds `owed`: bisect over doubles.
      double lo = gap;
      double hi = 2 * gap + 1.0;
      while (std::nextafter(lo, hi) < hi) {
        const double mid = lo + (hi - lo) / 2;
        if (mid <= lo || mid >= hi) break;
        (ledger.Owed(1, mid) > owed ? hi : lo) = mid;
      }
      for (SimTime now : {gap, lo, hi}) {
        std::vector<StructureId> brute;
        for (StructureId id = 0; id < 3; ++id) {
          if (Fails(ledger, model_, rule, id, key, residency, now)) {
            brute.push_back(id);
          }
        }
        std::vector<StructureId> due;
        if (now >= ledger.NextDue()) ledger.CollectDue(now, &due);
        for (StructureId id : brute) {
          EXPECT_TRUE(std::count(due.begin(), due.end(), id))
              << key.ToString(catalog_) << " id " << id << " at " << now;
        }
      }
      EXPECT_TRUE(Fails(ledger, model_, rule, 0, key, residency, gap));
      EXPECT_FALSE(Fails(ledger, model_, rule, 1, key, residency, gap));
      EXPECT_FALSE(Fails(ledger, model_, rule, 2, key, residency, gap));
      EXPECT_TRUE(Fails(ledger, model_, rule, 1, key, residency, hi));
      EXPECT_FALSE(Fails(ledger, model_, rule, 1, key, residency, lo));
      ++checked;
    }
  }
  EXPECT_GT(checked, 400);
}

TEST_F(MaintenanceTest, ZeroRentRateNeverComesDue) {
  PriceList free_disk = testing::MakeRoundPrices();
  free_disk.disk_byte_second_dollars = 0.0;
  const CostModel model(&catalog_, &free_disk);
  MaintenanceLedger ledger(&model, {0.25, false});
  ledger.Register(0, FactColumn(), 0.0, Money());
  EXPECT_EQ(ledger.NextDue(), std::numeric_limits<SimTime>::infinity());
  EXPECT_TRUE(ledger.Owed(0, 100 * kMonth).IsZero());
}

TEST_F(MaintenanceTest, PayMovesTheDeadlineLaterAndRefreshFollows) {
  MaintenanceLedger ledger(&model_, {0.25, false});
  ledger.Register(0, FactColumn(), 0.0, Money::FromDollars(1));
  const SimTime first = ledger.NextDue();
  EXPECT_GT(first, 0.0);
  ledger.Pay(0, first / 2);
  // The stale bound is still a valid lower bound until refreshed.
  EXPECT_EQ(ledger.NextDue(), first);
  ledger.RefreshNextDue();
  EXPECT_GT(ledger.NextDue(), first);
  ledger.Unregister(0, first);
  ledger.RefreshNextDue();
  EXPECT_EQ(ledger.NextDue(), std::numeric_limits<SimTime>::infinity());
}

}  // namespace
}  // namespace cloudcache
