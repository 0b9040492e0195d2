#include "src/obs/stage_profile.h"

#include <gtest/gtest.h>

#include <string>

namespace cloudcache::obs {
namespace {

/// The profiler is process-global; every test restores the disabled,
/// zeroed state so no other suite observes leftover counters.
class StageProfilerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    StageProfiler::Instance().Enable(false);
    StageProfiler::Instance().Reset();
  }
  void TearDown() override {
    StageProfiler::Instance().Enable(false);
    StageProfiler::Instance().Reset();
  }
};

TEST_F(StageProfilerTest, DisabledTimersRecordNothing) {
  { ScopedStageTimer timer(Stage::kEnumerate); }
  { ScopedStageTimer timer(Stage::kSettle); }
  for (int i = 0; i < kNumStages; ++i) {
    EXPECT_EQ(StageProfiler::Instance().count(static_cast<Stage>(i)), 0u);
    EXPECT_EQ(StageProfiler::Instance().nanos(static_cast<Stage>(i)), 0u);
  }
}

TEST_F(StageProfilerTest, EnabledTimersAccumulatePerStage) {
  StageProfiler::Instance().Enable(true);
  { ScopedStageTimer timer(Stage::kEnumerate); }
  { ScopedStageTimer timer(Stage::kEnumerate); }
  { ScopedStageTimer timer(Stage::kPrice); }
  EXPECT_EQ(StageProfiler::Instance().count(Stage::kEnumerate), 2u);
  EXPECT_EQ(StageProfiler::Instance().count(Stage::kPrice), 1u);
  EXPECT_EQ(StageProfiler::Instance().count(Stage::kSkyline), 0u);
  EXPECT_EQ(StageProfiler::Instance().count(Stage::kSettle), 0u);
}

TEST_F(StageProfilerTest, TimerReadsEnabledAtConstruction) {
  // A timer built while profiling is off must stay silent even if
  // profiling turns on before it destructs — no torn half-measurements.
  StageProfiler::Instance().Enable(false);
  {
    ScopedStageTimer timer(Stage::kSkyline);
    StageProfiler::Instance().Enable(true);
  }
  EXPECT_EQ(StageProfiler::Instance().count(Stage::kSkyline), 0u);
}

TEST_F(StageProfilerTest, ResetZeroesEverything) {
  StageProfiler::Instance().Enable(true);
  StageProfiler::Instance().Record(Stage::kSettle, 1'000);
  StageProfiler::Instance().Reset();
  EXPECT_EQ(StageProfiler::Instance().count(Stage::kSettle), 0u);
  EXPECT_EQ(StageProfiler::Instance().nanos(Stage::kSettle), 0u);
}

TEST_F(StageProfilerTest, FormatTableNamesEveryStage) {
  StageProfiler::Instance().Enable(true);
  StageProfiler::Instance().Record(Stage::kEnumerate, 2'000);
  StageProfiler::Instance().Record(Stage::kSkyline, 1'000);
  StageProfiler::Instance().Record(Stage::kPrice, 500);
  StageProfiler::Instance().Record(Stage::kSettle, 500);
  const std::string table = StageProfiler::Instance().FormatTable();
  for (const char* name :
       {"failure-scan", "enumerate", "skyline", "price", "settle"}) {
    EXPECT_NE(table.find(name), std::string::npos) << name;
  }
  EXPECT_NE(table.find("50.0%"), std::string::npos);  // Enumerate share.
}

}  // namespace
}  // namespace cloudcache::obs
