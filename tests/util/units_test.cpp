#include "src/util/units.h"

#include <gtest/gtest.h>

namespace cloudcache {
namespace {

TEST(UnitsTest, BinaryAndDecimalConstants) {
  EXPECT_EQ(kKiB, 1024u);
  EXPECT_EQ(kMiB, 1024u * 1024);
  EXPECT_EQ(kGiB, 1024ull * 1024 * 1024);
  EXPECT_EQ(kTiB, 1024ull * kGiB);
  EXPECT_EQ(kKB, 1000u);
  EXPECT_EQ(kMB, 1'000'000u);
  EXPECT_EQ(kGB, 1'000'000'000u);
  EXPECT_EQ(kTB, 1'000'000'000'000ull);
  // The paper's "2.5 TB" backend is decimal terabytes.
  EXPECT_EQ(25 * kTB / 10, 2'500'000'000'000ull);
}

TEST(UnitsTest, TimeConstants) {
  EXPECT_EQ(kMinute, 60.0);
  EXPECT_EQ(kHour, 3600.0);
  EXPECT_EQ(kDay, 86400.0);
  // Cloud billing month: 30 days, the convention 2009 price sheets used.
  EXPECT_EQ(kMonth, 30.0 * 86400.0);
}

TEST(UnitsTest, MbpsToBytesPerSec) {
  // 25 Mbps (the paper's WAN) = 3.125 MB/s.
  EXPECT_DOUBLE_EQ(MbpsToBytesPerSec(25.0), 3'125'000.0);
  EXPECT_DOUBLE_EQ(MbpsToBytesPerSec(8.0), 1e6);
  EXPECT_DOUBLE_EQ(MbpsToBytesPerSec(0.0), 0.0);
}

TEST(UnitsTest, BytesToGB) {
  EXPECT_DOUBLE_EQ(BytesToGB(kGB), 1.0);
  EXPECT_DOUBLE_EQ(BytesToGB(25 * kTB / 10), 2500.0);
  EXPECT_DOUBLE_EQ(BytesToGB(0), 0.0);
}

TEST(UnitsTest, TransferTimeSanity) {
  // A 120 GB column at 25 Mbps takes ~11 simulated hours to build.
  const double seconds = 120e9 / MbpsToBytesPerSec(25.0);
  EXPECT_NEAR(seconds / kHour, 10.7, 0.3);
}

}  // namespace
}  // namespace cloudcache
