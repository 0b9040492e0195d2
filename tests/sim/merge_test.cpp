#include "src/sim/merge.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

namespace cloudcache {
namespace {

/// Streams given as fixed arrival schedules; stream u is live while it
/// has arrivals left, and drawing advances its cursor.
class ScheduledStreams {
 public:
  explicit ScheduledStreams(std::vector<std::vector<SimTime>> schedules)
      : schedules_(std::move(schedules)), next_(schedules_.size(), 0) {}

  size_t Head() const {
    return MergeHead(
        schedules_.size(),
        [this](size_t u) { return schedules_[u][next_[u]]; },
        [this](size_t u) { return next_[u] < schedules_[u].size(); });
  }

  /// Draws from the merge head; returns the stream drawn from.
  size_t Draw() {
    const size_t head = Head();
    ++next_[head];
    return head;
  }

 private:
  std::vector<std::vector<SimTime>> schedules_;
  std::vector<size_t> next_;
};

TEST(MergeHeadTest, NoLiveStreamHasNoHead) {
  EXPECT_EQ(MergeHead(0, [](size_t) { return 0.0; }), 0u);
  ScheduledStreams streams({{}, {}});
  EXPECT_EQ(streams.Head(), 2u);
}

TEST(MergeHeadTest, DrawsInTimeOrder) {
  ScheduledStreams streams({{3.0}, {1.0}, {2.0}});
  EXPECT_EQ(streams.Draw(), 1u);
  EXPECT_EQ(streams.Draw(), 2u);
  EXPECT_EQ(streams.Draw(), 0u);
  EXPECT_EQ(streams.Head(), 3u);
}

TEST(MergeHeadTest, HeadFollowsEachDraw) {
  // Stream 1's second arrival (2.0) lands before stream 0's first (5.0):
  // the head moves back to stream 1 after it is drawn once.
  ScheduledStreams streams({{5.0}, {1.0, 2.0}});
  EXPECT_EQ(streams.Draw(), 1u);
  EXPECT_EQ(streams.Draw(), 1u);
  EXPECT_EQ(streams.Draw(), 0u);
}

TEST(MergeHeadTest, TiesBreakToTheLowestStream) {
  // Three streams arrive at the same instant: they are drawn in stream
  // order, whatever order they became live in.
  ScheduledStreams streams({{7.0}, {7.0}, {7.0}});
  EXPECT_EQ(streams.Draw(), 0u);
  EXPECT_EQ(streams.Draw(), 1u);
  EXPECT_EQ(streams.Draw(), 2u);
}

TEST(MergeHeadTest, TimeStillDominatesTie) {
  ScheduledStreams streams({{2.0}, {1.0}});
  EXPECT_EQ(streams.Draw(), 1u);  // Earlier time wins over the lower id.
  EXPECT_EQ(streams.Draw(), 0u);
}

TEST(MergeHeadTest, RetiredStreamLeavesTheMerge) {
  // cloudcached's use: a stream whose connection closed is no longer
  // live, so the head passes over it even though it peeks earliest.
  const std::vector<SimTime> peeks = {1.0, 4.0, 3.0};
  std::vector<bool> live = {true, true, true};
  const auto peek = [&peeks](size_t u) { return peeks[u]; };
  const auto is_live = [&live](size_t u) -> bool { return live[u]; };
  EXPECT_EQ(MergeHead(peeks.size(), peek, is_live), 0u);
  live[0] = false;
  EXPECT_EQ(MergeHead(peeks.size(), peek, is_live), 2u);
  live[2] = false;
  EXPECT_EQ(MergeHead(peeks.size(), peek, is_live), 1u);
  live[1] = false;
  EXPECT_EQ(MergeHead(peeks.size(), peek, is_live), 3u);
}

TEST(MergeHeadTest, MergedTwoTenantStreamMatchesHandInterleavedReference) {
  // Two fixed schedules chosen to collide: tenant 0 arrives every 3s,
  // tenant 1 every 2s, so they tie at t=6, t=12, ... The merged order
  // must equal a hand-built stable merge of the union sorted by
  // (time, tenant).
  const double kStep[2] = {3.0, 2.0};
  const size_t kPerTenant = 40;

  std::vector<std::vector<SimTime>> schedules(2);
  std::vector<std::pair<double, uint32_t>> reference;
  for (uint32_t tenant = 0; tenant < 2; ++tenant) {
    for (size_t i = 0; i < kPerTenant; ++i) {
      const double time = static_cast<double>(i) * kStep[tenant];
      schedules[tenant].push_back(time);
      reference.push_back({time, tenant});
    }
  }
  std::sort(reference.begin(), reference.end());

  ScheduledStreams streams(schedules);
  std::vector<size_t> drawn(2, 0);
  std::vector<std::pair<double, uint32_t>> merged;
  while (merged.size() < reference.size()) {
    const size_t tenant = streams.Draw();
    merged.push_back({schedules[tenant][drawn[tenant]++],
                      static_cast<uint32_t>(tenant)});
  }
  EXPECT_EQ(merged, reference);
  EXPECT_EQ(streams.Head(), 2u);
}

}  // namespace
}  // namespace cloudcache
