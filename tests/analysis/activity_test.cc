#include "src/analysis/activity.h"

#include <gtest/gtest.h>

#include "tests/testing/analyze_helpers.h"
#include "tests/testing/trace_builder.h"

namespace bsdtrace {
namespace {

ActivityStats Analyze(const Trace& t) { return AnalyzeForTest(t).activity; }

TEST(ActivityStats, DistinctUsersCounted) {
  const Trace t = TraceBuilder()
                      .WholeRead(1, 2, 1, 10, 100, 5)
                      .WholeRead(3, 4, 2, 10, 100, 6)
                      .WholeRead(5, 6, 3, 10, 100, 5)
                      .Build();
  EXPECT_EQ(Analyze(t).distinct_users, 2u);
}

TEST(ActivityStats, AverageThroughputOverLife) {
  // 1000 bytes over 10 seconds of trace.
  const Trace t = TraceBuilder().WholeRead(1, 2, 1, 10, 1000).Unlink(10, 99).Build();
  EXPECT_DOUBLE_EQ(Analyze(t).average_throughput, 100.0);
}

TEST(ActivityStats, TenSecondIntervalsSeparateUsers) {
  // Users 1 and 2 active in the first 10-second interval; only user 1 later.
  const Trace t = TraceBuilder()
                      .WholeRead(1, 2, 1, 10, 500, 1)
                      .WholeRead(3, 4, 2, 11, 500, 2)
                      .WholeRead(15, 16, 3, 10, 500, 1)
                      .Unlink(30, 99, 3)
                      .Build();
  const ActivityStats s = Analyze(t);
  EXPECT_EQ(s.ten_second.max_active_users, 2);
  EXPECT_GE(s.ten_second.intervals, 3u);
}

TEST(ActivityStats, CloseAttributedToOpeningUser) {
  // The close record carries no user id; activity must come from the open's.
  TraceBuilder b;
  b.Open(1, 1, 10, 1000, AccessMode::kReadOnly, 42);
  b.Close(15, 1, 10, 1000, 1000);  // next 10-s interval; bytes billed here
  const ActivityStats s = Analyze(b.Build());
  // User 42 is active in both intervals (open event, then close+transfer).
  EXPECT_EQ(s.distinct_users, 1u);
  EXPECT_EQ(s.ten_second.max_active_users, 1);
  EXPECT_GT(s.ten_second.throughput_per_user.max(), 0.0);
}

TEST(ActivityStats, EmptyIntervalsCountZeroActive) {
  // Activity at t=1 and t=25 (10-s intervals 0 and 2); interval 1 is empty.
  const Trace t = TraceBuilder().Unlink(1, 5, 1).Unlink(25, 6, 1).Build();
  const ActivityStats s = Analyze(t);
  EXPECT_GE(s.ten_second.intervals, 2u);
  EXPECT_EQ(s.ten_second.active_users.min(), 0.0);
}

TEST(ActivityStats, ThroughputPerUserUsesIntervalLength) {
  // 2000 bytes in one 10-second interval => 200 B/s for that user.
  const Trace t = TraceBuilder().WholeRead(1, 2, 1, 10, 2000, 3).Unlink(11, 99, 9).Build();
  const ActivityStats s = Analyze(t);
  EXPECT_DOUBLE_EQ(s.ten_second.throughput_per_user.max(), 200.0);
}

TEST(ActivityStats, ActiveWithoutBytesCountsAsZeroThroughput) {
  const Trace t = TraceBuilder().Unlink(1, 5, 4).Unlink(11, 5, 4).Build();
  const ActivityStats s = Analyze(t);
  EXPECT_EQ(s.ten_second.throughput_per_user.mean(), 0.0);
  EXPECT_GT(s.ten_second.active_users.max(), 0.0);
}

TEST(ActivityStats, EmptyTrace) {
  const ActivityStats s = Analyze(Trace{});
  EXPECT_EQ(s.total_bytes, 0u);
  EXPECT_EQ(s.distinct_users, 0u);
  EXPECT_EQ(s.average_throughput, 0.0);
}

}  // namespace
}  // namespace bsdtrace
