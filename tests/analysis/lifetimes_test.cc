#include "src/analysis/lifetimes.h"

#include <gtest/gtest.h>

#include "tests/testing/analyze_helpers.h"
#include "tests/testing/trace_builder.h"

namespace bsdtrace {
namespace {

LifetimeStats Analyze(const Trace& t) { return AnalyzeForTest(t).lifetimes; }

TEST(Lifetimes, DeathByUnlink) {
  TraceBuilder b;
  b.WholeWrite(10, 11, 1, 50, 1000);
  b.Unlink(40, 50);
  const LifetimeStats s = Analyze(b.Build());
  EXPECT_EQ(s.new_files, 1u);
  EXPECT_EQ(s.observed_deaths, 1u);
  // Born at the create (t=10), died at t=40.
  EXPECT_DOUBLE_EQ(s.by_files.Quantile(1.0), 30.0);
}

TEST(Lifetimes, DeathByRecreate) {
  TraceBuilder b;
  b.WholeWrite(10, 11, 1, 50, 1000);
  b.WholeWrite(190, 191, 2, 50, 1000);  // overwritten 180 s later
  const LifetimeStats s = Analyze(b.Build());
  EXPECT_EQ(s.new_files, 2u);
  EXPECT_EQ(s.observed_deaths, 1u);
  EXPECT_DOUBLE_EQ(s.FileFractionIn(179, 181), 1.0);
}

TEST(Lifetimes, DeathByTruncateToZero) {
  TraceBuilder b;
  b.WholeWrite(10, 11, 1, 50, 1000);
  b.Truncate(25, 50, 0);
  const LifetimeStats s = Analyze(b.Build());
  EXPECT_EQ(s.observed_deaths, 1u);
  EXPECT_DOUBLE_EQ(s.by_files.Quantile(1.0), 15.0);
}

TEST(Lifetimes, PartialTruncateIsNotDeath) {
  TraceBuilder b;
  b.WholeWrite(10, 11, 1, 50, 1000);
  b.Truncate(25, 50, 500);
  const LifetimeStats s = Analyze(b.Build());
  EXPECT_EQ(s.observed_deaths, 0u);
}

TEST(Lifetimes, SurvivorsAreCensored) {
  TraceBuilder b;
  b.WholeWrite(10, 11, 1, 50, 1000);  // never dies within the trace
  const LifetimeStats s = Analyze(b.Build());
  EXPECT_EQ(s.new_files, 1u);
  EXPECT_EQ(s.observed_deaths, 0u);
  EXPECT_TRUE(s.by_files.empty());
}

TEST(Lifetimes, PreexistingFilesNotCounted) {
  // A file never created during the trace: unlinking it is not a measurable
  // lifetime (its birth is unknown).
  TraceBuilder b;
  b.WholeRead(1, 2, 1, 50, 1000);
  b.Unlink(5, 50);
  const LifetimeStats s = Analyze(b.Build());
  EXPECT_EQ(s.new_files, 0u);
  EXPECT_EQ(s.observed_deaths, 0u);
}

TEST(Lifetimes, ByteWeightingUsesBytesWritten) {
  TraceBuilder b;
  b.WholeWrite(10, 11, 1, 50, 10000);  // 10 KB dies at t=20 (life 10)
  b.Unlink(20, 50);
  b.WholeWrite(30, 31, 2, 51, 1000);   // 1 KB dies at t=130 (life 100)
  b.Unlink(130, 51);
  const LifetimeStats s = Analyze(b.Build());
  EXPECT_DOUBLE_EQ(s.by_files.FractionAtOrBelow(10.0), 0.5);
  EXPECT_NEAR(s.by_bytes.FractionAtOrBelow(10.0), 10.0 / 11.0, 1e-9);
}

TEST(Lifetimes, AppendsToNewFileCountTowardItsBytes) {
  TraceBuilder b;
  b.WholeWrite(10, 11, 1, 50, 1000);
  // A later append to the same (still new) file adds 500 bytes.
  b.Open(12, 2, 50, 1000, AccessMode::kWriteOnly, 1, 1000);
  b.Close(13, 2, 50, 1500, 1500);
  b.Unlink(20, 50);
  const LifetimeStats s = Analyze(b.Build());
  EXPECT_DOUBLE_EQ(s.by_bytes.total_weight(), 1500.0);
}

TEST(Lifetimes, ReadsDoNotCountAsBytesWritten) {
  TraceBuilder b;
  b.WholeWrite(10, 11, 1, 50, 1000);
  b.WholeRead(12, 13, 2, 50, 1000);
  b.Unlink(20, 50);
  const LifetimeStats s = Analyze(b.Build());
  EXPECT_DOUBLE_EQ(s.by_bytes.total_weight(), 1000.0);
}

TEST(Lifetimes, FileFractionInWindow) {
  TraceBuilder b;
  b.WholeWrite(0, 1, 1, 50, 100);
  b.Unlink(180, 50);  // lifetime exactly 180
  b.WholeWrite(0, 1, 2, 51, 100);
  b.Unlink(10, 51);   // lifetime 10
  const LifetimeStats s = Analyze(b.Build());
  EXPECT_DOUBLE_EQ(s.FileFractionIn(179, 181), 0.5);
  EXPECT_DOUBLE_EQ(s.FileFractionIn(0, 50), 0.5);
}

}  // namespace
}  // namespace bsdtrace
