// The live pipeline's correctness gate: every snapshot a RollingAnalyzer
// publishes must be bit-identical to a batch Analyze() of exactly the
// records before that boundary, and the final result bit-identical to the
// batch analysis of the whole stream — for hand-built boundary hazards and
// for the three standard generated workloads, fed directly and through a
// TraceRing.

#include "src/analysis/rolling_analyzer.h"

#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/analysis/parallel_analyzer.h"
#include "src/trace/trace_ring.h"
#include "src/workload/generator.h"
#include "tests/testing/analyze_helpers.h"
#include "tests/testing/trace_builder.h"

namespace bsdtrace {
namespace {

// Records strictly before `boundary`, batch-analyzed.
TraceAnalysis BatchPrefix(const Trace& trace, SimTime boundary) {
  Trace prefix(trace.header());
  for (const TraceRecord& r : trace.records()) {
    if (r.time < boundary) {
      prefix.Append(r);
    }
  }
  return AnalyzeForTest(prefix);
}

struct PublishedSnapshot {
  TraceAnalysis analysis;
  SimTime boundary;
};

// Queries every CDF of an analysis, which sorts its samples in place.
void QueryEveryCdf(const TraceAnalysis& a) {
  for (const WeightedCdf* cdf :
       {&a.overall.inter_event_interval_seconds, &a.runs.by_runs, &a.runs.by_bytes,
        &a.file_sizes.by_accesses, &a.file_sizes.by_bytes, &a.open_times.seconds,
        &a.lifetimes.by_files, &a.lifetimes.by_bytes}) {
    if (!cdf->empty()) {
      EXPECT_GE(cdf->Quantile(0.5), cdf->MinValue());
      EXPECT_GT(cdf->total_weight(), 0.0);
    }
  }
}

// Feeds the trace through a RollingAnalyzer and checks the gate at every
// published boundary plus the final result.  With query_cdfs the callback
// first queries the shared snapshot's CDFs, as a dashboard would.  Returns
// the snapshot count.
uint64_t ExpectRollingMatchesBatch(const Trace& trace, Duration interval,
                                   bool query_cdfs = false) {
  std::vector<PublishedSnapshot> published;
  RollingAnalyzer rolling(interval, [&](const TraceAnalysis& snapshot, SimTime boundary) {
    if (query_cdfs) {
      QueryEveryCdf(snapshot);
    }
    published.push_back({snapshot, boundary});
  });
  for (const TraceRecord& r : trace.records()) {
    rolling.Process(r);
  }
  const TraceAnalysis final_analysis = rolling.Finish();

  EXPECT_EQ(rolling.records_processed(), trace.size());
  EXPECT_EQ(rolling.snapshots_published(), published.size());
  for (const PublishedSnapshot& s : published) {
    EXPECT_EQ(s.analysis.mode, AnalyzeMode::kLive);
    EXPECT_TRUE(AnalysisBitIdentical(s.analysis, BatchPrefix(trace, s.boundary)))
        << "snapshot at +" << (s.boundary - SimTime::Origin()).hours()
        << "h diverges from the batch analysis of its prefix";
  }
  EXPECT_EQ(final_analysis.mode, AnalyzeMode::kLive);
  EXPECT_TRUE(AnalysisBitIdentical(final_analysis, AnalyzeForTest(trace)))
      << "final rolling analysis diverges from batch";
  return published.size();
}

// Every cross-boundary hazard: opens outliving several intervals, lifetime
// zones straddling boundaries, orphan closes, dangling opens, and an idle
// stretch long enough to publish the same prefix repeatedly.
TEST(RollingAnalyzer, BoundaryHazardsMatchBatchAtEverySnapshot) {
  TraceBuilder b;
  b.Create(10.0, 1, 500, AccessMode::kWriteOnly, 3);
  b.Open(20.0, 2, 500, 0, AccessMode::kWriteOnly, 3);
  // The open lives across the 1-minute boundaries at 60/120/180 s.
  b.Seek(70.0, 2, 500, 8192, 0);
  b.Seek(130.0, 2, 500, 4096, 4096);
  b.Close(190.0, 2, 500, 12288, 12288);
  b.Unlink(200.0, 500, 3);
  b.Close(205.0, 9, 777, 512, 512);  // orphan: 777 was never opened
  b.WholeRead(210.0, 215.0, 3, 501, 65536, 4);
  // Idle from 215 s to 560 s: boundaries at 240..540 s republish the prefix.
  b.Open(560.0, 4, 502, 1024, AccessMode::kReadOnly, 5);  // dangling open
  b.Execve(570.0, 503, 4096, 5);
  const Trace trace = b.Build();

  const uint64_t snapshots = ExpectRollingMatchesBatch(trace, Duration::Minutes(1));
  // 570 s of records over 60 s intervals: boundaries at 60..540 s inclusive.
  EXPECT_EQ(snapshots, 9u);
}

TEST(RollingAnalyzer, EmptyStreamFinishesClean) {
  RollingAnalyzer rolling(Duration::Hours(1));
  const TraceAnalysis a = rolling.Finish();
  EXPECT_EQ(a.overall.total_records, 0u);
  EXPECT_EQ(rolling.snapshots_published(), 0u);
  EXPECT_EQ(a.mode, AnalyzeMode::kLive);
}

class RollingWorkloadParity : public ::testing::TestWithParam<const char*> {};

TEST_P(RollingWorkloadParity, HourlySnapshotsBitIdenticalToBatchPrefix) {
  const MachineProfile profile = std::string(GetParam()) == "A5"   ? ProfileA5()
                                 : std::string(GetParam()) == "E3" ? ProfileE3()
                                                                   : ProfileC4();
  GeneratorOptions options;
  options.duration = Duration::Hours(3);
  options.seed = 1985;
  const Trace trace = GenerateTraceOnly(profile, options);

  const uint64_t snapshots = ExpectRollingMatchesBatch(trace, Duration::Hours(1));
  EXPECT_GE(snapshots, 2u) << "trace too short to cross two hourly boundaries";
}

INSTANTIATE_TEST_SUITE_P(Traces, RollingWorkloadParity,
                         ::testing::Values("A5", "E3", "C4"));

// A 2-hour A5 trace with every record time multiplied by `stretch`.
Trace StretchedTrace(int64_t stretch) {
  GeneratorOptions options;
  options.duration = Duration::Hours(2);
  options.seed = 31;
  const Trace trace = GenerateTraceOnly(ProfileA5(), options);
  Trace stretched(trace.header());
  for (TraceRecord r : trace.records()) {
    r.time = SimTime::FromMicros(r.time.micros() * stretch);
    stretched.Append(r);
  }
  return stretched;
}

// Snapshot intervals of 1, 7 and 90 minutes divide neither the 10-minute
// activity window nor the day, so every snapshot folds a partly filled
// 10-second, 10-minute and daily interval into a copy of the stitcher's
// running state.  The trace is stretched so that each run publishes a few
// dozen to a hundred snapshots; the 90-minute run spans 2.5 days and so
// folds whole days too.  The callback gets the stitcher's own analysis, not
// a copy, and queries its CDFs first, which sorts their samples in place:
// the snapshots after it and the final result must not notice.
class RollingIntervalParity : public ::testing::TestWithParam<std::pair<int, int64_t>> {};

TEST_P(RollingIntervalParity, EverySnapshotBitIdenticalToBatchPrefix) {
  const auto [minutes, stretch] = GetParam();
  const Trace trace = StretchedTrace(stretch);
  const uint64_t snapshots =
      ExpectRollingMatchesBatch(trace, Duration::Minutes(minutes), /*query_cdfs=*/true);
  EXPECT_GE(snapshots, static_cast<uint64_t>(100 * stretch / minutes));
}

INSTANTIATE_TEST_SUITE_P(Minutes, RollingIntervalParity,
                         ::testing::Values(std::pair<int, int64_t>{1, 1},
                                           std::pair<int, int64_t>{7, 4},
                                           std::pair<int, int64_t>{90, 30}),
                         [](const ::testing::TestParamInfo<std::pair<int, int64_t>>& info) {
                           return "every" + std::to_string(info.param.first) + "min";
                         });

// The full live wiring: a producer thread pushes the trace into a TraceRing
// and RollingAnalyze drains the ring's source face.  Same result as batch,
// nothing dropped.
TEST(RollingAnalyzer, RingFedStreamMatchesBatch) {
  GeneratorOptions options;
  options.duration = Duration::Hours(2);
  options.seed = 424242;
  const Trace trace = GenerateTraceOnly(ProfileA5(), options);

  TraceRingOptions ring_options;
  ring_options.capacity = 64;  // small: force producer/consumer interleaving
  TraceRing ring(trace.header(), ring_options);

  std::thread producer([&]() {
    RingTraceSink sink(&ring);
    for (const TraceRecord& r : trace.records()) {
      sink.Append(r);
    }
    ring.Close();
  });

  RingTraceSource source(&ring);
  uint64_t snapshots = 0;
  auto result = RollingAnalyze(source, Duration::Minutes(30),
                               [&](const TraceAnalysis&, SimTime) { ++snapshots; });
  producer.join();

  ASSERT_TRUE(result.ok()) << result.status().message();
  EXPECT_TRUE(AnalysisBitIdentical(result.value(), AnalyzeForTest(trace)));
  EXPECT_EQ(snapshots, 3u);  // boundaries at 0:30, 1:00, 1:30
  EXPECT_EQ(ring.stats().dropped(), 0u);
  EXPECT_EQ(ring.stats().produced, trace.size());
}

// Analyze() exposes the same pipeline behind snapshot_interval/on_snapshot.
TEST(RollingAnalyzer, AnalyzeFrontDoorPublishesSnapshots) {
  GeneratorOptions options;
  options.duration = Duration::Hours(2);
  options.seed = 7;
  const Trace trace = GenerateTraceOnly(ProfileE3(), options);

  std::vector<PublishedSnapshot> published;
  AnalyzeOptions analyze_options;
  analyze_options.trace = &trace;
  analyze_options.snapshot_interval = Duration::Hours(1);
  analyze_options.on_snapshot = [&](const TraceAnalysis& snapshot, SimTime boundary) {
    published.push_back({snapshot, boundary});
  };
  auto result = Analyze(analyze_options);
  ASSERT_TRUE(result.ok()) << result.status().message();

  EXPECT_EQ(result.value().mode, AnalyzeMode::kLive);
  ASSERT_EQ(published.size(), 1u);  // one interior boundary at 1:00
  EXPECT_TRUE(AnalysisBitIdentical(published[0].analysis,
                                   BatchPrefix(trace, published[0].boundary)));
  EXPECT_TRUE(AnalysisBitIdentical(result.value(), AnalyzeForTest(trace)));
}

}  // namespace
}  // namespace bsdtrace
