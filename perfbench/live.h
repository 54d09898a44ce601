// The live service: records of an in-memory trace pushed by one producer
// thread into lossless (kBlock) TraceRings, one per analyzer, each drained by
// the live mode of Analyze (rolling snapshots on a fixed simulated interval).
// The service's shape is fixed: 2 rings of 16384 slots, a snapshot every 10
// simulated minutes (72 boundaries in a 12-hour trace, 144 lag samples).
//
// Open loop: with rate > 0 the producer pushes record i when it is due, at
// t0 + i / rate on the wall clock, whether or not the analyzers keep up; a
// stalled analyzer therefore shows as producer lateness and snapshot lag
// instead of as a slower schedule.  With rate <= 0 the producer pushes as
// fast as the rings accept (closed loop), which measures the service's
// capacity.
#ifndef BSDTRACE_PERFBENCH_LIVE_H_
#define BSDTRACE_PERFBENCH_LIVE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "spans.h"
#include "src/analysis/analyzer.h"
#include "src/trace/trace.h"
#include "src/util/status.h"

namespace perfbench {

struct LiveResult {
  // Open loop only: one sample per analyzer per snapshot boundary inside the
  // trace, from the due time of the first record at or past the boundary to
  // the on_snapshot call for that boundary.
  std::vector<double> lag_ms;
  double late_max_ms = 0.0;    // producer lateness, worst record
  double late_final_ms = 0.0;  // producer lateness of the last record
  double push_wait_s = 0.0;    // producer time inside TraceRing::Push
  uint64_t max_occupancy = 0;  // ring high-water mark, max over rings
  uint64_t dropped = 0;        // TraceRingStats::dropped(), summed over rings
  uint64_t produced = 0;       // records accepted, summed over rings
  double busy_share = 0.0;     // analyzer time outside the ring pop, mean share
  std::vector<bsdtrace::StatusOr<bsdtrace::TraceAnalysis>> finals;  // one per analyzer
};

// Streams the first `count` records of `trace` (all of them if it has
// fewer).  `rate` is in records per wall-clock second; <= 0 runs the closed
// loop.
LiveResult RunLive(const bsdtrace::Trace& trace, size_t count, double rate, const SpanCtx& at);

}  // namespace perfbench

#endif  // BSDTRACE_PERFBENCH_LIVE_H_
