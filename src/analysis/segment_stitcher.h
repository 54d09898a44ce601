// The segment/stitch machinery behind every Section-5 analysis.
//
// A trace can be split at ANY record boundary into contiguous, time-ordered
// segments; the split is an execution detail, never a semantic one.  Each
// segment runs the full collector set in isolation (SegmentCollector),
// exporting order-free partial statistics plus boundary state — opens still
// pending at its end, and the records it could not interpret because their
// open lies in an earlier segment ("orphans").  SegmentStitcher then absorbs
// the segments in time order, replaying each segment's orphans against the
// open state carried from earlier segments and merging the partials.
//
// Three consumers drive it, differing only in where the segments are cut:
//   * Serial analysis runs the whole stream as one segment and stitches it
//     alone (analyzer.cc).
//   * Analyze's parallel engine carves an on-disk trace into per-worker segments
//     and stitches them after the workers join (parallel_analyzer.cc).
//   * RollingAnalyzer closes one segment per simulated hour of a LIVE stream
//     and stitches incrementally; Snapshot() publishes the prefix analysis
//     at each boundary without disturbing the stitch (rolling_analyzer.h).
//     A snapshot costs the segment just added plus the open intervals, not
//     the prefix: the stitcher keeps the finalized prefix state itself.
//
// Invariant, guarded by the parity and golden tests: after stitching
// segments 1..k the finalized result is bit-identical to a one-segment
// analysis of exactly those segments' records, however they were cut.

#ifndef BSDTRACE_SRC_ANALYSIS_SEGMENT_STITCHER_H_
#define BSDTRACE_SRC_ANALYSIS_SEGMENT_STITCHER_H_

#include <memory>
#include <unordered_map>
#include <vector>

#include "src/analysis/activity.h"
#include "src/analysis/lifetimes.h"
#include "src/analysis/overall.h"
#include "src/analysis/patterns.h"
#include "src/analysis/per_user_activity.h"
#include "src/analysis/sequentiality.h"
#include "src/trace/reconstruct.h"
#include "src/trace/trace_source.h"
#include "src/util/status.h"

namespace bsdtrace {

struct TraceAnalysis;  // analyzer.h

// A record a segment could not interpret (its open lies in an earlier
// segment), plus the lifetime zone its eventual write transfer lands in.
struct OrphanRecord {
  TraceRecord record;
  LifetimeOrphanTag tag;
};

// Everything one segment hands to the stitcher.
struct SegmentResult {
  Status status = Status::Ok();
  std::vector<OrphanRecord> orphans;
  std::unordered_map<OpenId, AccessReconstructor::OpenState> open_states;
  OverallStats overall;
  std::unordered_map<OpenId, SimTime> pending_last_events;
  ActivitySegment activity;
  PerUserSegment per_user;
  SequentialityStats sequentiality;
  RunLengthStats runs;
  FileSizeStats file_sizes;
  OpenTimeStats open_times;
  LifetimeSegment lifetimes;
};

// Push-side collector for one segment: the collector set and the orphan
// detector, fed one record at a time.  Serial analysis and the parallel
// workers drain a source through it; the rolling analyzer pushes live
// records into it.  It is itself the reconstructor's sink and fans each
// callback out to the collectors with direct, not virtual, calls.
class SegmentCollector : private ReconstructionSink {
 public:
  SegmentCollector();

  // Records must arrive in non-decreasing time order.
  void Process(const TraceRecord& record);

  // Finalizes the segment (the collector may not be reused).
  SegmentResult Take();

 private:
  void OnTransfer(const Transfer& t) override;
  void OnAccess(const AccessSummary& a) override;
  void OnRecord(const TraceRecord& r) override;

  OverallStatsCollector overall_;
  ActivityCollector activity_;
  PerUserActivityCollector per_user_;
  SequentialityCollector sequentiality_;
  PatternsCollector patterns_;
  LifetimeCollector lifetimes_;
  AccessReconstructor reconstructor_;
  SegmentResult seg_;
  uint64_t orphans_seen_ = 0;
};

// Runs a whole TraceSource (a serial analysis's input, or one parallel
// worker's block-range cursor) through a SegmentCollector.  Source errors
// surface in SegmentResult::status.
SegmentResult RunSegment(TraceSource& cursor);

// Order-dependent serial reduction over segments.  Add() absorbs segments in
// time order and keeps the prefix analysis itself: final items (orphan
// replays' transfers and accesses, boundary lifetime samples) merge straight
// into it, and the Table IV and Table I intervals no later record can reach
// are folded once and freed.  Snapshot() refreshes what still depends on the
// open tail (pending opens, live incarnations, and straddling inter-event
// samples are right-censored, as at the end of a trace) and returns the
// stitcher-owned analysis, in O(open intervals + users) rather than
// O(prefix); Finish() finalizes the same way and moves it out.  Not
// copyable: the stitch owns a reconstructor wired to internal sinks.
class SegmentStitcher {
 public:
  SegmentStitcher();
  ~SegmentStitcher();
  SegmentStitcher(const SegmentStitcher&) = delete;
  SegmentStitcher& operator=(const SegmentStitcher&) = delete;

  void Add(SegmentResult segment);
  // The prefix analysis (mode kLive).  The reference stays valid until the
  // next Add or Finish, which change the object behind it.
  const TraceAnalysis& Snapshot();
  TraceAnalysis Finish();

  // Segments absorbed so far.
  size_t segments() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace bsdtrace

#endif  // BSDTRACE_SRC_ANALYSIS_SEGMENT_STITCHER_H_
