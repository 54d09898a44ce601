#include "src/analysis/rolling_analyzer.h"

#include <cassert>
#include <utility>

namespace bsdtrace {

RollingAnalyzer::RollingAnalyzer(Duration interval, SnapshotCallback callback)
    : interval_(interval),
      callback_(std::move(callback)),
      next_boundary_(SimTime::Origin() + interval),
      segment_(new SegmentCollector()) {
  assert(interval.micros() > 0);
}

void RollingAnalyzer::CloseSegment() {
  stitcher_.Add(segment_->Take());
  segment_ = std::make_unique<SegmentCollector>();
}

void RollingAnalyzer::Process(const TraceRecord& record) {
  if (record.time >= next_boundary_) {
    // The records seen so far all precede the boundary; close their segment
    // once, then publish a snapshot per crossed boundary (idle intervals
    // re-publish the same prefix).  With no callback nothing is built and
    // the crossed boundaries are only counted.
    CloseSegment();
    if (callback_) {
      const TraceAnalysis& snapshot = stitcher_.Snapshot();
      while (record.time >= next_boundary_) {
        ++snapshots_;
        callback_(snapshot, next_boundary_);
        next_boundary_ += interval_;
      }
    } else {
      // Past the last representable boundary (a hostile timestamp near the
      // end of time) the next one saturates instead of overflowing.
      const int64_t step = interval_.micros();
      const int64_t crossed = (record.time - next_boundary_).micros() / step + 1;
      snapshots_ += static_cast<uint64_t>(crossed);
      next_boundary_ = crossed > (SimTime::Max() - next_boundary_).micros() / step
                           ? SimTime::Max()
                           : next_boundary_ + Duration::Micros(crossed * step);
    }
  }
  segment_->Process(record);
  ++records_;
}

TraceAnalysis RollingAnalyzer::Finish() {
  stitcher_.Add(segment_->Take());
  TraceAnalysis result = stitcher_.Finish();
  result.mode = AnalyzeMode::kLive;
  return result;
}

StatusOr<TraceAnalysis> RollingAnalyze(TraceSource& source, Duration interval,
                                       RollingAnalyzer::SnapshotCallback callback) {
  RollingAnalyzer rolling(interval, std::move(callback));
  TraceRecord record;
  while (source.Next(&record)) {
    rolling.Process(record);
  }
  if (!source.status().ok()) {
    return source.status();
  }
  return rolling.Finish();
}

}  // namespace bsdtrace
