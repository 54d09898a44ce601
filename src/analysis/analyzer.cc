#include "src/analysis/analyzer.h"

#include <utility>

#include "src/analysis/segment_stitcher.h"

namespace bsdtrace {

const char* AnalyzeModeName(AnalyzeMode mode) {
  switch (mode) {
    case AnalyzeMode::kSerial:
      return "serial";
    case AnalyzeMode::kParallel:
      return "parallel";
    case AnalyzeMode::kLive:
      return "live";
  }
  return "?";
}

namespace internal {

StatusOr<TraceAnalysis> SerialAnalyze(TraceSource& source) {
  SegmentResult segment = RunSegment(source);
  if (!segment.status.ok()) {
    return segment.status;
  }
  SegmentStitcher stitcher;
  stitcher.Add(std::move(segment));
  return stitcher.Finish();
}

}  // namespace internal

}  // namespace bsdtrace
