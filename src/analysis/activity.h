// System-activity measurements (paper Table IV).
//
// A user is "active" in an interval if any trace event for that user falls
// in the interval.  Throughput per active user is the user's reconstructed
// bytes in the interval divided by the interval length, averaged across all
// (interval, active user) pairs — exactly the paper's definition, including
// the property that 10-second intervals show fewer, burstier users than
// 10-minute intervals.
//
// Two operating modes share one window type (UserWindow, user_slots.h): each
// event marks its user's dense slot active in the current 10-minute and
// 10-second interval.  When an interval closes, its users are sorted by id.
// The streaming mode then folds the interval into Welford accumulators at
// once; the segment mode (parallel and live analysis) appends the same
// summary to an ascending list, which ActivitySegment::Merge unites across
// segments and Finalize folds in interval order.  Both modes feed the
// accumulators in one order, so they agree bit for bit:
//   * per interval, the users with bytes > 0 in ascending id order, then one
//     zero for each active user that moved no bytes;
//   * every interval from 0 up to the last touched one is counted, those
//     without an event as zero active users.

#ifndef BSDTRACE_SRC_ANALYSIS_ACTIVITY_H_
#define BSDTRACE_SRC_ANALYSIS_ACTIVITY_H_

#include <vector>

#include "src/analysis/user_slots.h"
#include "src/trace/reconstruct.h"
#include "src/util/stats.h"

namespace bsdtrace {

struct IntervalActivity {
  Duration interval_length;
  // Distribution of the number of active users per interval.
  RunningStats active_users;
  // Distribution of per-active-user throughput (bytes/second).
  RunningStats throughput_per_user;
  int64_t max_active_users = 0;
  uint64_t intervals = 0;
};

struct ActivityStats {
  Duration duration;
  uint64_t total_bytes = 0;
  // Bytes/second over the life of the trace.
  double average_throughput = 0.0;
  uint64_t distinct_users = 0;
  IntervalActivity ten_minute;
  IntervalActivity ten_second;
};

// The closed intervals of one window length.  `intervals` ascend by index;
// Merge is an exact sorted-vector union, so segments combine in any
// grouping.  A long-lived reduction (the segment stitcher) folds the
// intervals no later record can reach into `folded` once and frees them, so
// finalizing its prefix costs only the intervals still open.
struct ActivityWindowSegment {
  explicit ActivityWindowSegment(Duration length) : length(length) {
    folded.interval_length = length;
  }

  Duration length;
  std::vector<UserInterval> intervals;  // not yet folded
  IntervalActivity folded;              // every interval before `intervals`
  int64_t last_folded = -1;             // index of the last folded interval

  // Unites other's intervals into ours; other must have folded none.
  void Merge(const ActivityWindowSegment& other);
  // Folds and frees the intervals with index < `index`.
  void FoldBefore(int64_t index);
  // `folded`, then the remaining intervals in ascending index order, the
  // gaps counted as intervals with zero active users, exactly as the
  // streaming window does.
  IntervalActivity Finalize() const;
};

// Everything one segment contributes to Table IV, mergeable across segments.
struct ActivitySegment {
  ActivityWindowSegment ten_minute{Duration::Minutes(10)};
  ActivityWindowSegment ten_second{Duration::Seconds(10)};
  std::vector<UserId> users_seen;  // ascending
  uint64_t total_bytes = 0;
  SimTime last_time;

  void Merge(const ActivitySegment& other);
  // Folds the intervals before the one holding `frontier`: the caller
  // promises every later touch is at or after it.
  void FoldBefore(SimTime frontier);
  ActivityStats Finalize() const;
};

class ActivityCollector : public ReconstructionSink {
 public:
  // segment_mode: collect an ActivitySegment instead of streaming windows,
  // and skip close/seek records whose open lies outside this segment (their
  // user is unknown here; the stitcher replays them with the carried user).
  explicit ActivityCollector(bool segment_mode = false);

  void OnRecord(const TraceRecord& record) override;
  void OnTransfer(const Transfer& transfer) override;
  // Marks `user` active at `t`, moving `bytes`: the stitcher's replay of a
  // record whose user only the carried open knows.
  void Touch(SimTime t, UserId user, uint64_t bytes);

  ActivityStats Take();
  // Segment-mode result (collector may not be reused).
  ActivitySegment TakeSegment();

 private:
  struct Window {
    explicit Window(Duration length) : slots(length), segment(length) {}
    UserWindow slots;
    IntervalActivity result;        // streaming mode
    ActivityWindowSegment segment;  // segment mode
  };

  void Touch(Window& w, SimTime t, uint32_t slot, uint64_t bytes);
  void CloseInterval(Window& w);

  bool segment_mode_;
  UserSlots users_;
  OpenUsers open_users_;
  Window ten_minute_;
  Window ten_second_;
  uint64_t total_bytes_ = 0;
  SimTime last_time_;
};

}  // namespace bsdtrace

#endif  // BSDTRACE_SRC_ANALYSIS_ACTIVITY_H_
