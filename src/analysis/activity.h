// System-activity measurements (paper Table IV).
//
// A user is "active" in an interval if any trace event for that user falls
// in the interval.  Throughput per active user is the user's reconstructed
// bytes in the interval divided by the interval length, averaged across all
// (interval, active user) pairs — exactly the paper's definition, including
// the property that 10-second intervals show fewer, burstier users than
// 10-minute intervals.
//
// Each event marks its user's dense slot (UserWindow, user_slots.h) active
// in the current 10-minute and 10-second interval.  When an interval closes,
// its users are sorted by id and the summary is appended to an ascending
// list.  The collector runs over one segment of the trace (a serial analysis
// is a single segment); ActivitySegment::Merge unites the lists across
// segments, and Finalize folds them into Welford accumulators in one fixed
// order, so every way of cutting the trace agrees bit for bit:
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
  void Merge(ActivityWindowSegment&& other);
  // Folds and frees the intervals with index < `index`.
  void FoldBefore(int64_t index);
  // `folded`, then the remaining intervals in ascending index order, the
  // gaps counted as intervals with zero active users.
  IntervalActivity Finalize() const;
};

// Everything one segment contributes to Table IV, mergeable across segments.
struct ActivitySegment {
  ActivityWindowSegment ten_minute{Duration::Minutes(10)};
  ActivityWindowSegment ten_second{Duration::Seconds(10)};
  std::vector<UserId> users_seen;  // ascending
  uint64_t total_bytes = 0;
  SimTime last_time;

  void Merge(ActivitySegment&& other);
  // Folds the intervals before the one holding `frontier`: the caller
  // promises every later touch is at or after it.
  void FoldBefore(SimTime frontier);
  ActivityStats Finalize() const;
};

// Collects one segment's ActivitySegment.  A close or seek whose open lies
// outside the segment is skipped: its user is unknown here, and the
// stitcher replays it with the carried open's user.
class ActivityCollector : public ReconstructionSink {
 public:
  void OnRecord(const TraceRecord& record) override;
  void OnTransfer(const Transfer& transfer) override;
  // Marks `user` active at `t`, moving `bytes`: the stitcher's replay of a
  // record whose user only the carried open knows.
  void Touch(SimTime t, UserId user, uint64_t bytes);

  // The segment's result (collector may not be reused).
  ActivitySegment TakeSegment();

 private:
  struct Window {
    explicit Window(Duration length) : slots(length), segment(length) {}
    UserWindow slots;
    ActivityWindowSegment segment;
  };

  void Touch(Window& w, SimTime t, uint32_t slot, uint64_t bytes);
  void CloseInterval(Window& w);

  UserSlots users_;
  OpenUsers open_users_;
  Window ten_minute_{Duration::Minutes(10)};
  Window ten_second_{Duration::Seconds(10)};
  uint64_t total_bytes_ = 0;
  SimTime last_time_;
};

}  // namespace bsdtrace

#endif  // BSDTRACE_SRC_ANALYSIS_ACTIVITY_H_
