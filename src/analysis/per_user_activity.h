// Per-user activity accounting and the Table I activity-band validator.
//
// The paper's Table I characterizes each traced machine by its user
// population and the trace activity that population produced; dividing the
// two gives a per-user records/day rate that is a property of the *workload
// mix*, not of the machine size.  This collector attributes every trace
// record and reconstructed byte to the user on whose behalf it was logged,
// reports per-user totals plus the distributions Table I implies (records
// per user-day, active users per day), and checks the per-user rate of each
// machine in a fleet trace against the profile's calibrated band — which is
// how population scaling (workload/profile.h) and fleet generation
// (workload/fleet.h) are validated: a 1000-user A5 must keep the same
// per-user activity as the paper's 90-user A5.
//
// Like the Table IV collector (activity.h) this collects one segment of the
// trace into an order-free integer summary (PerUserSegment).  Users are
// interned into dense slots (user_slots.h) that hold their totals; a one-day
// UserWindow records which users were active on each day.  The summary lists
// users and each day's active users in ascending id order, so segments merge
// by a sorted-vector sum/union and every way of cutting the trace gives the
// same results bit for bit.

#ifndef BSDTRACE_SRC_ANALYSIS_PER_USER_ACTIVITY_H_
#define BSDTRACE_SRC_ANALYSIS_PER_USER_ACTIVITY_H_

#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/analysis/user_slots.h"
#include "src/trace/fleet_tag.h"
#include "src/trace/reconstruct.h"
#include "src/util/stats.h"

namespace bsdtrace {

// Everything attributed to one user over the whole trace.
struct PerUserTotals {
  uint64_t records = 0;  // trace records logged on the user's behalf
  uint64_t bytes = 0;    // reconstructed bytes transferred

  bool operator==(const PerUserTotals&) const = default;
};

struct PerUserActivityStats {
  Duration duration;
  // Fractional simulated days (duration / 24 h); the records/day
  // normalizer.  0 for an empty trace.
  double days = 0.0;
  uint64_t total_records = 0;
  uint64_t total_bytes = 0;
  // Per-user totals, ascending user id.  Daemon pseudo-users (the network
  // daemon and printer) appear here like everyone else; the band checker
  // selects the human range via the fleet tag.
  std::map<UserId, PerUserTotals> users;
  // Distribution across users of per-user records/day.
  RunningStats records_per_user_day;
  // Distribution across simulated days of the daily active-user count
  // (a user is active on a day if any of their records falls in it).
  RunningStats active_users_per_day;
};

// Order-free per-segment summary: pure integer counts and id lists, so Merge
// is exact and Finalize is a deterministic function of the merged content.
// As with ActivityWindowSegment, a long-lived reduction folds the days no
// later record can reach once and frees them.
struct PerUserSegment {
  std::vector<std::pair<UserId, PerUserTotals>> users;  // ascending id
  // Ascending day index; each day's `active` users (no bytes).  Not yet
  // folded.
  std::vector<UserInterval> daily_active;
  // The daily active-user counts of every day before `daily_active`.
  RunningStats folded_days;
  std::optional<int64_t> last_folded_day;
  SimTime last_time;

  // Other must have folded no day.
  void Merge(PerUserSegment&& other);
  // Folds and frees the days before the one holding `frontier`: the caller
  // promises every later touch is at or after it.
  void FoldBefore(SimTime frontier);
  PerUserActivityStats Finalize() const;
};

// Collects one segment's PerUserSegment.  A close or seek whose open lies
// outside the segment is skipped (the stitcher replays it with the carried
// open's user), the same contract as ActivityCollector.
class PerUserActivityCollector : public ReconstructionSink {
 public:
  void OnRecord(const TraceRecord& record) override;
  void OnTransfer(const Transfer& transfer) override;
  // Attributes `records` and `bytes` to `user` at `t`: the stitcher's replay
  // of a record whose user only the carried open knows.
  void Touch(SimTime t, UserId user, uint64_t records, uint64_t bytes);

  // The segment's result (collector may not be reused).
  PerUserSegment TakeSegment();

 private:
  void CloseDay();

  UserSlots users_;
  std::vector<PerUserTotals> totals_;  // by slot
  OpenUsers open_users_;
  UserWindow days_{Duration::Hours(24)};
  std::vector<UserInterval> daily_active_;
  SimTime last_time_;
};

// -- Table I band validation --------------------------------------------------

// The accepted per-user records/day range for one machine profile,
// calibrated on the simulator at the paper's populations and pinned by the
// PerUserActivity property tests at 90 and 1000+ users.
struct TableIBand {
  std::string trace_name;  // "A5" / "E3" / "C4"
  double min_records_per_user_day = 0.0;
  double max_records_per_user_day = 0.0;
};

// The calibrated bands for the three paper profiles.
const std::vector<TableIBand>& TableIBands();

// One fleet instance's verdict.
struct ActivityBandCheck {
  size_t instance = 0;          // index within the fleet tag
  std::string trace_name;
  int user_population = 0;
  double records_per_user_day = 0.0;  // human users only, averaged
  TableIBand band;
  bool ok = false;
};

// Checks each machine instance of a fleet-tagged trace against its profile's
// band: (sum of the instance's human users' records) / population / days.
// Returns one entry per instance, empty when the header carries no fleet tag
// (legacy traces — nothing to validate against) or the trace is shorter than
// 10 simulated minutes (too little signal for a rate).
std::vector<ActivityBandCheck> CheckActivityBands(const TraceHeader& header,
                                                  const PerUserActivityStats& stats);

}  // namespace bsdtrace

#endif  // BSDTRACE_SRC_ANALYSIS_PER_USER_ACTIVITY_H_
