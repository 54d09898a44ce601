#include "src/analysis/activity.h"

#include <algorithm>
#include <cassert>
#include <iterator>

namespace bsdtrace {

namespace {

// Intervals [from, to) saw no event: zero active users each.
void AddEmptyIntervals(int64_t from, int64_t to, IntervalActivity* out) {
  if (to > from) {
    out->active_users.AddZeros(to - from);
    out->intervals += static_cast<uint64_t>(to - from);
  }
}

// Folds one closed interval into the accumulators: the users that moved
// bytes in ascending id order, then a zero for each that moved none (e.g.
// only an unlink) — the order both modes share.
void FoldInterval(const UserInterval& interval, Duration length, IntervalActivity* out) {
  const auto active = static_cast<int64_t>(interval.active.size());
  out->active_users.Add(static_cast<double>(active));
  out->max_active_users = std::max(out->max_active_users, active);
  for (const auto& [user, bytes] : interval.bytes) {
    out->throughput_per_user.Add(static_cast<double>(bytes) / length.seconds());
  }
  for (size_t i = interval.bytes.size(); i < interval.active.size(); ++i) {
    out->throughput_per_user.Add(0.0);
  }
  out->intervals += 1;
}

// Folds `interval` after the one at *prev, counting the gap between them.
void FoldAfter(const UserInterval& interval, Duration length, int64_t* prev,
               IntervalActivity* out) {
  AddEmptyIntervals(*prev + 1, interval.index, out);
  FoldInterval(interval, length, out);
  *prev = interval.index;
}

}  // namespace

// -- ActivityWindowSegment ----------------------------------------------------

void ActivityWindowSegment::Merge(const ActivityWindowSegment& other) {
  assert(other.folded.intervals == 0);
  MergeIntervals(&intervals, other.intervals);
}

void ActivityWindowSegment::FoldBefore(int64_t index) {
  auto end = intervals.begin();
  while (end != intervals.end() && end->index < index) {
    FoldAfter(*end, length, &last_folded, &folded);
    ++end;
  }
  intervals.erase(intervals.begin(), end);
}

IntervalActivity ActivityWindowSegment::Finalize() const {
  IntervalActivity out = folded;
  int64_t prev = last_folded;
  for (const UserInterval& interval : intervals) {
    FoldAfter(interval, length, &prev, &out);
  }
  return out;
}

// -- ActivitySegment ----------------------------------------------------------

void ActivitySegment::Merge(const ActivitySegment& other) {
  ten_minute.Merge(other.ten_minute);
  ten_second.Merge(other.ten_second);
  std::vector<UserId> users;
  users.reserve(users_seen.size() + other.users_seen.size());
  std::set_union(users_seen.begin(), users_seen.end(), other.users_seen.begin(),
                 other.users_seen.end(), std::back_inserter(users));
  users_seen = std::move(users);
  total_bytes += other.total_bytes;
  last_time = std::max(last_time, other.last_time);
}

void ActivitySegment::FoldBefore(SimTime frontier) {
  ten_minute.FoldBefore(frontier.micros() / ten_minute.length.micros());
  ten_second.FoldBefore(frontier.micros() / ten_second.length.micros());
}

ActivityStats ActivitySegment::Finalize() const {
  ActivityStats stats;
  stats.duration = last_time - SimTime::Origin();
  stats.total_bytes = total_bytes;
  stats.average_throughput =
      stats.duration > Duration::Zero()
          ? static_cast<double>(total_bytes) / stats.duration.seconds()
          : 0.0;
  stats.distinct_users = users_seen.size();
  stats.ten_minute = ten_minute.Finalize();
  stats.ten_second = ten_second.Finalize();
  return stats;
}

// -- ActivityCollector --------------------------------------------------------

ActivityCollector::ActivityCollector(bool segment_mode)
    : segment_mode_(segment_mode),
      ten_minute_(Duration::Minutes(10)),
      ten_second_(Duration::Seconds(10)) {}

void ActivityCollector::CloseInterval(Window& w) {
  UserInterval closed = w.slots.Close(users_.ids());
  if (closed.active.empty()) {
    return;
  }
  if (segment_mode_) {
    AppendInterval(&w.segment.intervals, std::move(closed));
  } else {
    FoldInterval(closed, w.slots.length(), &w.result);
  }
}

void ActivityCollector::Touch(Window& w, SimTime t, uint32_t slot, uint64_t bytes) {
  const int64_t index = w.slots.IndexOf(t);
  if (index != w.slots.current()) {
    CloseInterval(w);
    if (!segment_mode_) {
      AddEmptyIntervals(w.slots.current() + 1, index, &w.result);
    }
    w.slots.Open(index);
  }
  w.slots.Add(slot, bytes);
}

void ActivityCollector::Touch(SimTime t, UserId user, uint64_t bytes) {
  const uint32_t slot = users_.Intern(user);
  Touch(ten_minute_, t, slot, bytes);
  Touch(ten_second_, t, slot, bytes);
}

void ActivityCollector::OnRecord(const TraceRecord& r) {
  if (r.time > last_time_) {
    last_time_ = r.time;
  }
  // In segment mode a close/seek whose open lies before this segment has no
  // user here; the stitcher replays the record with the carried open's user.
  UserId user;
  if (!open_users_.UserOf(r, &user) && segment_mode_) {
    return;
  }
  Touch(r.time, user, 0);
}

void ActivityCollector::OnTransfer(const Transfer& t) {
  total_bytes_ += t.length;
  Touch(t.time, t.user_id, t.length);
}

ActivityStats ActivityCollector::Take() {
  CloseInterval(ten_minute_);
  CloseInterval(ten_second_);
  ActivityStats stats;
  stats.duration = last_time_ - SimTime::Origin();
  stats.total_bytes = total_bytes_;
  stats.average_throughput =
      stats.duration > Duration::Zero()
          ? static_cast<double>(total_bytes_) / stats.duration.seconds()
          : 0.0;
  stats.distinct_users = users_.size();
  ten_minute_.result.interval_length = ten_minute_.slots.length();
  ten_second_.result.interval_length = ten_second_.slots.length();
  stats.ten_minute = ten_minute_.result;
  stats.ten_second = ten_second_.result;
  return stats;
}

ActivitySegment ActivityCollector::TakeSegment() {
  CloseInterval(ten_minute_);
  CloseInterval(ten_second_);
  ActivitySegment segment;
  segment.ten_minute = std::move(ten_minute_.segment);
  segment.ten_second = std::move(ten_second_.segment);
  segment.users_seen = users_.SortedIds();
  segment.total_bytes = total_bytes_;
  segment.last_time = last_time_;
  return segment;
}

}  // namespace bsdtrace
