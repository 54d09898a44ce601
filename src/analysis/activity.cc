#include "src/analysis/activity.h"

#include <algorithm>
#include <cassert>
#include <iterator>
#include <utility>

namespace bsdtrace {

namespace {

// Folds `interval` after the one at *prev into the accumulators.  Each
// interval between them saw no event and counts as zero active users.  Then
// come the users that moved bytes, in ascending id order, and a zero for
// each that moved none (e.g. only an unlink).
void FoldAfter(const UserInterval& interval, Duration length, int64_t* prev,
               IntervalActivity* out) {
  const int64_t gap = interval.index - (*prev + 1);
  if (gap > 0) {
    out->active_users.AddZeros(gap);
    out->intervals += static_cast<uint64_t>(gap);
  }
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
  *prev = interval.index;
}

}  // namespace

// -- ActivityWindowSegment ----------------------------------------------------

void ActivityWindowSegment::Merge(ActivityWindowSegment&& other) {
  assert(other.folded.intervals == 0);
  MergeIntervals(&intervals, std::move(other.intervals));
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

void ActivitySegment::Merge(ActivitySegment&& other) {
  ten_minute.Merge(std::move(other.ten_minute));
  ten_second.Merge(std::move(other.ten_second));
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

void ActivityCollector::CloseInterval(Window& w) {
  UserInterval closed = w.slots.Close(users_.ids());
  if (!closed.active.empty()) {
    AppendInterval(&w.segment.intervals, std::move(closed));
  }
}

void ActivityCollector::Touch(Window& w, SimTime t, uint32_t slot, uint64_t bytes) {
  const int64_t index = w.slots.IndexOf(t);
  if (index != w.slots.current()) {
    CloseInterval(w);
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
  UserId user;
  if (open_users_.UserOf(r, &user)) {
    Touch(r.time, user, 0);
  }
}

void ActivityCollector::OnTransfer(const Transfer& t) {
  total_bytes_ += t.length;
  Touch(t.time, t.user_id, t.length);
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
