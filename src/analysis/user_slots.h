// Dense per-user state for the Table IV and Table I collectors.
//
// Both collectors attribute every record and transfer to a user, and both
// need, per fixed-length interval (10 s, 10 min, one day), the users active
// in it and the bytes each moved.  Instead of inserting into ordered sets
// on every event, a collector interns each UserId once into a dense slot
// (UserSlots).  A UserWindow then keeps a touched flag and a byte counter
// per slot for the interval being filled, plus the list of slots touched in
// it.  Only when an interval closes are its users sorted by id, into a
// UserInterval.  Id order is the order the Welford accumulators must see
// (activity.h), and it makes intervals from different trace segments merge
// as a sorted-vector union.

#ifndef BSDTRACE_SRC_ANALYSIS_USER_SLOTS_H_
#define BSDTRACE_SRC_ANALYSIS_USER_SLOTS_H_

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "src/trace/record.h"
#include "src/util/flat_map.h"
#include "src/util/sim_time.h"

namespace bsdtrace {

// One closed interval: its users, ascending by id, and the bytes of those
// that moved any.
struct UserInterval {
  int64_t index = 0;
  std::vector<UserId> active;
  std::vector<std::pair<UserId, uint64_t>> bytes;  // only users with bytes > 0

  bool operator==(const UserInterval&) const = default;
};

// Merges two id-ascending (id, value) lists into one; a value present in
// both becomes combine(ours, theirs).
template <typename Value, typename Combine>
std::vector<std::pair<UserId, Value>> MergeById(const std::vector<std::pair<UserId, Value>>& ours,
                                                const std::vector<std::pair<UserId, Value>>& theirs,
                                                Combine combine) {
  std::vector<std::pair<UserId, Value>> merged;
  merged.reserve(ours.size() + theirs.size());
  auto a = ours.begin();
  auto b = theirs.begin();
  while (a != ours.end() || b != theirs.end()) {
    if (b == theirs.end() || (a != ours.end() && a->first < b->first)) {
      merged.push_back(*a++);
    } else if (a == ours.end() || b->first < a->first) {
      merged.push_back(*b++);
    } else {
      merged.emplace_back(a->first, combine(a->second, b->second));
      ++a;
      ++b;
    }
  }
  return merged;
}

// Unions `theirs` into `ours`; both ascend by index.  Intervals with the same
// index merge: active users are united and bytes summed per user.
void MergeIntervals(std::vector<UserInterval>* ours, std::vector<UserInterval> theirs);

// Adds one interval to an ascending list: appended when it lies past the
// end (always, for time-ordered input), merged in place otherwise.
void AppendInterval(std::vector<UserInterval>* list, UserInterval interval);

// UserId -> dense slot index, assigned in first-touch order.
class UserSlots {
 public:
  uint32_t Intern(UserId user) {
    const auto next = static_cast<uint32_t>(ids_.size());
    const uint32_t slot = index_.FindOrInsert(user, next);
    if (slot == next) {
      ids_.push_back(user);
    }
    return slot;
  }

  size_t size() const { return ids_.size(); }
  // Slot -> user id.
  const std::vector<UserId>& ids() const { return ids_; }
  // Every interned user, ascending.
  std::vector<UserId> SortedIds() const;

 private:
  // Keyed on 64 bits so that the empty key lies above every UserId.
  FlatMap<uint64_t, uint32_t, IdHash> index_{~uint64_t{0}};
  std::vector<UserId> ids_;
};

// One window of fixed-length intervals over a collector's user slots.  The
// caller closes the current interval before opening the next.  Time-ordered
// input (the TraceSource contract) opens each interval once; should a touch
// go back in time, the earlier interval opens again and AppendInterval
// merges the two summaries.
class UserWindow {
 public:
  explicit UserWindow(Duration length) : length_(length) {}

  Duration length() const { return length_; }
  int64_t IndexOf(SimTime t) const { return t.micros() / length_.micros(); }
  // The interval being filled; -1 before the first touch.
  int64_t current() const { return current_; }

  void Open(int64_t index) { current_ = index; }

  // Marks `slot` active in the current interval, adding `bytes`.
  void Add(uint32_t slot, uint64_t bytes) {
    if (slot >= cells_.size()) {
      cells_.resize(slot + 1);
    }
    Cell& cell = cells_[slot];
    if (!cell.touched) {
      cell.touched = true;
      touched_.push_back(slot);
    }
    cell.bytes += bytes;
  }

  // Summarizes the slots touched since Open, both lists ascending by id
  // (`ids` maps slot -> user), and clears them.  `active` is empty when no
  // slot was touched.
  UserInterval Close(const std::vector<UserId>& ids);

 private:
  struct Cell {
    uint64_t bytes = 0;
    bool touched = false;
  };

  Duration length_;
  int64_t current_ = -1;
  std::vector<Cell> cells_;        // by slot
  std::vector<uint32_t> touched_;  // slots touched in the current interval
};

// The opening user of every open still pending: close and seek records carry
// no user id of their own.
class OpenUsers {
 public:
  // Sets *user to the user on whose behalf `r` was logged.  An open or
  // create is remembered until its close.  Returns false for a close or seek
  // whose open was never seen; *user is then the record's own user id.
  bool UserOf(const TraceRecord& r, UserId* user);

 private:
  FlatMap<OpenId, UserId, IdHash> users_{kInvalidOpenId};
  // kInvalidOpenId is the map's empty key, yet a malformed trace may still
  // open with it; that one open is kept here.
  std::optional<UserId> invalid_id_user_;
};

}  // namespace bsdtrace

#endif  // BSDTRACE_SRC_ANALYSIS_USER_SLOTS_H_
