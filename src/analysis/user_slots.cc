#include "src/analysis/user_slots.h"

#include <algorithm>
#include <functional>
#include <iterator>
#include <utility>

namespace bsdtrace {

namespace {

// Folds `from` into `into` (same index): sorted-vector union of the active
// users, per-user sum of the bytes.
void UniteInterval(UserInterval* into, const UserInterval& from) {
  std::vector<UserId> active;
  active.reserve(into->active.size() + from.active.size());
  std::set_union(into->active.begin(), into->active.end(), from.active.begin(),
                 from.active.end(), std::back_inserter(active));
  into->active = std::move(active);
  into->bytes = MergeById(into->bytes, from.bytes, std::plus<uint64_t>());
}

}  // namespace

void MergeIntervals(std::vector<UserInterval>* ours, std::vector<UserInterval> theirs) {
  if (ours->empty()) {
    *ours = std::move(theirs);
    return;
  }
  if (theirs.empty()) {
    return;
  }
  // Only our intervals at or past their first index can meet theirs; the
  // prefix before it stays where it is.
  auto from = std::lower_bound(
      ours->begin(), ours->end(), theirs.front().index,
      [](const UserInterval& interval, int64_t index) { return interval.index < index; });
  std::vector<UserInterval> tail(std::make_move_iterator(from),
                                 std::make_move_iterator(ours->end()));
  ours->erase(from, ours->end());
  auto a = tail.begin();
  auto b = theirs.begin();
  while (a != tail.end() || b != theirs.end()) {
    if (b == theirs.end() || (a != tail.end() && a->index < b->index)) {
      ours->push_back(std::move(*a++));
    } else if (a == tail.end() || b->index < a->index) {
      ours->push_back(std::move(*b++));
    } else {
      UniteInterval(&*a, *b++);
      ours->push_back(std::move(*a++));
    }
  }
}

void AppendInterval(std::vector<UserInterval>* list, UserInterval interval) {
  if (list->empty() || list->back().index < interval.index) {
    list->push_back(std::move(interval));
    return;
  }
  std::vector<UserInterval> one;
  one.push_back(std::move(interval));
  MergeIntervals(list, std::move(one));
}

std::vector<UserId> UserSlots::SortedIds() const {
  std::vector<UserId> sorted = ids_;
  std::sort(sorted.begin(), sorted.end());
  return sorted;
}

UserInterval UserWindow::Close(const std::vector<UserId>& ids) {
  UserInterval out;
  out.index = current_;
  for (const uint32_t slot : touched_) {
    Cell& cell = cells_[slot];
    out.active.push_back(ids[slot]);
    if (cell.bytes > 0) {
      out.bytes.emplace_back(ids[slot], cell.bytes);
    }
    cell = Cell{};
  }
  touched_.clear();
  // Ids are unique within an interval, so the pairs sort by id alone.
  std::sort(out.active.begin(), out.active.end());
  std::sort(out.bytes.begin(), out.bytes.end());
  return out;
}

bool OpenUsers::UserOf(const TraceRecord& r, UserId* user) {
  *user = r.user_id;
  switch (r.type) {
    case EventType::kOpen:
    case EventType::kCreate:
      if (r.open_id == kInvalidOpenId) {
        invalid_id_user_ = r.user_id;
      } else {
        users_[r.open_id] = r.user_id;
      }
      return true;
    case EventType::kSeek:
    case EventType::kClose: {
      const UserId* known = r.open_id != kInvalidOpenId ? users_.Find(r.open_id)
                            : invalid_id_user_        ? &*invalid_id_user_
                                                      : nullptr;
      if (known == nullptr) {
        return false;
      }
      *user = *known;
      if (r.type == EventType::kClose) {
        if (r.open_id == kInvalidOpenId) {
          invalid_id_user_.reset();
        } else {
          users_.Erase(r.open_id);
        }
      }
      return true;
    }
    default:
      return true;
  }
}

}  // namespace bsdtrace
