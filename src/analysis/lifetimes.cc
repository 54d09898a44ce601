#include "src/analysis/lifetimes.h"

#include <utility>

namespace bsdtrace {

double LifetimeStats::FileFractionIn(double lo_seconds, double hi_seconds) const {
  if (by_files.total_weight() <= 0) {
    return 0.0;
  }
  return by_files.FractionAtOrBelow(hi_seconds) - by_files.FractionAtOrBelow(lo_seconds);
}

LifetimeCollector::FileState& LifetimeCollector::State(FileId file) {
  if (file == kInvalidFileId) {
    if (!invalid_file_.has_value()) {
      invalid_file_.emplace();
    }
    return *invalid_file_;
  }
  return files_[file];
}

uint32_t LifetimeCollector::SlotOf(FileState& st) {
  if (st.slot < 0) {
    st.slot = static_cast<int32_t>(slots_.size());
    slots_.push_back(LifetimeSegment::Slot{.birth = st.birth, .death = SimTime()});
  }
  return static_cast<uint32_t>(st.slot);
}

void LifetimeCollector::Event(FileId file, SimTime when, bool creates) {
  FileState& st = State(file);
  if (!st.has_event) {
    // First local event: kills the carried incarnation, if the stitcher
    // finds one live at this boundary.
    st.has_event = true;
    st.first_event_time = when;
  } else if (st.live && st.slot >= 0) {
    // An orphan may still add bytes: the stitcher emits the sample.
    LifetimeSegment::Slot& slot = slots_[static_cast<size_t>(st.slot)];
    slot.death = when;
    slot.bytes = st.bytes;
    slot.dead = true;
  } else if (st.live) {
    const double lifetime = (when - st.birth).seconds();
    stats_.by_files.Add(lifetime);
    if (st.bytes > 0) {
      stats_.by_bytes.Add(lifetime, static_cast<double>(st.bytes));
    }
    stats_.observed_deaths += 1;
  }
  st.live = creates;
  st.slot = -1;
  if (creates) {
    st.birth = when;
    st.bytes = 0;
    stats_.new_files += 1;
  }
}

void LifetimeCollector::OnRecord(const TraceRecord& r) {
  switch (r.type) {
    case EventType::kCreate:
      // Re-creation completely overwrites the previous incarnation.
      Event(r.file_id, r.time, /*creates=*/true);
      break;
    case EventType::kUnlink:
      Event(r.file_id, r.time, /*creates=*/false);
      break;
    case EventType::kTruncate:
      if (r.size == 0) {
        Event(r.file_id, r.time, /*creates=*/false);
      }
      break;
    default:
      break;
  }
}

void LifetimeCollector::OnTransfer(const Transfer& t) {
  if (t.direction != TransferDirection::kWrite) {
    return;
  }
  FileState& st = State(t.file_id);
  if (st.live) {
    st.bytes += t.length;
  } else if (!st.has_event) {
    // Nothing local yet: the bytes belong to a possible carried incarnation.
    st.pre_bytes += t.length;
  }
  // else: dead zone — a kill already happened and nothing is live, so the
  // bytes belong to no incarnation and are dropped.
}

LifetimeOrphanTag LifetimeCollector::TagOrphanTransfer(FileId file) {
  LifetimeOrphanTag tag;
  FileState& st = State(file);
  if (!st.has_event) {
    tag.zone = LifetimeOrphanTag::Zone::kPre;
  } else if (st.live) {
    tag.zone = LifetimeOrphanTag::Zone::kSlot;
    tag.slot = SlotOf(st);
  } else {
    tag.zone = LifetimeOrphanTag::Zone::kDead;
  }
  return tag;
}

LifetimeSegment LifetimeCollector::TakeSegment() {
  LifetimeSegment segment;
  auto hand_off = [&](FileId file, FileState& st) {
    // Files with no boundary-relevant state need no hand-off; a live
    // incarnation always follows an event.
    if (st.pre_bytes == 0 && !st.has_event) {
      return;
    }
    int32_t exit_slot = -1;
    if (st.live) {
      exit_slot = static_cast<int32_t>(SlotOf(st));
      slots_[static_cast<size_t>(exit_slot)].bytes = st.bytes;
    }
    segment.files.push_back(LifetimeSegment::FileBoundary{
        .file = file,
        .pre_bytes = st.pre_bytes,
        .has_event = st.has_event,
        .first_event_time = st.first_event_time,
        .exit_slot = exit_slot,
    });
  };
  files_.ForEach(hand_off);
  if (invalid_file_.has_value()) {
    hand_off(kInvalidFileId, *invalid_file_);
  }
  segment.slots = std::move(slots_);
  segment.local = std::move(stats_);
  return segment;
}

}  // namespace bsdtrace
