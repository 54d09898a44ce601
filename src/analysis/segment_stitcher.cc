#include "src/analysis/segment_stitcher.h"

#include <utility>

#include "src/analysis/analyzer.h"

namespace bsdtrace {

SegmentCollector::SegmentCollector() : reconstructor_(this) {}

void SegmentCollector::OnTransfer(const Transfer& t) {
  overall_.OnTransfer(t);
  activity_.OnTransfer(t);
  per_user_.OnTransfer(t);
  patterns_.OnTransfer(t);
  lifetimes_.OnTransfer(t);
}

void SegmentCollector::OnAccess(const AccessSummary& a) {
  sequentiality_.OnAccess(a);
  patterns_.OnAccess(a);
}

void SegmentCollector::OnRecord(const TraceRecord& r) {
  overall_.OnRecord(r);
  activity_.OnRecord(r);
  per_user_.OnRecord(r);
  lifetimes_.OnRecord(r);
}

void SegmentCollector::Process(const TraceRecord& record) {
  reconstructor_.Process(record);
  if (reconstructor_.orphan_events() != orphans_seen_) {
    orphans_seen_ = reconstructor_.orphan_events();
    seg_.orphans.push_back(OrphanRecord{record, lifetimes_.TagOrphanTransfer(record.file_id)});
  }
}

SegmentResult SegmentCollector::Take() {
  seg_.open_states = reconstructor_.TakeOpenStates();
  seg_.overall = overall_.Take();
  seg_.pending_last_events = overall_.TakePendingLastEvents();
  seg_.activity = activity_.TakeSegment();
  seg_.per_user = per_user_.TakeSegment();
  seg_.sequentiality = sequentiality_.Take();
  seg_.runs = patterns_.TakeRuns();
  seg_.file_sizes = patterns_.TakeFileSizes();
  seg_.open_times = patterns_.TakeOpenTimes();
  seg_.lifetimes = lifetimes_.TakeSegment();
  return std::move(seg_);
}

SegmentResult RunSegment(TraceSource& cursor) {
  SegmentCollector collector;
  TraceRecord r;
  while (cursor.Next(&r)) {
    collector.Process(r);
  }
  if (!cursor.status().ok()) {
    SegmentResult seg;
    seg.status = cursor.status();
    return seg;
  }
  return collector.Take();
}

namespace {

// An incarnation alive across a segment boundary.
struct CarriedIncarnation {
  SimTime birth;
  uint64_t bytes = 0;
};

// Receives the carried reconstructor's output while the stitcher replays
// orphan records.  Transfers and completed accesses are final items, so they
// go straight into the published analysis.  Record-level bookkeeping (event
// counts, activity touches, inter-event samples) is handled by the stitch
// loop itself — the segments already counted the records — so OnRecord is
// deliberately a no-op.
class StitchSink : public ReconstructionSink {
 public:
  StitchSink(TraceAnalysis* published,
             std::unordered_map<FileId, CarriedIncarnation>* carried_live)
      : published_(published), carried_live_(carried_live) {}

  // The segment being absorbed, and the collectors that count its orphans'
  // activity.
  void set_segment(LifetimeSegment* lifetimes, ActivityCollector* activity,
                   PerUserActivityCollector* per_user) {
    lifetimes_ = lifetimes;
    activity_ = activity;
    per_user_ = per_user;
  }
  void set_tag(LifetimeOrphanTag tag) { tag_ = tag; }

  void OnTransfer(const Transfer& t) override {
    published_->overall.AddTransfer(t);
    published_->runs.Add(t);
    activity_->OnTransfer(t);
    per_user_->OnTransfer(t);
    if (t.direction == TransferDirection::kWrite) {
      switch (tag_.zone) {
        case LifetimeOrphanTag::Zone::kPre: {
          auto it = carried_live_->find(t.file_id);
          if (it != carried_live_->end()) {
            it->second.bytes += t.length;
          }
          break;
        }
        case LifetimeOrphanTag::Zone::kSlot:
          lifetimes_->slots[tag_.slot].bytes += t.length;
          break;
        case LifetimeOrphanTag::Zone::kDead:
          break;  // a kill preceded the transfer; the bytes are dropped
      }
    }
  }

  void OnAccess(const AccessSummary& a) override {
    published_->sequentiality.Add(a);
    published_->file_sizes.Add(a);
    published_->open_times.Add(a);
  }

 private:
  TraceAnalysis* published_;
  std::unordered_map<FileId, CarriedIncarnation>* carried_live_;
  LifetimeSegment* lifetimes_ = nullptr;
  ActivityCollector* activity_ = nullptr;
  PerUserActivityCollector* per_user_ = nullptr;
  LifetimeOrphanTag tag_;
};

void EmitLifetimeSample(LifetimeStats* stats, SimTime birth, SimTime death,
                        uint64_t bytes) {
  const double lifetime = (death - birth).seconds();
  stats->by_files.Add(lifetime);
  if (bytes > 0) {
    stats->by_bytes.Add(lifetime, static_cast<double>(bytes));
  }
  stats->observed_deaths += 1;
}

}  // namespace

struct SegmentStitcher::Impl {
  Impl() : sink(&published, &carried_live), reconstructor(&sink) {}

  // The prefix analysis: the merged order-free partials of the segments
  // absorbed so far, the orphan replays' output and the lifetime samples
  // completed at boundaries.  Finalize refreshes its Table IV and Table I
  // parts from the two running states below.
  TraceAnalysis published;
  ActivitySegment activity;
  PerUserSegment per_user;
  std::unordered_map<FileId, CarriedIncarnation> carried_live;
  std::unordered_map<OpenId, SimTime> carried_last_event;
  StitchSink sink;
  AccessReconstructor reconstructor;
  size_t segments = 0;

  void Add(SegmentResult&& seg);
  void Finalize();
};

void SegmentStitcher::Impl::Add(SegmentResult&& seg) {
  ActivityCollector orphan_activity;
  PerUserActivityCollector orphan_per_user;
  sink.set_segment(&seg.lifetimes, &orphan_activity, &orphan_per_user);
  // 1. Replay the records whose open lies in an earlier segment.  The
  // carried reconstructor emits their transfers and access summaries; the
  // loop itself restores the record-level effects the segment had to skip:
  // the inter-event interval sample and the activity touch (both need the
  // opening user / previous event time, known only here).
  for (const OrphanRecord& orphan : seg.orphans) {
    const TraceRecord& r = orphan.record;
    const AccessReconstructor::OpenState* open = reconstructor.FindOpen(r.open_id);
    const UserId user = open != nullptr ? open->summary.user_id : r.user_id;
    auto last = carried_last_event.find(r.open_id);
    if (last != carried_last_event.end()) {
      published.overall.inter_event_interval_seconds.Add((r.time - last->second).seconds());
      if (r.type == EventType::kSeek) {
        last->second = r.time;
      } else {
        carried_last_event.erase(last);
      }
    }
    sink.set_tag(orphan.tag);
    reconstructor.Process(r);
    orphan_activity.Touch(r.time, user, 0);
    orphan_per_user.Touch(r.time, user, /*records=*/1, /*bytes=*/0);
  }
  activity.Merge(orphan_activity.TakeSegment());
  per_user.Merge(orphan_per_user.TakeSegment());

  // 2. Adopt this segment's boundary state: its pending opens become the
  // carried opens for later segments.
  reconstructor.AdoptOpenStates(std::move(seg.open_states));
  for (const auto& [open_id, time] : seg.pending_last_events) {
    carried_last_event.insert_or_assign(open_id, time);
  }

  // 3. Lifetime boundary processing (orphan bytes are already routed).
  // Pre-event bytes feed the carried incarnation; the segment's first
  // birth-or-death event kills it; completed slots emit now that their byte
  // counts are final; exit-live slots become carried.
  for (const LifetimeSegment::FileBoundary& fb : seg.lifetimes.files) {
    auto it = carried_live.find(fb.file);
    if (it != carried_live.end()) {
      it->second.bytes += fb.pre_bytes;
      if (fb.has_event) {
        EmitLifetimeSample(&published.lifetimes, it->second.birth, fb.first_event_time,
                           it->second.bytes);
        carried_live.erase(it);
      }
    }
    if (fb.exit_slot >= 0) {
      const LifetimeSegment::Slot& slot =
          seg.lifetimes.slots[static_cast<size_t>(fb.exit_slot)];
      carried_live[fb.file] = CarriedIncarnation{slot.birth, slot.bytes};
    }
  }
  for (const LifetimeSegment::Slot& slot : seg.lifetimes.slots) {
    if (slot.dead) {
      EmitLifetimeSample(&published.lifetimes, slot.birth, slot.death, slot.bytes);
    }
  }

  // 4. Merge the order-free partials.
  // The CDFs move: an empty published analysis (a serial run's only
  // segment) adopts the samples instead of holding them twice.
  published.overall.Merge(std::move(seg.overall));
  activity.Merge(std::move(seg.activity));
  per_user.Merge(std::move(seg.per_user));
  published.sequentiality.Merge(seg.sequentiality);
  published.runs.Merge(std::move(seg.runs));
  published.file_sizes.Merge(std::move(seg.file_sizes));
  published.open_times.Merge(std::move(seg.open_times));
  published.lifetimes.Merge(std::move(seg.lifetimes.local));
  ++segments;

  // 5. In a time-ordered stream every later record, and every orphan a
  // later segment replays, lies at or after the last record so far: the
  // activity intervals and days before the one holding it are final.
  activity.FoldBefore(activity.last_time);
  per_user.FoldBefore(activity.last_time);
}

// The one finalization behind Snapshot and Finish.  Incarnations still live,
// opens still pending, and inter-event samples still straddling are
// right-censored and dropped, as at the end of a trace — which is what makes a boundary snapshot bit-identical to a
// batch analysis of the prefix.  Costs the open intervals and the user
// count, not the prefix.
void SegmentStitcher::Impl::Finalize() {
  published.activity = activity.Finalize();
  published.per_user = per_user.Finalize();
  published.segments_used = segments;
}

SegmentStitcher::SegmentStitcher() : impl_(new Impl()) {}
SegmentStitcher::~SegmentStitcher() = default;

void SegmentStitcher::Add(SegmentResult segment) { impl_->Add(std::move(segment)); }

const TraceAnalysis& SegmentStitcher::Snapshot() {
  impl_->Finalize();
  impl_->published.mode = AnalyzeMode::kLive;
  return impl_->published;
}

TraceAnalysis SegmentStitcher::Finish() {
  impl_->Finalize();
  return std::move(impl_->published);
}

size_t SegmentStitcher::segments() const { return impl_->segments; }

}  // namespace bsdtrace
