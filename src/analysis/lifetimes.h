// File lifetime measurement (paper Fig. 4 and §5.3).
//
// A "new file" is one created during the trace or truncated to zero length —
// the paper's definition of newly-written information.  The lifetime of that
// information runs from creation until the file is deleted (unlink), emptied
// (truncate to 0), or completely overwritten (re-created).  Only deaths
// observed within the trace are counted; data still live at the end of the
// trace is right-censored and excluded, as in the paper.
//
// Two weightings are reported: by number of files (Fig. 4a) and by bytes
// written to the new file during its life (Fig. 4b).
//
// The collector runs over one segment of the trace (a serial analysis is a
// single segment) and handles incarnations that straddle segment
// boundaries.  Per file it tracks three zones: bytes written before its
// first birth-or-death event (they belong to an incarnation born in an
// earlier segment), the locally born incarnation, and the dead zone after a
// kill with nothing live.  An incarnation whose lifetime completes locally
// emits its sample at once, unless an orphan record (a close or seek whose
// open straddles the boundary) was tagged against it: then it becomes a
// "slot", and its sample waits until the stitcher has replayed the orphan
// and knows the final byte count.  An incarnation still live at the
// segment's end becomes a slot too, for the stitcher to carry.

#ifndef BSDTRACE_SRC_ANALYSIS_LIFETIMES_H_
#define BSDTRACE_SRC_ANALYSIS_LIFETIMES_H_

#include <optional>
#include <utility>
#include <vector>

#include "src/trace/reconstruct.h"
#include "src/util/flat_map.h"
#include "src/util/stats.h"

namespace bsdtrace {

struct LifetimeStats {
  // Lifetimes in seconds, weighted by file count (Fig. 4a).
  WeightedCdf by_files;
  // Lifetimes in seconds, weighted by bytes written (Fig. 4b).
  WeightedCdf by_bytes;
  uint64_t new_files = 0;       // incarnations born during the trace
  uint64_t observed_deaths = 0; // deaths observed before the trace ended

  // Fraction of new files whose lifetime falls in [lo, hi) seconds — used to
  // spot the 180-second daemon spike.
  double FileFractionIn(double lo_seconds, double hi_seconds) const;

  // Absorbs another segment's samples and counters (parallel reduction).
  void Merge(LifetimeStats&& other) {
    by_files.Merge(std::move(other.by_files));
    by_bytes.Merge(std::move(other.by_bytes));
    new_files += other.new_files;
    observed_deaths += other.observed_deaths;
  }
};

// Which incarnation an orphan record's eventual write transfer belongs to,
// decided at the worker's scan position when the orphan is buffered.
struct LifetimeOrphanTag {
  enum class Zone : uint8_t {
    kPre,   // before the file's first local event: the carried incarnation
    kSlot,  // a locally born incarnation (slot index below)
    kDead,  // after a kill with nothing live: the bytes are dropped
  };
  Zone zone = Zone::kDead;
  uint32_t slot = 0;  // valid when zone == kSlot
};

// One segment's lifetime hand-off to the stitcher.
struct LifetimeSegment {
  // A locally born incarnation that an orphan tag marked or that is still
  // live at segment end.  A `dead` slot completed locally with its sample
  // deferred (stitch bytes pending); a live one is reachable via
  // FileBoundary::exit_slot.
  struct Slot {
    SimTime birth;
    SimTime death;
    uint64_t bytes = 0;
    bool dead = false;
  };

  // Per-file boundary summary, in no particular order.
  struct FileBoundary {
    FileId file = kInvalidFileId;
    // Bytes written before the first local event (carried incarnation).
    uint64_t pre_bytes = 0;
    // First local create/unlink/truncate-to-zero, which kills the carried
    // incarnation if one is live.
    bool has_event = false;
    SimTime first_event_time;
    // Slot still live at segment end, or -1.
    int32_t exit_slot = -1;
  };

  std::vector<Slot> slots;
  std::vector<FileBoundary> files;
  // Samples and counters already final within the segment.
  LifetimeStats local;
};

class LifetimeCollector : public ReconstructionSink {
 public:
  void OnRecord(const TraceRecord& record) override;
  void OnTransfer(const Transfer& transfer) override;

  // The zone a (future) write transfer to `file` lands in at the current
  // scan position.  When it returns kSlot, the live incarnation becomes a
  // slot and its sample is deferred to the stitcher.
  LifetimeOrphanTag TagOrphanTransfer(FileId file);
  // The segment's result (collector may not be reused).
  LifetimeSegment TakeSegment();

 private:
  // Per-file state (see file comment).
  struct FileState {
    uint64_t pre_bytes = 0;
    SimTime first_event_time;
    SimTime birth;       // of the live incarnation
    uint64_t bytes = 0;  // written to the live incarnation
    int32_t slot = -1;   // the live incarnation's slot, once it has one
    bool has_event = false;
    bool live = false;
  };

  // The state of `file`, empty when first seen.
  FileState& State(FileId file);
  // The live incarnation's slot, made on first use.
  uint32_t SlotOf(FileState& st);
  // A birth-or-death event for `file`: completes the live incarnation (or
  // records the boundary kill) and begins a new one when `creates`.
  void Event(FileId file, SimTime when, bool creates);

  FlatMap<FileId, FileState, IdHash> files_{kInvalidFileId};
  // kInvalidFileId is the map's empty key, yet a malformed trace may still
  // carry it; that file's state is kept here.
  std::optional<FileState> invalid_file_;
  std::vector<LifetimeSegment::Slot> slots_;
  LifetimeStats stats_;
};

}  // namespace bsdtrace

#endif  // BSDTRACE_SRC_ANALYSIS_LIFETIMES_H_
