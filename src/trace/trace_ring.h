// Bounded in-memory ring buffer connecting a live trace producer to a
// consumer with no file in between — the transport behind `trace_stream
// serve` and the live mode of Analyze().
//
// The queue follows the Plan9 devtrace fifo idiom: a power-of-two slot
// array indexed by MONOTONICALLY increasing produce/consume counters that
// are masked (never wrapped) to get a slot, which makes empty
// (produce == consume), full (produce - consume == capacity), and occupancy
// (produce - consume) trivial and overflow-proof.  Unlike the kernel's
// lock-free log, producers and the consumer here synchronize with a mutex +
// condition variables so the structure stays obviously correct under TSan
// with any number of producers (MPSC); the counters keep the devtrace
// accounting.
//
// Backpressure is a policy choice made at construction:
//   * kBlock (default): Push waits for space.  With push_timeout == 0 it
//     waits indefinitely — no record is ever lost, the producer simply runs
//     at the consumer's pace.  With a positive timeout, a push that cannot
//     find space in time gives up and the record is counted in
//     stats().dropped_timeout.
//   * kDropOldest: Push never waits; when full it overwrites the oldest
//     unconsumed record and counts it in stats().dropped_oldest.  The
//     consumer sees a gapped but still time-ordered stream.
// Either way every loss is visible in TraceRingStats — a live analyzer can
// report exactly how much of the stream it missed.
//
// Wake protocol.  Like the devtrace reader, which sleeps only on
// `lognonempty`, neither side pays a rendezvous per record.  A side that is
// about to wait records that under the mutex (consumer_waiting_,
// producers_waiting_), and the other side notifies only when someone is
// actually waiting:
//   * a push notifies the consumer only if it is blocked on an empty ring;
//   * a pop notifies blocked producers only once the ring has drained to
//     half its capacity, so a producer stalled on a full ring wakes to half a
//     ring of space instead of to one slot per pop.  A producer with a push
//     timeout re-checks for space when the timeout expires, so it is refused
//     only if the ring is still full then.
// The consumer takes records in batches (PopBatch; RingTraceSource holds up
// to kSourceBatch of them), one lock per batch rather than per record.
// Records in the consumer's batch are consumed: they left the ring, so under
// kDropOldest they can no longer be overwritten.

#ifndef BSDTRACE_SRC_TRACE_TRACE_RING_H_
#define BSDTRACE_SRC_TRACE_TRACE_RING_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <vector>

#include "src/trace/trace.h"
#include "src/trace/trace_source.h"

namespace bsdtrace {

enum class RingOverflowPolicy : uint8_t {
  kBlock,      // producer waits for space (optionally bounded by a timeout)
  kDropOldest, // producer overwrites the oldest unconsumed record
};

struct TraceRingOptions {
  // Slot count; rounded UP to the next power of two, minimum 2.
  size_t capacity = 1 << 14;
  RingOverflowPolicy policy = RingOverflowPolicy::kBlock;
  // kBlock only: how long a producer waits for space before dropping the
  // record.  Zero means wait forever (lossless).
  std::chrono::milliseconds push_timeout{0};
};

// Counter snapshot; taken atomically under the ring lock.
struct TraceRingStats {
  size_t capacity = 0;
  uint64_t produced = 0;         // records accepted into the ring
  uint64_t consumed = 0;         // records handed to the consumer
  uint64_t dropped_oldest = 0;   // overwritten before consumption (kDropOldest)
  uint64_t dropped_timeout = 0;  // rejected pushes (kBlock with timeout)
  uint64_t max_occupancy = 0;    // high-water mark of produce - consume

  uint64_t dropped() const { return dropped_oldest + dropped_timeout; }
};

class TraceRing {
 public:
  explicit TraceRing(TraceHeader header, TraceRingOptions options = TraceRingOptions());

  const TraceHeader& header() const { return header_; }
  size_t capacity() const { return slots_.size(); }

  // Appends one record per the overflow policy.  Returns false iff the
  // record was dropped (kBlock with an expired timeout, or a push after
  // Close()).  Safe from any number of producer threads.
  bool Push(const TraceRecord& record);

  // Declares end of stream: blocked producers and the consumer wake, pushes
  // after close are refused, and Pop drains what remains then returns false.
  // Idempotent.
  void Close();
  bool closed() const;

  // Removes up to `max` (> 0) of the oldest records into out[0..n) under one
  // lock and returns n.  Blocks until a record is available; returns 0 once
  // the ring is closed and drained.  Single consumer.
  size_t PopBatch(TraceRecord* out, size_t max);
  // Removes the oldest record: PopBatch(record, 1).
  bool Pop(TraceRecord* record) { return PopBatch(record, 1) == 1; }

  TraceRingStats stats() const;

 private:
  TraceHeader header_;
  RingOverflowPolicy policy_;
  std::chrono::milliseconds push_timeout_;

  mutable std::mutex mu_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::vector<TraceRecord> slots_;  // power-of-two length
  uint64_t mask_ = 0;
  // Monotonic counters (never masked in place); slot = counter & mask_.
  uint64_t produce_ = 0;
  uint64_t consume_ = 0;
  uint64_t dropped_oldest_ = 0;
  uint64_t dropped_timeout_ = 0;
  uint64_t max_occupancy_ = 0;
  bool closed_ = false;
  // Who is blocked right now (see the wake protocol above).
  bool consumer_waiting_ = false;
  size_t producers_waiting_ = 0;
};

// Producer face: lets anything that writes to a TraceSink — the traced
// kernel, the sharded generator's merge, a format converter — stream into a
// ring instead of a file.
class RingTraceSink : public TraceSink {
 public:
  explicit RingTraceSink(TraceRing* ring) : ring_(ring) {}
  void Append(const TraceRecord& record) override { ring_->Push(record); }

 private:
  TraceRing* ring_;
};

// Consumer face: a TraceSource whose Next() blocks on the live ring, so the
// analyzers consume a running generator exactly as they consume a file.
// Next() serves a local batch that PopBatch refills, so the ring's lock is
// taken once per batch.  Never fails: losses are a policy outcome, visible in
// ring->stats(), not an error.
class RingTraceSource : public TraceSource {
 public:
  static constexpr size_t kSourceBatch = 256;

  explicit RingTraceSource(TraceRing* ring) : ring_(ring), batch_(kSourceBatch) {}

  const TraceHeader& header() const override { return ring_->header(); }
  bool Next(TraceRecord* record) override {
    if (next_ == size_) {
      size_ = ring_->PopBatch(batch_.data(), batch_.size());
      next_ = 0;
      if (size_ == 0) {
        return false;
      }
    }
    *record = batch_[next_++];
    return true;
  }
  Status status() const override { return Status::Ok(); }

 private:
  TraceRing* ring_;
  std::vector<TraceRecord> batch_;
  size_t next_ = 0;  // next record of batch_ to serve
  size_t size_ = 0;  // records in batch_
};

}  // namespace bsdtrace

#endif  // BSDTRACE_SRC_TRACE_TRACE_RING_H_
