#include "src/trace/trace_ring.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace bsdtrace {
namespace {

size_t RoundUpPowerOfTwo(size_t n) {
  size_t p = 2;
  while (p < n) {
    p <<= 1;
  }
  return p;
}

}  // namespace

TraceRing::TraceRing(TraceHeader header, TraceRingOptions options)
    : header_(std::move(header)),
      policy_(options.policy),
      push_timeout_(options.push_timeout),
      slots_(RoundUpPowerOfTwo(options.capacity)) {
  mask_ = slots_.size() - 1;
}

bool TraceRing::Push(const TraceRecord& record) {
  std::unique_lock<std::mutex> lock(mu_);
  if (closed_) {
    ++dropped_timeout_;
    return false;
  }
  if (produce_ - consume_ == slots_.size()) {
    if (policy_ == RingOverflowPolicy::kDropOldest) {
      // Overwrite the oldest unconsumed slot: advance the consumer past it.
      ++consume_;
      ++dropped_oldest_;
    } else {
      auto have_space = [this] {
        return closed_ || produce_ - consume_ < slots_.size();
      };
      bool space = true;
      ++producers_waiting_;
      if (push_timeout_.count() > 0) {
        // On expiry wait_for re-checks have_space: a push is refused only if
        // the ring is still full.
        space = not_full_.wait_for(lock, push_timeout_, have_space);
      } else {
        not_full_.wait(lock, have_space);
      }
      --producers_waiting_;
      if (!space || closed_) {
        ++dropped_timeout_;
        return false;
      }
    }
  }
  slots_[produce_ & mask_] = record;
  ++produce_;
  const uint64_t occupancy = produce_ - consume_;
  if (occupancy > max_occupancy_) {
    max_occupancy_ = occupancy;
  }
  // Wake the consumer only if it sleeps on an empty ring; clearing the flag
  // here spares the pushes that follow before it runs a notify each.
  const bool wake = consumer_waiting_;
  consumer_waiting_ = false;
  lock.unlock();
  if (wake) {
    not_empty_.notify_one();
  }
  return true;
}

void TraceRing::Close() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
  }
  not_full_.notify_all();
  not_empty_.notify_all();
}

bool TraceRing::closed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return closed_;
}

size_t TraceRing::PopBatch(TraceRecord* out, size_t max) {
  assert(max > 0);
  std::unique_lock<std::mutex> lock(mu_);
  while (!closed_ && produce_ == consume_) {
    // Set on every turn: a push clears it when it notifies.
    consumer_waiting_ = true;
    not_empty_.wait(lock);
  }
  consumer_waiting_ = false;
  const auto n = static_cast<size_t>(std::min<uint64_t>(max, produce_ - consume_));
  for (size_t i = 0; i < n; ++i) {
    out[i] = slots_[(consume_ + i) & mask_];
  }
  consume_ += n;
  // Blocked producers wake to half a ring of space, not to every pop.
  const bool wake = producers_waiting_ > 0 && produce_ - consume_ <= slots_.size() / 2;
  lock.unlock();
  if (wake) {
    not_full_.notify_all();
  }
  return n;  // 0: closed and drained
}

TraceRingStats TraceRing::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  TraceRingStats s;
  s.capacity = slots_.size();
  // consume_ advances once per record handed to the consumer AND once per
  // drop-oldest overwrite, so the consumer-visible count subtracts the drops.
  s.produced = produce_;
  s.consumed = consume_ - dropped_oldest_;
  s.dropped_oldest = dropped_oldest_;
  s.dropped_timeout = dropped_timeout_;
  s.max_occupancy = max_occupancy_;
  return s;
}

}  // namespace bsdtrace
