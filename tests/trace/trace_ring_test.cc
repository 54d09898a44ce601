// TraceRing: the devtrace-style fifo behind `trace_stream serve`.  The
// properties that matter: FIFO order through full/empty boundaries at
// wrap-around, exact drop accounting under both overflow policies, close
// semantics, per-producer order under MPSC interleavings, and the wake
// protocol: batched pops, the consumer woken only from an empty ring, and
// producers woken at half a ring (run these under TSan to check the
// locking, not just the outcomes).

#include "src/trace/trace_ring.h"

#include <atomic>
#include <chrono>
#include <thread>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "src/trace/record.h"

namespace bsdtrace {
namespace {

TraceHeader TestHeader() {
  TraceHeader header;
  header.machine = "ring-test";
  return header;
}

// A distinguishable record: sequence number in file_id, producer in user_id.
TraceRecord Rec(uint64_t seq, UserId producer = 1) {
  TraceRecord r;
  r.type = EventType::kExecve;
  r.time = SimTime::FromSeconds(static_cast<double>(seq));
  r.file_id = seq;
  r.user_id = producer;
  r.size = 4096;
  return r;
}

TEST(TraceRing, CapacityRoundsUpToPowerOfTwo) {
  for (const auto& [requested, expected] :
       std::vector<std::pair<size_t, size_t>>{{1, 2}, {2, 2}, {3, 4}, {5, 8}, {16, 16}, {100, 128}}) {
    TraceRingOptions options;
    options.capacity = requested;
    TraceRing ring(TestHeader(), options);
    EXPECT_EQ(ring.capacity(), expected) << "requested " << requested;
  }
}

TEST(TraceRing, HeaderIsVisibleToConsumers) {
  TraceRing ring(TestHeader());
  RingTraceSource source(&ring);
  EXPECT_EQ(source.header().machine, "ring-test");
  EXPECT_TRUE(source.status().ok());
}

TEST(TraceRing, FifoThroughWrapAround) {
  TraceRingOptions options;
  options.capacity = 4;
  TraceRing ring(TestHeader(), options);

  // Fill, half-drain, refill: the produce counter passes capacity several
  // times, so masked indexing must keep empty/full exact at the wrap.
  uint64_t next_push = 0;
  uint64_t next_pop = 0;
  TraceRecord out;
  for (int round = 0; round < 5; ++round) {
    while (next_push - next_pop < ring.capacity()) {
      EXPECT_TRUE(ring.Push(Rec(next_push)));
      ++next_push;
    }
    for (int i = 0; i < 2; ++i) {
      ASSERT_TRUE(ring.Pop(&out));
      EXPECT_EQ(out, Rec(next_pop));
      ++next_pop;
    }
  }
  ring.Close();
  while (ring.Pop(&out)) {
    EXPECT_EQ(out, Rec(next_pop));
    ++next_pop;
  }
  EXPECT_EQ(next_pop, next_push);

  const TraceRingStats stats = ring.stats();
  EXPECT_EQ(stats.capacity, 4u);
  EXPECT_EQ(stats.produced, next_push);
  EXPECT_EQ(stats.consumed, next_push);
  EXPECT_EQ(stats.dropped(), 0u);
  EXPECT_EQ(stats.max_occupancy, 4u);
}

TEST(TraceRing, DropOldestOverwritesAndCounts) {
  TraceRingOptions options;
  options.capacity = 4;
  options.policy = RingOverflowPolicy::kDropOldest;
  TraceRing ring(TestHeader(), options);

  for (uint64_t seq = 0; seq < 10; ++seq) {
    EXPECT_TRUE(ring.Push(Rec(seq)));  // never blocks, never refuses
  }
  ring.Close();

  // The oldest six were overwritten; the survivors are the newest four, in
  // order — a gapped but still time-ordered stream.
  TraceRecord out;
  for (uint64_t seq = 6; seq < 10; ++seq) {
    ASSERT_TRUE(ring.Pop(&out));
    EXPECT_EQ(out, Rec(seq));
  }
  EXPECT_FALSE(ring.Pop(&out));

  const TraceRingStats stats = ring.stats();
  EXPECT_EQ(stats.produced, 10u);
  EXPECT_EQ(stats.dropped_oldest, 6u);
  EXPECT_EQ(stats.dropped_timeout, 0u);
  EXPECT_EQ(stats.consumed, 4u);
}

TEST(TraceRing, BlockWithTimeoutRefusesWhenFull) {
  TraceRingOptions options;
  options.capacity = 2;
  options.policy = RingOverflowPolicy::kBlock;
  options.push_timeout = std::chrono::milliseconds(10);
  TraceRing ring(TestHeader(), options);

  EXPECT_TRUE(ring.Push(Rec(0)));
  EXPECT_TRUE(ring.Push(Rec(1)));
  EXPECT_FALSE(ring.Push(Rec(2)));  // no consumer: times out and drops

  const TraceRingStats stats = ring.stats();
  EXPECT_EQ(stats.produced, 2u);
  EXPECT_EQ(stats.dropped_timeout, 1u);

  // The queued records are intact.
  ring.Close();
  TraceRecord out;
  ASSERT_TRUE(ring.Pop(&out));
  EXPECT_EQ(out, Rec(0));
  ASSERT_TRUE(ring.Pop(&out));
  EXPECT_EQ(out, Rec(1));
  EXPECT_FALSE(ring.Pop(&out));
}

TEST(TraceRing, CloseRefusesPushesAndDrainsPops) {
  TraceRing ring(TestHeader());
  EXPECT_TRUE(ring.Push(Rec(0)));
  EXPECT_TRUE(ring.Push(Rec(1)));
  ring.Close();
  EXPECT_TRUE(ring.closed());
  EXPECT_FALSE(ring.Push(Rec(2)));
  ring.Close();  // idempotent

  TraceRecord out;
  ASSERT_TRUE(ring.Pop(&out));
  EXPECT_EQ(out, Rec(0));
  ASSERT_TRUE(ring.Pop(&out));
  EXPECT_EQ(out, Rec(1));
  EXPECT_FALSE(ring.Pop(&out));
  EXPECT_FALSE(ring.Pop(&out));  // stays drained
}

// SPSC under real concurrency: a small ring forces the producer to block on
// the consumer; every record must arrive exactly once, in order.
TEST(TraceRing, SpscBlockingDeliversEverythingInOrder) {
  constexpr uint64_t kRecords = 20000;
  TraceRingOptions options;
  options.capacity = 8;
  TraceRing ring(TestHeader(), options);

  std::thread producer([&]() {
    for (uint64_t seq = 0; seq < kRecords; ++seq) {
      EXPECT_TRUE(ring.Push(Rec(seq)));
    }
    ring.Close();
  });

  RingTraceSource source(&ring);
  TraceRecord out;
  uint64_t expected = 0;
  while (source.Next(&out)) {
    ASSERT_EQ(out.file_id, expected);
    ++expected;
  }
  producer.join();

  EXPECT_EQ(expected, kRecords);
  const TraceRingStats stats = ring.stats();
  EXPECT_EQ(stats.produced, kRecords);
  EXPECT_EQ(stats.consumed, kRecords);
  EXPECT_EQ(stats.dropped(), 0u);
  EXPECT_LE(stats.max_occupancy, ring.capacity());
}

// MPSC: several producers interleave through the sink face.  The global
// order is nondeterministic, but each producer's records must arrive in its
// own push order (per-producer FIFO), with nothing lost or duplicated.
TEST(TraceRing, MpscPreservesPerProducerFifo) {
  constexpr int kProducers = 4;
  constexpr uint64_t kEach = 5000;
  TraceRingOptions options;
  options.capacity = 16;
  TraceRing ring(TestHeader(), options);
  RingTraceSink sink(&ring);

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p]() {
      for (uint64_t seq = 0; seq < kEach; ++seq) {
        sink.Append(Rec(seq, static_cast<UserId>(p + 1)));
      }
    });
  }
  std::thread closer([&]() {
    for (std::thread& t : producers) {
      t.join();
    }
    ring.Close();
  });

  std::vector<uint64_t> next_from(kProducers, 0);
  TraceRecord out;
  uint64_t total = 0;
  while (ring.Pop(&out)) {
    const int p = static_cast<int>(out.user_id) - 1;
    ASSERT_GE(p, 0);
    ASSERT_LT(p, kProducers);
    ASSERT_EQ(out.file_id, next_from[p]) << "producer " << p << " reordered";
    ++next_from[p];
    ++total;
  }
  closer.join();

  EXPECT_EQ(total, kProducers * kEach);
  for (int p = 0; p < kProducers; ++p) {
    EXPECT_EQ(next_from[p], kEach);
  }
  EXPECT_EQ(ring.stats().dropped(), 0u);
}

TEST(TraceRing, PopBatchTakesUpToMaxInOrderAcrossWrap) {
  TraceRingOptions options;
  options.capacity = 4;
  TraceRing ring(TestHeader(), options);
  TraceRecord out[8];
  uint64_t next_push = 0;
  uint64_t next_pop = 0;
  for (int round = 0; round < 4; ++round) {
    while (next_push - next_pop < ring.capacity()) {
      ASSERT_TRUE(ring.Push(Rec(next_push++)));
    }
    // A batch larger than the occupancy takes what is there; a smaller one
    // takes exactly max.
    const size_t max = round % 2 == 0 ? 3 : 8;
    const size_t n = ring.PopBatch(out, max);
    EXPECT_EQ(n, std::min<size_t>(max, 4));
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(out[i], Rec(next_pop++));
    }
  }
  ring.Close();
  while (const size_t n = ring.PopBatch(out, 8)) {
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(out[i], Rec(next_pop++));
    }
  }
  EXPECT_EQ(next_pop, next_push);
  EXPECT_EQ(ring.stats().consumed, next_push);
}

// Records already in the consumer's batch were consumed: drop-oldest
// overwrites only what is still in the ring.
TEST(TraceRing, DropOldestCannotOverwriteTheConsumersBatch) {
  TraceRingOptions options;
  options.capacity = 4;
  options.policy = RingOverflowPolicy::kDropOldest;
  TraceRing ring(TestHeader(), options);
  for (uint64_t seq = 0; seq < 4; ++seq) {
    ASSERT_TRUE(ring.Push(Rec(seq)));
  }
  TraceRecord batch[2];
  ASSERT_EQ(ring.PopBatch(batch, 2), 2u);
  for (uint64_t seq = 4; seq < 7; ++seq) {
    ASSERT_TRUE(ring.Push(Rec(seq)));  // the third overwrites record 2
  }
  EXPECT_EQ(batch[0], Rec(0));
  EXPECT_EQ(batch[1], Rec(1));
  TraceRingStats stats = ring.stats();
  EXPECT_EQ(stats.consumed, 2u);
  EXPECT_EQ(stats.dropped_oldest, 1u);
  ring.Close();
  TraceRecord out;
  for (uint64_t seq = 3; seq < 7; ++seq) {
    ASSERT_TRUE(ring.Pop(&out));
    EXPECT_EQ(out, Rec(seq));
  }
  EXPECT_FALSE(ring.Pop(&out));
}

// Burns a little CPU: makes one side of the ring slower than the other.
void Spin(int iterations) {
  std::atomic<int> sink{0};
  for (int i = 0; i < iterations; ++i) {
    sink.fetch_add(1, std::memory_order_relaxed);
  }
}

// (capacity, producers, consumer slower than the producers).  A slow
// consumer keeps the ring full, so producers block and wake at half a ring;
// a fast one keeps it empty, so the consumer blocks and every push may have
// to wake it.
class TraceRingWake : public ::testing::TestWithParam<std::tuple<size_t, int, bool>> {};

TEST_P(TraceRingWake, LosslessAndFifoPerProducer) {
  const auto [capacity, producer_count, consumer_slower] = GetParam();
  constexpr uint64_t kEach = 3000;
  TraceRingOptions options;
  options.capacity = capacity;
  TraceRing ring(TestHeader(), options);

  std::vector<std::thread> producers;
  for (int p = 0; p < producer_count; ++p) {
    producers.emplace_back([&, p, slow = !consumer_slower]() {
      RingTraceSink sink(&ring);
      for (uint64_t seq = 0; seq < kEach; ++seq) {
        if (slow) {
          Spin(200);
        }
        sink.Append(Rec(seq, static_cast<UserId>(p + 1)));
      }
    });
  }
  std::thread closer([&]() {
    for (std::thread& t : producers) {
      t.join();
    }
    ring.Close();
  });

  // The batched consumer face: one PopBatch per up-to-256 records.
  RingTraceSource source(&ring);
  std::vector<uint64_t> next_from(static_cast<size_t>(producer_count), 0);
  uint64_t total = 0;
  TraceRecord out;
  while (source.Next(&out)) {
    if (consumer_slower) {
      Spin(200);
    }
    const size_t p = out.user_id - 1;
    ASSERT_LT(p, next_from.size());
    ASSERT_EQ(out.file_id, next_from[p]) << "producer " << p << " reordered";
    ++next_from[p];
    ++total;
  }
  closer.join();

  EXPECT_EQ(total, kEach * static_cast<uint64_t>(producer_count));
  for (const uint64_t n : next_from) {
    EXPECT_EQ(n, kEach);
  }
  const TraceRingStats stats = ring.stats();
  EXPECT_EQ(stats.produced, total);
  EXPECT_EQ(stats.consumed, total);
  EXPECT_EQ(stats.dropped(), 0u);
  EXPECT_LE(stats.max_occupancy, ring.capacity());
  if (consumer_slower) {
    EXPECT_EQ(stats.max_occupancy, ring.capacity()) << "producers never filled the ring";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TraceRingWake,
    ::testing::Combine(::testing::Values(size_t{2}, size_t{4}), ::testing::Values(1, 3),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<TraceRingWake::ParamType>& info) {
      return "cap" + std::to_string(std::get<0>(info.param)) + "_" +
             (std::get<1>(info.param) == 1 ? "spsc" : "mpsc3") + "_" +
             (std::get<2>(info.param) ? "slow_consumer" : "fast_consumer");
    });

// Once nothing moves, every accepted record is consumed, still queued, or
// dropped — under both lossy policies, with a batched consumer racing three
// producers.
TEST(TraceRing, AccountingBalancesOnceQuiescent) {
  for (const RingOverflowPolicy policy :
       {RingOverflowPolicy::kDropOldest, RingOverflowPolicy::kBlock}) {
    TraceRingOptions options;
    options.capacity = 4;
    options.policy = policy;
    options.push_timeout = std::chrono::milliseconds(1);
    TraceRing ring(TestHeader(), options);

    constexpr uint64_t kEach = 2000;
    std::atomic<uint64_t> refused{0};
    std::vector<std::thread> producers;
    for (int p = 0; p < 3; ++p) {
      producers.emplace_back([&, p]() {
        for (uint64_t seq = 0; seq < kEach; ++seq) {
          if (!ring.Push(Rec(seq, static_cast<UserId>(p + 1)))) {
            refused.fetch_add(1);
          }
        }
      });
    }
    std::atomic<bool> stop{false};
    std::atomic<uint64_t> popped{0};
    std::thread consumer([&]() {
      TraceRecord batch[3];
      while (!stop.load()) {
        Spin(500);
        popped.fetch_add(ring.PopBatch(batch, 3));
      }
    });
    for (std::thread& t : producers) {
      t.join();
    }
    // Unblock a consumer waiting on an empty ring, then let it stop.
    stop.store(true);
    if (!ring.Push(Rec(kEach, 9))) {
      refused.fetch_add(1);
    }
    consumer.join();

    const TraceRingStats stats = ring.stats();
    EXPECT_EQ(stats.consumed, popped.load());
    EXPECT_EQ(stats.dropped_timeout, refused.load());
    EXPECT_EQ(stats.produced + stats.dropped_timeout, 3 * kEach + 1);
    ring.Close();
    uint64_t queued = 0;
    TraceRecord out;
    while (ring.Pop(&out)) {
      ++queued;
    }
    EXPECT_LE(queued, ring.capacity());
    EXPECT_EQ(stats.produced, stats.consumed + queued + stats.dropped_oldest);
    if (policy == RingOverflowPolicy::kBlock) {
      EXPECT_EQ(stats.dropped_oldest, 0u);
    } else {
      EXPECT_EQ(stats.dropped_timeout, 0u);
    }
  }
}

// A producer blocked on a full ring is woken only once the ring drains to
// half, but a timed push re-checks for space when its timeout expires: it is
// refused only if the ring is still full then.
TEST(TraceRing, TimedPushIsRefusedOnlyWhenStillFull) {
  TraceRingOptions options;
  options.capacity = 4;
  options.push_timeout = std::chrono::milliseconds(50);
  TraceRing ring(TestHeader(), options);
  for (uint64_t seq = 0; seq < 4; ++seq) {
    ASSERT_TRUE(ring.Push(Rec(seq)));
  }
  EXPECT_FALSE(ring.Push(Rec(99)));  // full, nobody pops: refused
  EXPECT_EQ(ring.stats().dropped_timeout, 1u);

  bool accepted = false;
  std::thread producer([&]() { accepted = ring.Push(Rec(4)); });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  TraceRecord out;
  ASSERT_TRUE(ring.Pop(&out));  // 3 of 4 left: above half, no wake
  producer.join();

  EXPECT_TRUE(accepted) << "a push that found space at its deadline was refused";
  const TraceRingStats stats = ring.stats();
  EXPECT_EQ(stats.produced, 5u);
  EXPECT_EQ(stats.dropped_timeout, 1u);
  ring.Close();
  for (uint64_t seq = 1; seq <= 4; ++seq) {
    ASSERT_TRUE(ring.Pop(&out));
    EXPECT_EQ(out, Rec(seq));
  }
  EXPECT_FALSE(ring.Pop(&out));
}

TEST(TraceRing, CloseWakesBlockedProducerAndConsumer) {
  {
    TraceRingOptions options;
    options.capacity = 2;
    TraceRing ring(TestHeader(), options);
    ASSERT_TRUE(ring.Push(Rec(0)));
    ASSERT_TRUE(ring.Push(Rec(1)));
    bool accepted = true;
    std::thread producer([&]() { accepted = ring.Push(Rec(2)); });  // blocks: full
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ring.Close();
    producer.join();
    EXPECT_FALSE(accepted);
    EXPECT_EQ(ring.stats().dropped_timeout, 1u);
    EXPECT_EQ(ring.stats().produced, 2u);
  }
  {
    TraceRing ring(TestHeader());
    bool got = true;
    std::thread consumer([&]() {
      RingTraceSource source(&ring);
      TraceRecord out;
      got = source.Next(&out);  // blocks: empty
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ring.Close();
    consumer.join();
    EXPECT_FALSE(got);
  }
}

}  // namespace
}  // namespace bsdtrace
