#include "live.h"

#include <algorithm>
#include <memory>
#include <span>
#include <thread>

#include "src/trace/trace_ring.h"

namespace perfbench {
namespace {

using bsdtrace::SimTime;
using bsdtrace::TraceRecord;

constexpr size_t kAnalyzers = 2;
constexpr size_t kRingCapacity = 1 << 14;
const bsdtrace::Duration kSnapshotInterval = bsdtrace::Duration::Minutes(10);

// Times every pop from outside, so the analyzer's busy share is the part of
// its wall time spent outside Next().
class TimedRingSource : public bsdtrace::TraceSource {
 public:
  explicit TimedRingSource(bsdtrace::TraceRing* ring) : inner_(ring) {}
  const bsdtrace::TraceHeader& header() const override { return inner_.header(); }
  bool Next(TraceRecord* record) override {
    const int64_t start = NowNs();
    const bool more = inner_.Next(record);
    pop_ns_ += NowNs() - start;
    return more;
  }
  bsdtrace::Status status() const override { return inner_.status(); }
  int64_t pop_ns() const { return pop_ns_; }

 private:
  bsdtrace::RingTraceSource inner_;
  int64_t pop_ns_ = 0;
};

}  // namespace

LiveResult RunLive(const bsdtrace::Trace& trace, size_t count, double rate, const SpanCtx& at) {
  const std::span<const TraceRecord> records(trace.records().data(),
                                             std::min(count, trace.records().size()));
  const bool open_loop = rate > 0.0;
  const double ns_per_record = open_loop ? 1e9 / rate : 0.0;

  const bsdtrace::TraceRingOptions ring_options{
      .capacity = kRingCapacity, .policy = bsdtrace::RingOverflowPolicy::kBlock};
  std::vector<std::unique_ptr<bsdtrace::TraceRing>> rings;
  for (size_t i = 0; i < kAnalyzers; ++i) {
    rings.push_back(std::make_unique<bsdtrace::TraceRing>(trace.header(), ring_options));
  }

  LiveResult result;
  result.finals.assign(kAnalyzers, bsdtrace::Status::Error("analyzer did not run"));
  std::vector<std::vector<double>> lags(kAnalyzers);
  std::vector<double> busy(kAnalyzers, 0.0);
  const SimTime first_time = records.empty() ? SimTime::Origin() : records.front().time;
  // The analyzers start before the first record is due.
  const int64_t t0 = NowNs() + (open_loop ? 2'000'000 : 0);

  std::vector<std::thread> threads;
  for (size_t i = 0; i < kAnalyzers; ++i) {
    threads.emplace_back([&, i]() {
      ScopedSpan span(*at.log, "analysis", "analysis.live_analyze", at.parent, at.run);
      const int64_t start = NowNs();
      TimedRingSource source(rings[i].get());
      bsdtrace::AnalyzeOptions analyze;
      analyze.source = &source;
      analyze.snapshot_interval = kSnapshotInterval;
      analyze.on_snapshot = [&, i](const bsdtrace::TraceAnalysis&, SimTime boundary) {
        if (!open_loop || boundary <= first_time) {
          return;  // closed loop has no schedule; pre-trace boundaries have no record
        }
        const auto first_past = std::lower_bound(
            records.begin(), records.end(), boundary,
            [](const TraceRecord& r, SimTime t) { return r.time < t; });
        const double due_ns =
            static_cast<double>(t0) +
            static_cast<double>(first_past - records.begin()) * ns_per_record;
        lags[i].push_back((static_cast<double>(NowNs()) - due_ns) / 1e6);
      };
      result.finals[i] = bsdtrace::Analyze(analyze);
      const int64_t wall = NowNs() - start;
      busy[i] = wall > 0 ? 1.0 - static_cast<double>(source.pop_ns()) / static_cast<double>(wall)
                         : 0.0;
    });
  }

  {
    ScopedSpan span(*at.log, "trace", "trace.ring_produce", at.parent, at.run);
    int64_t push_ns = 0;
    int64_t late_max = 0;
    int64_t late = 0;
    for (size_t i = 0; i < records.size(); ++i) {
      int64_t now = NowNs();
      if (open_loop) {
        const int64_t due = t0 + static_cast<int64_t>(static_cast<double>(i) * ns_per_record);
        while (now < due) {
          if (due - now > 100'000) {
            std::this_thread::sleep_for(std::chrono::nanoseconds(due - now - 50'000));
          }
          now = NowNs();
        }
        late = now - due;
        late_max = std::max(late_max, late);
      }
      for (const auto& ring : rings) {
        ring->Push(records[i]);
      }
      push_ns += NowNs() - now;
    }
    for (const auto& ring : rings) {
      ring->Close();
    }
    result.push_wait_s = static_cast<double>(push_ns) / 1e9;
    result.late_max_ms = static_cast<double>(late_max) / 1e6;
    result.late_final_ms = static_cast<double>(late) / 1e6;
  }
  for (std::thread& t : threads) {
    t.join();
  }

  for (size_t i = 0; i < kAnalyzers; ++i) {
    const bsdtrace::TraceRingStats stats = rings[i]->stats();
    result.max_occupancy = std::max(result.max_occupancy, stats.max_occupancy);
    result.dropped += stats.dropped();
    result.produced += stats.produced;
    result.lag_ms.insert(result.lag_ms.end(), lags[i].begin(), lags[i].end());
    result.busy_share += busy[i] / static_cast<double>(kAnalyzers);
  }
  return result;
}

}  // namespace perfbench
