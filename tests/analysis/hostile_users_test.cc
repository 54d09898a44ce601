// Table IV and Table I collectors against an independent reference model,
// on user ids chosen to break a dense-slot implementation: 0, 0xFFFFFFFF
// (the largest UserId) and sparse strace-style uids.  The hand trace has
// users touched only by zero-byte records, empty 10-second, 10-minute and
// whole-day gaps, opens whose close lands intervals later, and a malformed
// open id 0.  Serial, 4-thread parallel, rolling and one-segment-per-record
// analysis must each equal the model, which recomputes both collectors'
// statistics with std::set/std::map straight from the paper's definitions.
// A record far in the future (nothing bounds record times) must not make
// any engine fill its empty intervals one at a time.  The lifetime collector
// gets the same treatment on file ids 0 and 2^64-1: 0 is the empty key of
// its per-file map and must be held aside.

#include <chrono>
#include <map>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/analysis/analyzer.h"
#include "src/analysis/parallel_analyzer.h"
#include "src/analysis/rolling_analyzer.h"
#include "src/analysis/segment_stitcher.h"
#include "src/trace/reconstruct.h"
#include "src/trace/trace_io.h"
#include "tests/testing/analyze_helpers.h"
#include "tests/testing/temp_dir.h"
#include "tests/testing/trace_builder.h"

namespace bsdtrace {
namespace {

constexpr UserId kMaxUser = 0xFFFFFFFF;
constexpr UserId kNearMax = 0xFFFFFFFE;
constexpr UserId kNobody = 65534;
constexpr UserId kSparse = 4000000000u;

// One hour of activity per repetition; the middle repetition is preceded by
// three idle days.
Trace HostileTrace(int repetitions) {
  TraceBuilder b;
  double base = 0.0;
  OpenId next_open = 1;
  for (int rep = 0; rep < repetitions; ++rep) {
    if (rep == repetitions / 2) {
      base += 3 * 86400.0;
    }
    const double t = base;
    const FileId f = 100 + static_cast<FileId>(rep) * 10;
    const OpenId read = next_open++;
    const OpenId write = next_open++;
    const OpenId idle = next_open++;
    const OpenId whole = next_open++;
    b.Open(t + 0, read, f, 8192, AccessMode::kReadOnly, kMaxUser);
    b.Unlink(t + 1, f + 1, /*user=*/0);  // user 0 moves no bytes here
    b.Seek(t + 2, read, f, 4096, 0);     // 4096 bytes to kMaxUser
    b.Execve(t + 3, f + 2, 512, kNobody);
    b.Open(t + 5, kInvalidOpenId, f + 3, 300, AccessMode::kReadOnly, kNearMax);
    b.Close(t + 15, read, f, 8192, 8192);  // 8192 more, the next 10-second interval
    b.Create(t + 16, write, f + 4, AccessMode::kWriteOnly, 1000);
    b.Open(t + 17, idle, f + 5, 100, AccessMode::kReadOnly, kSparse);
    // 30 minutes on: a whole 10-minute interval passed without an event.
    b.Close(t + 1900, write, f + 4, 5000, 5000);
    b.Close(t + 1901, idle, f + 5, 0, 100);  // kSparse's only event here: no bytes
    b.Truncate(t + 1902, f + 6, 0, 1001);
    b.WholeRead(t + 1903, t + 1904, whole, f + 7, 2048, 33);
    b.Close(t + 1905, kInvalidOpenId, f + 3, 300, 300);  // 300 bytes to kNearMax
    base += 3600.0;
  }
  return b.Build();
}

// The reference model: both collectors' definitions over ordered containers,
// fed by the reconstructor's record and transfer callbacks.
class ReferenceModel : public ReconstructionSink {
 public:
  void OnRecord(const TraceRecord& r) override {
    last_ = std::max(last_, r.time);
    UserId user = r.user_id;
    if (r.type == EventType::kOpen || r.type == EventType::kCreate) {
      open_user_[r.open_id] = r.user_id;
    } else if (r.type == EventType::kSeek || r.type == EventType::kClose) {
      auto it = open_user_.find(r.open_id);
      if (it != open_user_.end()) {
        user = it->second;
        if (r.type == EventType::kClose) {
          open_user_.erase(it);
        }
      }
    }
    Touch(r.time, user, 1, 0);
  }

  void OnTransfer(const Transfer& t) override {
    total_bytes_ += t.length;
    Touch(t.time, t.user_id, 0, t.length);
  }

  ActivityStats Activity() const {
    ActivityStats stats;
    stats.duration = last_ - SimTime::Origin();
    stats.total_bytes = total_bytes_;
    stats.average_throughput = stats.duration > Duration::Zero()
                                   ? static_cast<double>(total_bytes_) / stats.duration.seconds()
                                   : 0.0;
    stats.distinct_users = totals_.size();
    stats.ten_minute = windows_[0].Finalize();
    stats.ten_second = windows_[1].Finalize();
    return stats;
  }

  PerUserActivityStats PerUser() const {
    PerUserActivityStats stats;
    stats.duration = last_ - SimTime::Origin();
    stats.days = stats.duration.seconds() / 86400.0;
    stats.users = totals_;
    for (const auto& [user, totals] : totals_) {
      stats.total_records += totals.records;
      stats.total_bytes += totals.bytes;
      if (stats.days > 0.0) {
        stats.records_per_user_day.Add(static_cast<double>(totals.records) / stats.days);
      }
    }
    if (!days_.empty()) {
      for (int64_t day = days_.begin()->first; day <= days_.rbegin()->first; ++day) {
        auto it = days_.find(day);
        stats.active_users_per_day.Add(it == days_.end() ? 0.0
                                                         : static_cast<double>(it->second.size()));
      }
    }
    return stats;
  }

 private:
  struct Window {
    Duration length;
    std::map<int64_t, std::set<UserId>> active;
    std::map<int64_t, std::map<UserId, uint64_t>> bytes;  // bytes > 0 only

    // Every interval from 0 to the last touched one; per interval, the users
    // that moved bytes in ascending id order, then zeros for the rest.
    IntervalActivity Finalize() const {
      IntervalActivity out;
      out.interval_length = length;
      int64_t prev = -1;
      for (const auto& [index, users] : active) {
        for (int64_t i = prev + 1; i < index; ++i) {
          out.active_users.Add(0.0);
          out.intervals += 1;
        }
        prev = index;
        const auto n = static_cast<int64_t>(users.size());
        out.active_users.Add(static_cast<double>(n));
        out.max_active_users = std::max(out.max_active_users, n);
        int64_t moved = 0;
        auto b = bytes.find(index);
        if (b != bytes.end()) {
          for (const auto& [user, count] : b->second) {
            out.throughput_per_user.Add(static_cast<double>(count) / length.seconds());
            ++moved;
          }
        }
        for (int64_t k = moved; k < n; ++k) {
          out.throughput_per_user.Add(0.0);
        }
        out.intervals += 1;
      }
      return out;
    }
  };

  void Touch(SimTime t, UserId user, uint64_t records, uint64_t bytes) {
    for (Window& w : windows_) {
      const int64_t index = t.micros() / w.length.micros();
      w.active[index].insert(user);
      if (bytes > 0) {
        w.bytes[index][user] += bytes;
      }
    }
    totals_[user].records += records;
    totals_[user].bytes += bytes;
    days_[t.micros() / Duration::Hours(24).micros()].insert(user);
  }

  std::map<OpenId, UserId> open_user_;
  Window windows_[2] = {{Duration::Minutes(10), {}, {}}, {Duration::Seconds(10), {}, {}}};
  std::map<UserId, PerUserTotals> totals_;
  std::map<int64_t, std::set<UserId>> days_;
  uint64_t total_bytes_ = 0;
  SimTime last_;
};

void ExpectSame(const RunningStats& want, const RunningStats& got, const std::string& what) {
  EXPECT_EQ(want.count(), got.count()) << what;
  EXPECT_EQ(want.mean(), got.mean()) << what;
  EXPECT_EQ(want.variance(), got.variance()) << what;
  EXPECT_EQ(want.min(), got.min()) << what;
  EXPECT_EQ(want.max(), got.max()) << what;
  EXPECT_EQ(want.sum(), got.sum()) << what;
}

void ExpectSame(const IntervalActivity& want, const IntervalActivity& got,
                const std::string& what) {
  EXPECT_EQ(want.interval_length, got.interval_length) << what;
  EXPECT_EQ(want.intervals, got.intervals) << what;
  EXPECT_EQ(want.max_active_users, got.max_active_users) << what;
  ExpectSame(want.active_users, got.active_users, what + " active_users");
  ExpectSame(want.throughput_per_user, got.throughput_per_user, what + " throughput");
}

// What the reference model computes for a trace.
struct Expected {
  ActivityStats activity;
  PerUserActivityStats per_user;
};

Expected Model(const Trace& trace) {
  ReferenceModel model;
  Reconstruct(trace, &model);
  return {model.Activity(), model.PerUser()};
}

// `got` (from engine `engine`) must equal the reference model's result.
void ExpectMatches(const Expected& want, const TraceAnalysis& got, const std::string& engine) {
  const ActivityStats& activity = want.activity;
  EXPECT_EQ(activity.duration, got.activity.duration) << engine;
  EXPECT_EQ(activity.total_bytes, got.activity.total_bytes) << engine;
  EXPECT_EQ(activity.average_throughput, got.activity.average_throughput) << engine;
  EXPECT_EQ(activity.distinct_users, got.activity.distinct_users) << engine;
  ExpectSame(activity.ten_minute, got.activity.ten_minute, engine + " ten_minute");
  ExpectSame(activity.ten_second, got.activity.ten_second, engine + " ten_second");

  const PerUserActivityStats& per_user = want.per_user;
  EXPECT_EQ(per_user.duration, got.per_user.duration) << engine;
  EXPECT_EQ(per_user.days, got.per_user.days) << engine;
  EXPECT_EQ(per_user.total_records, got.per_user.total_records) << engine;
  EXPECT_EQ(per_user.total_bytes, got.per_user.total_bytes) << engine;
  EXPECT_EQ(per_user.users, got.per_user.users) << engine;
  ExpectSame(per_user.records_per_user_day, got.per_user.records_per_user_day,
             engine + " records_per_user_day");
  ExpectSame(per_user.active_users_per_day, got.per_user.active_users_per_day,
             engine + " active_users_per_day");
}

TraceAnalysis Rolling(const Trace& trace, Duration interval) {
  RollingAnalyzer rolling(interval);
  for (const TraceRecord& r : trace.records()) {
    rolling.Process(r);
  }
  return rolling.Finish();
}

TEST(HostileUserIds, ModelSeesEveryHazard) {
  const Expected model = Model(HostileTrace(4));
  const std::map<UserId, PerUserTotals>& users = model.per_user.users;
  for (const UserId user : {UserId{0}, kMaxUser, kNearMax, kNobody, kSparse}) {
    EXPECT_EQ(users.count(user), 1u) << user;
  }
  EXPECT_EQ(users.at(0).bytes, 0u);
  EXPECT_EQ(users.at(kMaxUser).bytes, 4u * (4096 + 8192));
  EXPECT_EQ(users.at(kNearMax).bytes, 4u * 300);
  EXPECT_EQ(users.at(kSparse).bytes, 0u);
  // Idle days between the halves count as zero-active days, and each hour
  // holds idle 10-minute intervals.
  EXPECT_EQ(model.per_user.active_users_per_day.min(), 0.0);
  EXPECT_EQ(model.activity.ten_minute.active_users.min(), 0.0);
}

// Every record its own segment: each close, seek and transfer of an earlier
// open reaches the activity collectors through the stitcher's orphan replay.
TEST(HostileUserIds, SegmentPerRecordMatchesModel) {
  const Trace trace = HostileTrace(4);
  SegmentStitcher stitcher;
  for (const TraceRecord& r : trace.records()) {
    SegmentCollector segment;
    segment.Process(r);
    stitcher.Add(segment.Take());
  }
  EXPECT_EQ(stitcher.segments(), trace.size());
  const Expected model = Model(trace);
  ExpectMatches(model, stitcher.Finish(), "segment per record");
  ExpectMatches(model, AnalyzeForTest(trace), "serial");
  // One-second snapshots: a rolling segment per record here too.
  ExpectMatches(model, Rolling(trace, Duration::Seconds(1)), "rolling");
}

TEST(HostileUserIds, SerialParallelAndRollingMatchModel) {
  // Enough records for four parallel segments of the minimum size.
  const Trace trace = HostileTrace(2600);
  const Expected model = Model(trace);
  ExpectMatches(model, AnalyzeForTest(trace), "serial");
  ExpectMatches(model, Rolling(trace, Duration::Hours(24)), "rolling");

  const std::string path = TestTempPath("hostile.trc");
  TraceWriterOptions writer;
  writer.version = 3;
  writer.block_target_bytes = 1024;
  ASSERT_TRUE(SaveTrace(path, trace, writer).ok());
  AnalyzeOptions options;
  options.path = path;
  options.threads = 4;
  auto parallel = Analyze(options);
  ASSERT_TRUE(parallel.ok()) << parallel.status().message();
  EXPECT_EQ(parallel.value().mode, AnalyzeMode::kParallel);
  EXPECT_EQ(parallel.value().segments_used, 4u);
  ExpectMatches(model, parallel.value(), "parallel");
}

// Seconds `fn` takes on the wall clock.
template <typename Fn>
double SecondsOf(Fn fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

// The gap before a far record holds up to 2^62 us / 10 s = 4.6e11 empty
// 10-second intervals (and, after a record at 0, 5.3e7 empty days).  Serial,
// 4-thread and callback-less rolling analysis each finish in under a second
// and agree bit for bit.  The one-record traces are too small to segment
// (the parallel request runs serially); the hostile trace with a far record
// appended splits into four segments, so the stitcher folds the gap too.
TEST(HostileTimestamps, FarRecordsAnalyzeFastAndIdentically) {
  const SimTime far_times[] = {SimTime::FromSeconds(1e8), SimTime::FromMicros(int64_t{1} << 62)};
  int case_index = 0;
  for (const SimTime far : far_times) {
    for (const bool after_hostile : {false, true}) {
      const std::string what = "case " + std::to_string(case_index++);
      Trace trace = after_hostile ? HostileTrace(2600) : Trace();
      trace.Append(MakeExecve(far, /*file=*/9, /*user=*/kMaxUser, /*size=*/4096));

      TraceAnalysis serial;
      EXPECT_LT(SecondsOf([&] { serial = AnalyzeForTest(trace); }), 1.0) << what;
      EXPECT_EQ(serial.overall.total_records, trace.size()) << what;

      const std::string path = TestTempPath("far.trc");
      TraceWriterOptions writer;
      writer.version = 3;
      writer.block_target_bytes = 1024;
      ASSERT_TRUE(SaveTrace(path, trace, writer).ok()) << what;
      AnalyzeOptions options;
      options.path = path;
      options.threads = 4;
      StatusOr<TraceAnalysis> parallel = Status::Error("not run");
      EXPECT_LT(SecondsOf([&] { parallel = Analyze(options); }), 1.0) << what;
      ASSERT_TRUE(parallel.ok()) << parallel.status().message();
      EXPECT_EQ(parallel.value().mode,
                after_hostile ? AnalyzeMode::kParallel : AnalyzeMode::kSerial)
          << what;
      EXPECT_TRUE(AnalysisBitIdentical(serial, parallel.value())) << what;

      TraceAnalysis rolling;
      EXPECT_LT(SecondsOf([&] { rolling = Rolling(trace, Duration::Hours(1)); }), 1.0) << what;
      EXPECT_TRUE(AnalysisBitIdentical(serial, rolling)) << what;
    }
  }

  // The last representable time: callback-less rolling counts every hourly
  // boundary before it in one step, without overflowing the next boundary.
  Trace end_of_time;
  end_of_time.Append(MakeExecve(SimTime::Max(), /*file=*/9, /*user=*/kMaxUser, /*size=*/4096));
  RollingAnalyzer rolling(Duration::Hours(1));
  rolling.Process(end_of_time.records()[0]);
  EXPECT_EQ(rolling.snapshots_published(),
            static_cast<uint64_t>(SimTime::Max().micros() / Duration::Hours(1).micros()));
  EXPECT_TRUE(AnalysisBitIdentical(AnalyzeForTest(end_of_time), rolling.Finish()));
}

// -- Hostile file ids -----------------------------------------------------------

constexpr FileId kHostileFiles[] = {kInvalidFileId, ~FileId{0}};

// Per hour and per hostile file: a create with a 1000-byte write, killed by
// a truncate to zero 600 s later; a write into the dead file (its bytes
// belong to no incarnation); an unlink of the dead file; and a create at
// minute 50 that writes 300 bytes, closes after the hour boundary with 200
// more and is killed 700 s after its birth by the next hour's create.  The
// last of those is still live at the end of the trace.
Trace HostileFileTrace(int repetitions) {
  TraceBuilder b;
  OpenId next_open = 1;
  OpenId carried[2] = {kInvalidOpenId, kInvalidOpenId};
  for (int rep = 0; rep < repetitions; ++rep) {
    const double t = rep * 3600.0;
    for (int i = 0; i < 2; ++i) {
      if (carried[i] != kInvalidOpenId) {
        b.Close(t + 50, carried[i], kHostileFiles[i], 200, 300);
      }
    }
    for (int i = 0; i < 2; ++i) {
      const FileId f = kHostileFiles[i];
      const OpenId born = next_open++;
      const OpenId dead = next_open++;
      b.Create(t + 100, born, f, AccessMode::kWriteOnly, /*user=*/5);
      b.Close(t + 110, born, f, 1000, 1000);
      b.Truncate(t + 700, f, 0, /*user=*/5);
      b.Open(t + 710, dead, f, 0, AccessMode::kWriteOnly, /*user=*/5);
      b.Close(t + 720, dead, f, 500, 500);
      b.Unlink(t + 1000, f, /*user=*/5);
    }
    for (int i = 0; i < 2; ++i) {
      carried[i] = next_open++;
      b.Create(t + 3000, carried[i], kHostileFiles[i], AccessMode::kWriteOnly, /*user=*/5);
      b.Seek(t + 3500, carried[i], kHostileFiles[i], 300, 0);
    }
  }
  return b.Build();
}

void ExpectLifetimes(const TraceAnalysis& got, int repetitions, const std::string& engine) {
  WeightedCdf by_files;
  WeightedCdf by_bytes;
  for (int i = 0; i < 2; ++i) {
    for (int rep = 0; rep < repetitions; ++rep) {
      by_files.Add(600.0);
      by_bytes.Add(600.0, 1000.0);
      if (rep > 0) {
        by_files.Add(700.0);
        by_bytes.Add(700.0, 500.0);
      }
    }
  }
  const auto reps = static_cast<uint64_t>(repetitions);
  EXPECT_EQ(got.lifetimes.new_files, 2 * 2 * reps) << engine;
  EXPECT_EQ(got.lifetimes.observed_deaths, 2 * (2 * reps - 1)) << engine;
  EXPECT_EQ(got.lifetimes.by_files.sorted_samples(), by_files.sorted_samples()) << engine;
  EXPECT_EQ(got.lifetimes.by_bytes.sorted_samples(), by_bytes.sorted_samples()) << engine;
}

// Every record its own segment: each straddle is seen from both sides.
TEST(HostileFileIds, SegmentPerRecordSerialAndRollingMatchExpected) {
  const int reps = 5;
  const Trace trace = HostileFileTrace(reps);
  SegmentStitcher stitcher;
  for (const TraceRecord& r : trace.records()) {
    SegmentCollector segment;
    segment.Process(r);
    stitcher.Add(segment.Take());
  }
  ExpectLifetimes(stitcher.Finish(), reps, "segment per record");
  ExpectLifetimes(AnalyzeForTest(trace), reps, "serial");
  ExpectLifetimes(Rolling(trace, Duration::Hours(1)), reps, "rolling hourly");
  ExpectLifetimes(Rolling(trace, Duration::Seconds(1)), reps, "rolling per second");
}

TEST(HostileFileIds, ParallelMatchesExpected) {
  // Enough records for four parallel segments of the minimum size.
  const int reps = 2000;
  const Trace trace = HostileFileTrace(reps);
  ExpectLifetimes(AnalyzeForTest(trace), reps, "serial");
  ExpectLifetimes(Rolling(trace, Duration::Minutes(7)), reps, "rolling");

  const std::string path = TestTempPath("hostile_files.trc");
  TraceWriterOptions writer;
  writer.version = 3;
  writer.block_target_bytes = 1024;
  ASSERT_TRUE(SaveTrace(path, trace, writer).ok());
  AnalyzeOptions options;
  options.path = path;
  options.threads = 4;
  auto parallel = Analyze(options);
  ASSERT_TRUE(parallel.ok()) << parallel.status().message();
  EXPECT_EQ(parallel.value().mode, AnalyzeMode::kParallel);
  EXPECT_EQ(parallel.value().segments_used, 4u);
  ExpectLifetimes(parallel.value(), reps, "parallel");
}

}  // namespace
}  // namespace bsdtrace
