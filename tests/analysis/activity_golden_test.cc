// Golden values for the Table IV and Table I collectors.
//
// The parity tests compare serial, parallel and rolling analysis with each
// other, so an error all three engines share passes them.  This test pins
// the exact ActivityStats and PerUserActivityStats of four generated traces
// instead: every RunningStats field as a bit pattern, the interval counts,
// the user counts, and a digest of the per-user map.  The golden strings were
// produced by the ordered-set implementation of both collectors, which the
// dense user-slot implementation replaced; each engine must still reproduce
// them bit for bit.

#include <bit>
#include <cinttypes>
#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "src/analysis/analyzer.h"
#include "src/analysis/rolling_analyzer.h"
#include "src/trace/trace_io.h"
#include "src/workload/fleet.h"
#include "src/workload/generator.h"
#include "src/workload/sharded_generator.h"
#include "tests/testing/analyze_helpers.h"
#include "tests/testing/temp_dir.h"

namespace bsdtrace {
namespace {

std::string Hex(double x) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, std::bit_cast<uint64_t>(x));
  return buf;
}

std::string Describe(const char* name, const RunningStats& s) {
  return std::string(name) + " n=" + std::to_string(s.count()) + " mean=" + Hex(s.mean()) +
         " var=" + Hex(s.variance()) + " min=" + Hex(s.min()) + " max=" + Hex(s.max()) +
         " sum=" + Hex(s.sum()) + "\n";
}

std::string Describe(const char* name, const IntervalActivity& a) {
  return std::string(name) + " length_us=" + std::to_string(a.interval_length.micros()) +
         " intervals=" + std::to_string(a.intervals) +
         " max_active=" + std::to_string(a.max_active_users) + "\n" +
         Describe(" active_users", a.active_users) +
         Describe(" throughput_per_user", a.throughput_per_user);
}

// FNV-1a over every (user, records, bytes) entry in map order.
uint64_t Digest(const std::map<UserId, PerUserTotals>& users) {
  uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ull;
    }
  };
  for (const auto& [user, totals] : users) {
    mix(user);
    mix(totals.records);
    mix(totals.bytes);
  }
  return h;
}

// One line per field of the two collectors' results.
std::string Describe(const TraceAnalysis& analysis) {
  const ActivityStats& a = analysis.activity;
  const PerUserActivityStats& p = analysis.per_user;
  char digest[32];
  std::snprintf(digest, sizeof(digest), "%016" PRIx64, Digest(p.users));
  const auto first = p.users.empty() ? std::pair<const UserId, PerUserTotals>{}
                                     : *p.users.begin();
  const auto last = p.users.empty() ? std::pair<const UserId, PerUserTotals>{}
                                    : *p.users.rbegin();
  return "activity duration_us=" + std::to_string(a.duration.micros()) +
         " total_bytes=" + std::to_string(a.total_bytes) +
         " average_throughput=" + Hex(a.average_throughput) +
         " distinct_users=" + std::to_string(a.distinct_users) + "\n" +
         Describe("ten_minute", a.ten_minute) + Describe("ten_second", a.ten_second) +
         "per_user duration_us=" + std::to_string(p.duration.micros()) +
         " days=" + Hex(p.days) + " total_records=" + std::to_string(p.total_records) +
         " total_bytes=" + std::to_string(p.total_bytes) + "\n" +
         " users=" + std::to_string(p.users.size()) + " digest=" + digest +
         " first=" + std::to_string(first.first) + ":" + std::to_string(first.second.records) +
         ":" + std::to_string(first.second.bytes) + " last=" + std::to_string(last.first) +
         ":" + std::to_string(last.second.records) + ":" + std::to_string(last.second.bytes) +
         "\n" + Describe(" records_per_user_day", p.records_per_user_day) +
         Describe(" active_users_per_day", p.active_users_per_day);
}

// Serial (in memory), 4-thread parallel (a v3 file cut into small blocks)
// and rolling (hourly snapshots) analysis must all print `golden`.
void ExpectGolden(const Trace& trace, const std::string& golden) {
  EXPECT_EQ(Describe(AnalyzeForTest(trace)), golden) << "serial";

  const std::string path = TestTempPath("golden.trc");
  TraceWriterOptions writer;
  writer.version = 3;
  writer.block_target_bytes = 16 * 1024;
  ASSERT_TRUE(SaveTrace(path, trace, writer).ok());
  AnalyzeOptions options;
  options.path = path;
  options.threads = 4;
  auto parallel = Analyze(options);
  ASSERT_TRUE(parallel.ok()) << parallel.status().message();
  EXPECT_GT(parallel.value().segments_used, 1u);
  EXPECT_EQ(Describe(parallel.value()), golden) << "parallel";

  RollingAnalyzer rolling(Duration::Hours(1));
  for (const TraceRecord& r : trace.records()) {
    rolling.Process(r);
  }
  EXPECT_EQ(Describe(rolling.Finish()), golden) << "rolling";
}

constexpr char kGoldenA5[] = R"(activity duration_us=107999510000 total_bytes=414512110 average_throughput=40adfc2f5cf7ab94 distinct_users=87
ten_minute length_us=600000000 intervals=180 max_active=23
 active_users n=180 mean=4022360b60b60b5e var=4046b6c0692e6564 min=3ff0000000000000 max=4037000000000000 sum=40999c0000000000
 throughput_per_user n=1639 mean=407a58258725ff19 var=41057ac3061b356d min=400c666666666666 max=40adb162fc962fc9 sum=4125154b08888887
ten_second length_us=10000000 intervals=10800 max_active=15
 active_users n=10800 mean=400e23456789abbd var=402069c19bfc9f45 min=0000000000000000 max=402e000000000000 sum=40e3ddc000000000
 throughput_per_user n=40686 mean=408fd676373e9b4c var=41722267ed84bef0 min=0000000000000000 max=40fe660800000000 sum=4183c3f657fffff8
per_user duration_us=107999510000 days=3ff3fffa0d9f7c71 total_records=290988 total_bytes=414512110
 users=87 digest=54a5e540d627ab35 first=0:72731:37836593 last=91:1741:3709866
 records_per_user_day n=87 mean=40a4e78719349b7c var=418248954b4967a4 min=4045333980ed4c8e max=40ec69220c301f58 sum=410c6abba6438361
 active_users_per_day n=2 mean=4050e00000000000 var=406a480000000000 min=404a800000000000 max=4054800000000000 sum=4060e00000000000
)";

constexpr char kGoldenE3[] = R"(activity duration_us=10798720000 total_bytes=26523964 average_throughput=40a3306d6a020878 distinct_users=21
ten_minute length_us=600000000 intervals=18 max_active=11
 active_users n=18 mean=401b1c71c71c71c7 var=401ee9e06522c3f2 min=4008000000000000 max=4026000000000000 sum=405e800000000000
 throughput_per_user n=122 mean=4076a59677692450 var=4100e63e440a3b17 min=401651eb851eb852 max=40a28f7ae147ae14 sum=40e595d369d0369d
ten_second length_us=10000000 intervals=1080 max_active=8
 active_users n=1080 mean=40065b05b05b05ab var=40019680b1ffbf4c min=0000000000000000 max=4020000000000000 sum=40a7940000000000
 throughput_per_user n=3018 mean=408b76df309f1002 var=416ad5b84b574e48 min=0000000000000000 max=40f8166800000000 sum=41443c7633333340
per_user duration_us=10798720000 days=3fbfff0772dad906 total_records=20412 total_bytes=26523964
 users=21 digest=e5624182d9eb5ecd first=0:6995:3609120 last=131:91:117927
 records_per_user_day n=21 mean=40be60ebf523008f var=41a007bfc4cb0366 min=4081c089e27996fb max=40eb53d442361a9e sum=4103ef9ad8def85f
 active_users_per_day n=1 mean=4035000000000000 var=0000000000000000 min=4035000000000000 max=4035000000000000 sum=4035000000000000
)";

constexpr char kGoldenC4[] = R"(activity duration_us=43198300000 total_bytes=400557459 average_throughput=40c21c439f22c01a distinct_users=35
ten_minute length_us=600000000 intervals=72 max_active=19
 active_users n=72 mean=40232aaaaaaaaaaa var=403d5aaaaaaaaaa7 min=3ff0000000000000 max=4033000000000000 sum=4085900000000000
 throughput_per_user n=690 mean=408e3c3da2078a01 var=41291b3bef447d0b min=4001a06d3a06d3a0 max=40be90fb4e81b4e8 sum=41245f9787ae147c
ten_second length_us=10000000 intervals=4320 max_active=12
 active_users n=4320 mean=400d5bf86a314dc5 var=401389c96a2db528 min=0000000000000000 max=4028000000000000 sum=40cef70000000000
 throughput_per_user n=15854 mean=40a3bd13dba62b4a var=418f8c7559aa04da min=0000000000000000 max=4108aa40cccccccd sum=4183199e0f33331a
per_user duration_us=43198300000 days=3fdfffad7922aa10 total_records=94915 total_bytes=400557459
 users=35 digest=6dc189ddec33ce2a first=0:20681:10958070 last=41:3953:21285420
 records_per_user_day n=35 mean=40b52fed7f898c1b var=4185bf887ee7da26 min=4084a0353175d751 max=40e4327416687239 sum=41072c6bc37e713a
 active_users_per_day n=1 mean=4041800000000000 var=0000000000000000 min=4041800000000000 max=4041800000000000 sum=4041800000000000
)";

constexpr char kGoldenFleet[] = R"(activity duration_us=14399270000 total_bytes=66449159 average_throughput=40b206c245837938 distinct_users=49
ten_minute length_us=600000000 intervals=24 max_active=23
 active_users n=24 mean=4026000000000001 var=4044355555555554 min=4000000000000000 max=4037000000000000 sum=4070800000000000
 throughput_per_user n=264 mean=407a38094881e9da var=41074220583c635d min=40035f92c5f92c60 max=40a58c9f92c5f92c sum=40fb09c992c5f928
ten_second length_us=10000000 intervals=1440 max_active=16
 active_users n=1440 mean=4013ac16c16c16bf var=4019b36f6034972c min=4000000000000000 max=4030000000000000 sum=40bbaa0000000000
 throughput_per_user n=7082 mean=408d524256b9ea9c var=4172c96ee995e82f min=0000000000000000 max=41016b6a66666666 sum=4159592cf99999b3
per_user duration_us=14399270000 days=3fc5550e7515bd39 total_records=55881 total_bytes=66449159
 users=49 digest=f84fa0545aef0803 first=0:12961:6905244 last=234:1017:1647144
 records_per_user_day n=49 mean=40babaeb17724a44 var=41aa892850d23056 min=4067404d3f65f2cd max=40f2fc9f147f1aff sum=4114771bfdf380db
 active_users_per_day n=1 mean=4048800000000000 var=0000000000000000 min=4048800000000000 max=4048800000000000 sum=4048800000000000
)";

Trace Machine(const MachineProfile& profile, Duration duration) {
  GeneratorOptions options;
  options.duration = duration;
  options.seed = 1985;
  return GenerateTraceOnly(profile, options);
}

TEST(ActivityGolden, A5) {
  // 30 hours: the per-day statistics see two simulated days.
  ExpectGolden(Machine(ProfileA5(), Duration::Hours(30)), kGoldenA5);
}

TEST(ActivityGolden, E3) {
  ExpectGolden(Machine(ProfileE3(), Duration::Hours(3)), kGoldenE3);
}

TEST(ActivityGolden, C4) {
  ExpectGolden(Machine(ProfileC4(), Duration::Hours(12)), kGoldenC4);
}

TEST(ActivityGolden, FleetTwoA5) {
  auto fleet = ParseFleetSpec("2xA5", /*users=*/120);
  ASSERT_TRUE(fleet.ok()) << fleet.status().message();
  FleetGeneratorOptions options;
  options.base.duration = Duration::Hours(4);
  options.base.seed = 1985;
  options.shards_per_machine = 2;
  options.threads = 2;
  auto generated = GenerateFleetTrace(fleet.value(), options);
  ASSERT_TRUE(generated.ok()) << generated.status().message();
  ExpectGolden(generated.value().trace, kGoldenFleet);
}

}  // namespace
}  // namespace bsdtrace
