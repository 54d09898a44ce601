// Golden values for every section of the Section-5 analysis.
//
// The parity tests compare serial, parallel and rolling analysis with each
// other, and all three now run one collector set, so an error they share
// passes them.  These tests pin the results of four generated traces
// instead.
//
// ActivityGolden pins the exact ActivityStats and PerUserActivityStats
// (Tables IV and I): every RunningStats field as a bit pattern, the interval
// counts, the user counts, and a digest of the per-user map.  Its strings
// were produced by the ordered-set implementation of both collectors, which
// the dense user-slot implementation replaced.
//
// SectionGolden pins the rest: the overall statistics with the inter-event
// CDF (Table III), the sequentiality counters (Table V), the run-length,
// file-size and open-time CDFs (Figs. 1-3) and the lifetime CDFs and
// counters (Fig. 4).  Every counter is printed as is, and every CDF as its
// sample count plus an FNV-1a digest of the bit patterns of its sorted
// (value, weight) samples.  Its strings were produced by the streaming
// collectors, before serial analysis became one segment plus the stitch.
//
// Each engine must reproduce both bit for bit.

#include <bit>
#include <cinttypes>
#include <cstdio>
#include <string>
#include <utility>

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

std::string Hex(uint64_t x) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, x);
  return buf;
}

std::string Hex(double x) { return Hex(std::bit_cast<uint64_t>(x)); }

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

// FNV-1a, one 64-bit value at a time.
class Fnv {
 public:
  void Mix(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 0x100000001b3ull;
    }
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ull;
};

// FNV-1a over every (user, records, bytes) entry in map order.
uint64_t Digest(const std::map<UserId, PerUserTotals>& users) {
  Fnv fnv;
  for (const auto& [user, totals] : users) {
    fnv.Mix(user);
    fnv.Mix(totals.records);
    fnv.Mix(totals.bytes);
  }
  return fnv.value();
}

// The sample count and the FNV-1a digest of the sorted samples' bit patterns.
std::string Describe(const char* name, const WeightedCdf& cdf) {
  Fnv fnv;
  for (const auto& [value, weight] : cdf.sorted_samples()) {
    fnv.Mix(std::bit_cast<uint64_t>(value));
    fnv.Mix(std::bit_cast<uint64_t>(weight));
  }
  return std::string(" ") + name + " n=" + std::to_string(cdf.sample_count()) +
         " digest=" + Hex(fnv.value()) + "\n";
}

// One line per field of the Table IV and Table I collectors' results.
std::string DescribeActivity(const TraceAnalysis& analysis) {
  const ActivityStats& a = analysis.activity;
  const PerUserActivityStats& p = analysis.per_user;
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
         " users=" + std::to_string(p.users.size()) + " digest=" + Hex(Digest(p.users)) +
         " first=" + std::to_string(first.first) + ":" + std::to_string(first.second.records) +
         ":" + std::to_string(first.second.bytes) + " last=" + std::to_string(last.first) +
         ":" + std::to_string(last.second.records) + ":" + std::to_string(last.second.bytes) +
         "\n" + Describe(" records_per_user_day", p.records_per_user_day) +
         Describe(" active_users_per_day", p.active_users_per_day);
}

// Every other section: counters as they are, CDFs as digests.
std::string DescribeSections(const TraceAnalysis& a) {
  const OverallStats& o = a.overall;
  std::string out = "overall duration_us=" + std::to_string(o.duration.micros()) +
                    " records=" + std::to_string(o.total_records) + " by_type=";
  for (uint64_t count : o.count_by_type) {
    out += std::to_string(count) + ",";
  }
  out += " bytes=" + std::to_string(o.bytes_transferred) + "/" +
         std::to_string(o.bytes_read) + "/" + std::to_string(o.bytes_written) + "\n" +
         Describe("inter_event", o.inter_event_interval_seconds);
  for (const ModeSequentiality& m : a.sequentiality.by_mode) {
    out += "sequentiality " + std::to_string(m.accesses) + " " + std::to_string(m.whole_file) +
           " " + std::to_string(m.sequential) + " " + std::to_string(m.bytes) + " " +
           std::to_string(m.whole_file_bytes) + " " + std::to_string(m.sequential_bytes) + "\n";
  }
  out += "runs\n" + Describe("by_runs", a.runs.by_runs) + Describe("by_bytes", a.runs.by_bytes);
  out += "file_sizes\n" + Describe("by_accesses", a.file_sizes.by_accesses) +
         Describe("by_bytes", a.file_sizes.by_bytes);
  out += "open_times\n" + Describe("seconds", a.open_times.seconds);
  out += "lifetimes new_files=" + std::to_string(a.lifetimes.new_files) +
         " observed_deaths=" + std::to_string(a.lifetimes.observed_deaths) + "\n" +
         Describe("by_files", a.lifetimes.by_files) + Describe("by_bytes", a.lifetimes.by_bytes);
  return out;
}

// Serial (in memory), 4-thread parallel (a v3 file cut into small blocks)
// and rolling (hourly snapshots) analysis must all `describe` as `golden`.
void ExpectGolden(const Trace& trace, std::string (*describe)(const TraceAnalysis&),
                  const std::string& golden) {
  EXPECT_EQ(describe(AnalyzeForTest(trace)), golden) << "serial";

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
  EXPECT_EQ(describe(parallel.value()), golden) << "parallel";

  RollingAnalyzer rolling(Duration::Hours(1));
  for (const TraceRecord& r : trace.records()) {
    rolling.Process(r);
  }
  EXPECT_EQ(describe(rolling.Finish()), golden) << "rolling";
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

constexpr char kSectionsA5[] = R"(overall duration_us=107999510000 records=290988 by_type=0,83952,26964,110907,37006,9020,32,23107, bytes=414512110/330258554/84253556
 inter_event n=147913 digest=55129709d534b174
sequentiality 71812 53988 67950 317667846 199127217 266977798
sequentiality 38290 26544 37867 84235117 74471635 78358645
sequentiality 805 0 246 12590744 0 8856
runs
 by_runs n=121125 digest=f54b16ecc8d018f9
 by_bytes n=121125 digest=ed0b3592931d3ccd
file_sizes
 by_accesses n=110907 digest=61d1820fe67f9745
 by_bytes n=109312 digest=41ad27b14d48c2f0
open_times
 seconds n=110907 digest=c145c9083c521039
lifetimes new_files=26964 observed_deaths=25340
 by_files n=25340 digest=bbb40ada04c77fa5
 by_bytes n=23864 digest=ff061bd79d2263fd
)";

constexpr char kSectionsE3[] = R"(overall duration_us=10798720000 records=20412 by_type=0,5662,2211,7870,2542,629,0,1498, bytes=26523964/20186490/6337474
 inter_event n=10412 digest=9f2087fc528a5771
sequentiality 4784 3574 4463 19512966 12784044 15866502
sequentiality 3039 2175 3006 6337474 5583415 5883362
sequentiality 47 0 21 673524 0 756
runs
 by_runs n=8595 digest=45ed3f59c0cbafba
 by_bytes n=8595 digest=f55492e4c96ffe59
file_sizes
 by_accesses n=7870 digest=a98253113c91863f
 by_bytes n=7766 digest=f4ff5b7f93c788e2
open_times
 seconds n=7870 digest=2d7529df3d79c8b2
lifetimes new_files=2211 observed_deaths=1979
 by_files n=1979 digest=76c1680677b7a4d2
 by_bytes n=1875 digest=ced9734d0415e6a4
)";

constexpr char kSectionsC4[] = R"(overall duration_us=43198300000 records=94915 by_type=0,24466,9941,34406,15853,3174,3,7072, bytes=400557459/218801887/181755572
 inter_event n=50259 digest=e5c91e44bc7270cf
sequentiality 21551 15733 19102 216363379 125946442 143433114
sequentiality 12682 9809 12551 181755572 179100681 179942717
sequentiality 173 0 67 2438508 0 2412
runs
 by_runs n=42416 digest=03e43c5240b1cf99
 by_bytes n=42416 digest=631d8d81c395da11
file_sizes
 by_accesses n=34406 digest=71c226a09a75347f
 by_bytes n=34116 digest=e0bce9aa7afa823c
open_times
 seconds n=34406 digest=48dea9ff28ee0c28
lifetimes new_files=9941 observed_deaths=9264
 by_files n=9264 digest=13eb1e5f263fafec
 by_bytes n=8977 digest=86ebef36bb7f11cf
)";

constexpr char kSectionsFleet[] = R"(overall duration_us=14399270000 records=55881 by_type=0,15097,6735,21828,7230,1545,2,3444, bytes=66449159/51343483/15105676
 inter_event n=29058 digest=2ebcbb1da5ecd96d
sequentiality 12456 9190 11480 49512891 31591331 41242043
sequentiality 9237 6682 9186 15095957 13634669 14359302
sequentiality 135 0 49 1830628 0 1764
runs
 by_runs n=23912 digest=8785eeb892fcab5d
 by_bytes n=23912 digest=f13a6bddc0b824b1
file_sizes
 by_accesses n=21828 digest=ef10667a4f6e65d3
 by_bytes n=21608 digest=d81219c981b4bf5f
open_times
 seconds n=21828 digest=e95230c7235e2b5e
lifetimes new_files=6735 observed_deaths=6141
 by_files n=6141 digest=653f628a6da810f4
 by_bytes n=5921 digest=9589d4397f1f381d
)";

Trace Machine(const MachineProfile& profile, Duration duration) {
  GeneratorOptions options;
  options.duration = duration;
  options.seed = 1985;
  return GenerateTraceOnly(profile, options);
}

// 30 hours: the per-day statistics see two simulated days.
Trace A5() { return Machine(ProfileA5(), Duration::Hours(30)); }
Trace E3() { return Machine(ProfileE3(), Duration::Hours(3)); }
Trace C4() { return Machine(ProfileC4(), Duration::Hours(12)); }

void FleetTwoA5(Trace* trace) {
  auto fleet = ParseFleetSpec("2xA5", /*users=*/120);
  ASSERT_TRUE(fleet.ok()) << fleet.status().message();
  FleetGeneratorOptions options;
  options.base.duration = Duration::Hours(4);
  options.base.seed = 1985;
  options.shards_per_machine = 2;
  options.threads = 2;
  auto generated = GenerateFleetTrace(fleet.value(), options);
  ASSERT_TRUE(generated.ok()) << generated.status().message();
  *trace = std::move(generated.value().trace);
}

TEST(ActivityGolden, A5) { ExpectGolden(A5(), DescribeActivity, kGoldenA5); }
TEST(ActivityGolden, E3) { ExpectGolden(E3(), DescribeActivity, kGoldenE3); }
TEST(ActivityGolden, C4) { ExpectGolden(C4(), DescribeActivity, kGoldenC4); }

TEST(ActivityGolden, FleetTwoA5) {
  Trace trace;
  ASSERT_NO_FATAL_FAILURE(FleetTwoA5(&trace));
  ExpectGolden(trace, DescribeActivity, kGoldenFleet);
}

TEST(SectionGolden, A5) { ExpectGolden(A5(), DescribeSections, kSectionsA5); }
TEST(SectionGolden, E3) { ExpectGolden(E3(), DescribeSections, kSectionsE3); }
TEST(SectionGolden, C4) { ExpectGolden(C4(), DescribeSections, kSectionsC4); }

TEST(SectionGolden, FleetTwoA5) {
  Trace trace;
  ASSERT_NO_FATAL_FAILURE(FleetTwoA5(&trace));
  ExpectGolden(trace, DescribeSections, kSectionsFleet);
}

}  // namespace
}  // namespace bsdtrace
