// perfbench: the bsdtrace pipeline benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --work-dir <dir> [--trace-out <file.json>]
//
// Drives the library through its public entry points only.  Each workload
// generates its input from --seed during set-up, runs one memory pass (peak
// resident set per stage), then repeats the job until --seconds have passed
// (at least kMinPasses times), and reports medians.  Every correctness check
// counts as one attempted operation; any failure makes the exit code
// non-zero.
//
// --trace 0 prints the end-to-end metrics (perfbench/README.md has the map
// from each metric to the layer it depends on).  The gated rates are in CPU
// time over that of a reference job run just before each sample.  --trace 1 alternates traced
// and untraced passes of the same job for half of --seconds, then runs a
// traced probe of each layer call on the workload's input kProbeRepeats
// times, and prints the per-layer metrics (medians); its spans are written
// to --trace-out as Chrome-trace JSON at exit.
//
// The last line of standard output is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {name: {value, unit}}}

#include <malloc.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "live.h"
#include "spans.h"
#include "src/analysis/analyzer.h"
#include "src/analysis/parallel_analyzer.h"
#include "src/cache/sweep.h"
#include "src/trace/reconstruct.h"
#include "src/trace/replay_log.h"
#include "src/trace/trace_io.h"
#include "src/trace/trace_source.h"
#include "src/trace/validate.h"
#include "src/workload/fleet.h"
#include "src/workload/sharded_generator.h"

namespace perfbench {
namespace {

using namespace bsdtrace;

// Load comes from this one process; the machine the benchmark was written
// for has 4 cores.
constexpr unsigned kThreads = 4;
constexpr int kShardsPerMachine = 2;
constexpr int kMinPasses = 3;
// Scans are short, so each set-up repeats them.
constexpr int kScansPerSetup = 3;
// The traced run repeats every layer probe and reports the median.
constexpr int kProbeRepeats = 3;

// Open-loop rates (records/s) of the live ladder, climbed until one misses
// the limit.  They run past the 350k-800k records/s the closed-loop drain
// reaches on the 4-core machine, so the top rung is not the answer.
constexpr double kLiveRates[] = {200e3, 300e3, 400e3, 500e3, 600e3, 700e3, 800e3, 900e3, 1000e3};
// The rate the lag percentiles are measured at: half the slowest drain.
constexpr double kReferenceRate = 200e3;
// A rate meets the limit when the p90 snapshot lag and the producer's final
// lateness both stay at or under it and nothing is dropped.
constexpr double kLagLimitMs = 100.0;

// The closed-loop drain streams this prefix of the workload's trace, so
// that it takes about as long as the other stages of a pass.
constexpr size_t kDrainRecords = 200000;

// Run ids of the spans that are not a job pass's.
constexpr int kSetupRun = 10000;
constexpr int kProbeRun = 20000;

struct WorkloadSpec {
  const char* name;
  const char* fleet;  // fleet spec, as `trace_stream generate --profile=`
  int users;          // population per machine
  double hours;       // simulated trace length
  int version;        // trace file format the workload writes and reads
};

constexpr WorkloadSpec kWorkloads[] = {
    {"fleet-v3", "fleet:4xA5+2xE3+2xC4", 60, 12.0, 3},
    {"fleet-v4", "fleet:4xA5+2xE3+2xC4", 60, 12.0, 4},
    {"sweep-a5", "fleet:2xA5", 150, 12.0, 3},
    {"live-serve", "fleet:2xA5", 100, 12.0, 3},
};

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string work_dir;
  std::string trace_out;
};

// ---------------------------------------------------------------------------
// Small utilities.

double Seconds(int64_t start_ns) { return static_cast<double>(NowNs() - start_ns) / 1e9; }

// CPU time of every thread of this process.  The host this benchmark was
// written on takes its vCPUs away for minutes at a time (steal time), which
// stretches wall times by up to 2x; CPU time leaves those periods out.
double CpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

// The CPU time of the reference job: a fixed amount of work that uses no
// bsdtrace code (sort 512k pseudo-random 64-bit keys, then count a quarter of
// them by their top bits in a hash map).  The speed of that host also drifts
// by up to 30% over minutes, for the library and this job alike, so a stage's
// CPU time over the reference job's, measured just before it, leaves most of
// the drift out.
volatile uint64_t reference_sink;  // keeps the reference job's result observable

double ReferenceCpuSeconds() {
  std::vector<uint64_t> keys(1 << 19);
  uint64_t x = 0x9E3779B97F4A7C15ull;
  for (uint64_t& k : keys) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    k = x;
  }
  const double start = CpuSeconds();
  std::sort(keys.begin(), keys.end());
  std::unordered_map<uint64_t, uint32_t> counts;
  for (size_t i = 0; i < keys.size(); i += 4) {
    ++counts[keys[i] >> 44];
  }
  const double seconds = CpuSeconds() - start;
  reference_sink = counts.size() + keys.front();
  return seconds;
}

// Linear interpolation between closest ranks; `q` in [0, 1].
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

// Peak resident set (VmHWM) in MB, or 0 where /proc is unavailable.
double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) {
    return 0.0;
  }
  long kb = 0;
  char line[256];
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %ld", &kb) == 1) {
      break;
    }
  }
  std::fclose(f);
  return static_cast<double>(kb) / 1024.0;
}

// Re-arms VmHWM at the current resident set, so the next reading is the
// peak of the phase that follows (the bench_fleet_generate method).
void RearmPeakRss() {
  malloc_trim(0);
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

uint64_t FileBytes(const std::string& path) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<uint64_t>(size);
}

class Checks {
 public:
  void Expect(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      std::fprintf(stderr, "FAIL: %s\n", what.c_str());
    }
  }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintMetric(const Metric& m) {
  std::printf("  %-32s %16.6f  %s\n", m.name.c_str(), m.value, m.unit.c_str());
}

class CountingSink : public TraceSink {
 public:
  void Append(const TraceRecord&) override { ++records_; }
  uint64_t records() const { return records_; }

 private:
  uint64_t records_ = 0;
};

// ---------------------------------------------------------------------------
// Calls into the layers, each timed and spanned from outside.

struct Bench {
  Args args;
  const WorkloadSpec* spec = nullptr;
  FleetProfile fleet;
  Checks checks;
  std::string dir;
  // The last pass's results, checked once after the passes (a bit-identity
  // check costs about a quarter of a fleet pass).
  StatusOr<TraceAnalysis> serial = Status::Error("not run");
  StatusOr<TraceAnalysis> parallel = Status::Error("not run");
  LiveResult live_drain;

  FleetGeneratorOptions GenOptions() const {
    FleetGeneratorOptions options;
    options.base.duration = Duration::Hours(spec->hours);
    options.base.seed = args.seed;
    options.shards_per_machine = kShardsPerMachine;
    options.threads = kThreads;
    options.spill_dir = dir + "/spill";
    options.file_options = TraceWriterOptions{.version = spec->version};
    return options;
  }

  std::string Path(const std::string& name) const { return dir + "/" + name; }
};

struct GenStats {
  double seconds = 0.0;
  uint64_t records = 0;
  uint64_t bytes = 0;
};

GenStats GenerateFile(Bench& b, const std::string& path, const SpanCtx& at) {
  ScopedSpan span(*at.log, "workload", "workload.generate_to_file", at.parent, at.run);
  const int64_t start = NowNs();
  const StatusOr<ShardedStreamStats> stats =
      GenerateFleetToFile(b.fleet, b.GenOptions(), path);
  GenStats out;
  out.seconds = Seconds(start);
  b.checks.Expect(stats.ok(), "generate " + path +
                                  (stats.ok() ? std::string() : ": " + stats.status().message()));
  if (stats.ok()) {
    out.records = stats.value().records_streamed;
  }
  out.bytes = FileBytes(path);
  return out;
}

// The `trace_stream info` path: every record decoded, every block's CRC
// verified, the footer index cross-checked.
double ScanFile(Bench& b, const std::string& path, uint64_t expected_records, const SpanCtx& at,
                uint64_t* blocks_verified = nullptr) {
  ScopedSpan span(*at.log, "trace", "trace.scan", at.parent, at.run);
  const int64_t start = NowNs();
  const TraceFileCheck check = CheckTraceFile(path);
  const double seconds = Seconds(start);
  b.checks.Expect(check.ok() && check.records == expected_records && check.records > 0,
                  "scan " + path + ": " + std::to_string(check.records) + " records, " +
                      std::to_string(expected_records) + " generated " + check.status.message());
  b.checks.Expect(check.has_index && check.blocks_verified == check.index_entries &&
                      check.blocks_verified > 0,
                  "scan " + path + ": " + std::to_string(check.blocks_verified) + " of " +
                      std::to_string(check.index_entries) + " blocks verified");
  if (blocks_verified != nullptr) {
    *blocks_verified = check.blocks_verified;
  }
  return seconds;
}

Trace LoadFile(Bench& b, const std::string& path, uint64_t expected_records, const SpanCtx& at) {
  ScopedSpan span(*at.log, "trace", "trace.load", at.parent, at.run);
  StatusOr<Trace> loaded = LoadTrace(path);
  b.checks.Expect(loaded.ok() && loaded.value().size() == expected_records, "load " + path);
  return loaded.ok() ? std::move(loaded).value() : Trace();
}

StatusOr<TraceAnalysis> AnalyzeFile(Bench& b, const std::string& path, unsigned threads,
                                    bool check_bands, const SpanCtx& at,
                                    double* seconds = nullptr) {
  ScopedSpan span(*at.log, "analysis",
                  threads == 1 ? "analysis.analyze_serial" : "analysis.analyze_parallel",
                  at.parent, at.run);
  AnalyzeOptions options;
  options.path = path;
  options.threads = threads;
  options.check_bands = check_bands;
  const int64_t start = NowNs();
  StatusOr<TraceAnalysis> result = Analyze(options);
  if (seconds != nullptr) {
    *seconds = Seconds(start);
  }
  const std::string error = result.ok() ? std::string() : ": " + result.status().message();
  b.checks.Expect(result.ok(), "analyze " + path + error);
  return result;
}

// The reference job before a sample is the benchmark's own work, with a span
// of its own.
double Reference(const SpanCtx& at) {
  ScopedSpan span(*at.log, "bench", "bench.reference", at.parent, at.run);
  return ReferenceCpuSeconds();
}

// ---------------------------------------------------------------------------
// Set-up.

// Every sample is kept as wall time and as process CPU time (`*_cpu_s`).
struct SetupResult {
  std::vector<double> setup_s;
  std::vector<double> setup_cpu_s;
  std::vector<double> generate_s;
  std::vector<double> generate_cpu_s;
  std::vector<double> generate_ref_s;
  std::vector<double> scan_s;
  std::vector<double> scan_cpu_s;
  std::vector<double> scan_ref_s;
  uint64_t bytes = 0;
  Trace trace;  // the loaded input
};

// One set-up, its samples pooled into `r`: generate the workload's trace
// file, scan it, load it.  The trace is replaced; the seed makes every
// set-up's trace the same.
void SetupOnce(Bench& b, SetupResult* r, SpanLog& log) {
  const int run = kSetupRun + static_cast<int>(r->setup_s.size());
  ScopedSpan span(log, "bench", "setup", -1, run);
  const SpanCtx at{&log, span.id(), run};
  r->generate_ref_s.push_back(Reference(at));
  const int64_t start = NowNs();
  const double start_cpu = CpuSeconds();
  const std::string path = b.Path("input.trc");
  const GenStats gen = GenerateFile(b, path, at);
  r->generate_s.push_back(gen.seconds);
  r->generate_cpu_s.push_back(CpuSeconds() - start_cpu);
  for (int i = 0; i < kScansPerSetup; ++i) {
    r->scan_ref_s.push_back(Reference(at));
    const double cpu = CpuSeconds();
    r->scan_s.push_back(ScanFile(b, path, gen.records, at));
    r->scan_cpu_s.push_back(CpuSeconds() - cpu);
  }
  r->bytes = gen.bytes;
  r->trace = LoadFile(b, path, gen.records, at);
  r->setup_s.push_back(Seconds(start));
  r->setup_cpu_s.push_back(CpuSeconds() - start_cpu);
}

// ---------------------------------------------------------------------------
// One pass of the timed job.

struct Pass {
  bool rss = false;    // re-arm and read VmHWM around every stage
  double job_s = 0.0;  // sum of the stage times
  double peak_rss_mb = 0.0;
  std::map<std::string, std::vector<double>> stage_s;      // stage wall times
  std::map<std::string, std::vector<double>> stage_cpu_s;  // stage CPU times
  std::map<std::string, std::vector<double>> stage_ref_s;  // reference job before each
  std::map<std::string, double> stage_rss_mb;          // stage peaks
  uint64_t records = 0;
};

// Times one stage and, in a memory pass, its resident-set peak.  The re-arm
// is the benchmark's own work: it gets a span, and stays out of the stage
// time.
template <typename F>
void Stage(Pass* pass, const SpanCtx& at, const std::string& name, F&& body) {
  if (pass->rss) {
    ScopedSpan span(*at.log, "bench", "bench.rearm_peak_rss", at.parent, at.run);
    RearmPeakRss();
  }
  pass->stage_ref_s[name].push_back(Reference(at));
  const int64_t start = NowNs();
  const double start_cpu = CpuSeconds();
  body();
  pass->stage_s[name].push_back(Seconds(start));
  pass->stage_cpu_s[name].push_back(CpuSeconds() - start_cpu);
  if (pass->rss) {
    pass->stage_rss_mb[name] = std::max(pass->stage_rss_mb[name], PeakRssMb());
  }
}

// Each sweep includes its replay-log build, as `trace_stream analyze --sweep`.
ReplayLog BuildLog(const Trace& trace, const SpanCtx& at) {
  ScopedSpan span(*at.log, "trace", "trace.replay_log_build", at.parent, at.run);
  return ReplayLog::Build(trace);
}

void PlannedSweepStage(Bench& b, const Trace& trace, const SpanCtx& at, Pass* pass,
                       const std::string& name, const std::vector<CacheConfig>& configs) {
  Stage(pass, at, name, [&] {
    const ReplayLog log = BuildLog(trace, at);
    ScopedSpan span(*at.log, "cache", "cache.planned_sweep", at.parent, at.run);
    const PlannedSweep sweep = RunPlannedSweep(log, configs, {}, kThreads);
    b.checks.Expect(sweep.parity, name + " planned sweep parity");
  });
}

// sweep-a5's Fig. 6 and hierarchy sweeps.  Together they take about as long
// as the rest of its pass, so they run once per run (after the timed passes)
// and in the memory pass, and are printed but not gated.
void ExtraSweeps(Bench& b, const Trace& trace, const SpanCtx& at, Pass* pass) {
  PlannedSweepStage(b, trace, at, pass, "sweep_fig6", Fig6Configs());
  Stage(pass, at, "sweep_hier", [&] {
    const ReplayLog log = BuildLog(trace, at);
    ScopedSpan span(*at.log, "cache", "cache.hier_sweep", at.parent, at.run);
    const HierarchySweepResult sweep = RunHierarchySweep(log, HierarchySweepConfigs(), kThreads);
    b.checks.Expect(sweep.parity, "hierarchy sweep parity");
  });
}

// Every workload analyzes its file serially and at 4 threads, runs the
// Fig. 5 sweep and drains its trace through the live service, so every
// gated metric is measured on every workload.  The workloads differ in their
// input and in the stage that dominates: generation and analysis (fleet-v3),
// the codec (fleet-v4), the replay log and cache engines (sweep-a5), or the
// live service (live-serve).
Pass RunJob(Bench& b, const Trace& trace, const SpanCtx& at, bool rss) {
  Pass pass;
  pass.rss = rss;
  const std::string path = b.Path("input.trc");
  pass.records = trace.size();

  Stage(&pass, at, "analyze_serial", [&] { b.serial = AnalyzeFile(b, path, 1, false, at); });
  Stage(&pass, at, "analyze_parallel",
        [&] { b.parallel = AnalyzeFile(b, path, kThreads, false, at); });
  PlannedSweepStage(b, trace, at, &pass, "sweep_fig5", Fig5Configs());
  if (rss && b.spec->name == std::string("sweep-a5")) {
    ExtraSweeps(b, trace, at, &pass);
  }
  // A prefix of the trace through the service as fast as the blocking rings
  // allow.
  Stage(&pass, at, "live_drain",
        [&] { b.live_drain = RunLive(trace, kDrainRecords, 0.0, at); });
  return pass;
}

// Batch analysis of the first `n` records of `trace`.
StatusOr<TraceAnalysis> AnalyzePrefix(const Trace& trace, size_t n) {
  Trace prefix(trace.header());
  prefix.Reserve(n);
  for (size_t i = 0; i < n; ++i) {
    prefix.Append(trace.records()[i]);
  }
  AnalyzeOptions options;
  options.trace = &prefix;
  return Analyze(options);
}

// Each live analyzer's final analysis must equal the batch analysis of the
// same records, with nothing dropped.
void CheckLive(Bench& b, const LiveResult& live, const TraceAnalysis& batch, uint64_t records,
               const std::string& what) {
  for (size_t i = 0; i < live.finals.size(); ++i) {
    b.checks.Expect(live.finals[i].ok() && AnalysisBitIdentical(live.finals[i].value(), batch),
                    what + ": live analyzer " + std::to_string(i) + " matches batch analysis");
  }
  b.checks.Expect(live.dropped == 0 && live.produced == records * live.finals.size(),
                  what + ": lossless rings (" + std::to_string(live.dropped) + " dropped)");
}

// live-serve: the open-loop ladder, climbed until a rate misses the limit.
std::vector<Metric> LiveLadder(Bench& b, const Trace& trace, const TraceAnalysis& batch) {
  SpanLog off(false);
  double max_rate = 0.0;
  std::vector<double> ref_lag_ms;
  for (const double rate : kLiveRates) {
    const LiveResult live = RunLive(trace, trace.size(), rate, SpanCtx{&off, -1, 0});
    if (rate == kReferenceRate) {
      ref_lag_ms = live.lag_ms;
    }
    CheckLive(b, live, batch, trace.size(), "open loop at " + std::to_string(rate));
    const double p90 = Quantile(live.lag_ms, 0.9);
    const bool meets =
        live.dropped == 0 && p90 <= kLagLimitMs && live.late_final_ms <= kLagLimitMs;
    std::printf("  open loop %8.0f rec/s: lag p50 %8.2f ms p90 %8.2f ms (%zu samples), "
                "producer late max %8.2f final %8.2f ms, %s\n",
                rate, Median(live.lag_ms), p90, live.lag_ms.size(), live.late_max_ms,
                live.late_final_ms, meets ? "meets limit" : "misses limit");
    if (!meets) {
      break;
    }
    max_rate = rate;
  }
  b.checks.Expect(ref_lag_ms.size() >= 100,
                  "at least 10 lag samples beyond p90 (" + std::to_string(ref_lag_ms.size()) +
                      " samples)");
  return {
      {"live_max_rate_rec_per_s", max_rate, "rec/s"},
      {"snapshot_lag_p50_ms", Median(ref_lag_ms), "ms"},
      {"snapshot_lag_p90_ms", Quantile(ref_lag_ms, 0.9), "ms"},
      {"snapshot_lag_samples", static_cast<double>(ref_lag_ms.size()), "count"},
      {"live_lag_limit_ms", kLagLimitMs, "ms"},
      {"live_reference_rate_rec_per_s", kReferenceRate, "rec/s"},
  };
}

// ---------------------------------------------------------------------------
// The traced run's layer probes: one call into each layer on the workload's
// input, timed and spanned from outside.

// The live probe streams this much of the trace at the reference rate.
constexpr double kLiveProbeSeconds = 1.0;

std::vector<Metric> LayerProbes(Bench& b, const Trace& trace, SpanLog& log, int run) {
  ScopedSpan root(log, "bench", "probes", -1, run);
  const SpanCtx at{&log, root.id(), run};
  std::vector<Metric> m;

  {  // workload: the generator alone, into a counting sink (no encoding).
    CountingSink sink;
    ScopedSpan span(log, "workload", "workload.generate_to_sink", at.parent, run);
    const int64_t start = NowNs();
    const StatusOr<ShardedStreamStats> stats =
        GenerateFleetTo(b.fleet, b.GenOptions(), sink);
    const double seconds = Seconds(start);
    b.checks.Expect(stats.ok() && sink.records() == trace.size(),
                    "generation into a counting sink yields the workload's records");
    m.push_back({"workload.generate_s", seconds, "s"});
    m.push_back({"workload.records", static_cast<double>(sink.records()), "count"});
    m.push_back({"workload.spill_bytes",
                 stats.ok() ? static_cast<double>(stats.value().spill_bytes_written) : 0.0, "B"});
    m.push_back({"workload.tasks_executed",
                 stats.ok() ? static_cast<double>(stats.value().tasks_executed) : 0.0, "count"});
  }

  // trace: SaveTrace of the same in-memory trace at v3 and v4, then the
  // info-path scan of each file.
  std::map<int, std::string> paths;
  for (const int version : {3, 4}) {
    const std::string v = "v" + std::to_string(version);
    paths[version] = b.Path("probe." + v + ".trc");
    double seconds = 0.0;
    {
      ScopedSpan span(log, "trace", "trace.encode_write_" + v, at.parent, run);
      const int64_t start = NowNs();
      b.checks.Expect(SaveTrace(paths[version], trace, TraceWriterOptions{.version = version}).ok(),
                      "SaveTrace " + v);
      seconds = Seconds(start);
    }
    uint64_t blocks = 0;
    const double scan_s = ScanFile(b, paths[version], trace.size(), at, &blocks);
    m.push_back({"trace.encode_write_" + v + "_s", seconds, "s"});
    m.push_back({"trace.bytes_written_" + v, static_cast<double>(FileBytes(paths[version])), "B"});
    m.push_back({"trace.scan_" + v + "_s", scan_s, "s"});
    m.push_back({"trace.blocks_verified_" + v, static_cast<double>(blocks), "count"});
  }
  {
    ReconstructionSink null_sink;
    ScopedSpan span(log, "trace", "trace.reconstruct", at.parent, run);
    const int64_t start = NowNs();
    Reconstruct(trace, &null_sink);
    m.push_back({"trace.reconstruct_s", Seconds(start), "s"});
  }
  ReplayLog replay;
  {
    ScopedSpan span(log, "trace", "trace.replay_log_build", at.parent, run);
    const int64_t start = NowNs();
    replay = ReplayLog::Build(trace);
    m.push_back({"trace.replay_log_build_s", Seconds(start), "s"});
    m.push_back({"trace.replay_log_events", static_cast<double>(replay.event_count()), "count"});
  }

  // analysis: serial and parallel over the workload's own format; the other
  // format, with the Table I bands, as the v3/v4 identity check.
  const int own = b.spec->version;
  double serial_s = 0.0, parallel_s = 0.0, other_s = 0.0;
  StatusOr<TraceAnalysis> serial = AnalyzeFile(b, paths[own], 1, false, at, &serial_s);
  StatusOr<TraceAnalysis> parallel = AnalyzeFile(b, paths[own], kThreads, false, at, &parallel_s);
  StatusOr<TraceAnalysis> other = AnalyzeFile(b, paths[7 - own], kThreads, true, at, &other_s);
  const bool all_ok = serial.ok() && parallel.ok() && other.ok();
  b.checks.Expect(all_ok && AnalysisBitIdentical(serial.value(), parallel.value()) &&
                      AnalysisBitIdentical(serial.value(), other.value()),
                  "serial, parallel, v3 and v4 analyses are bit-identical");
  b.checks.Expect(other.ok() && !other.value().band_checks.empty() && other.value().bands_ok(),
                  "Table I activity bands hold");
  m.push_back({"analysis.serial_s", serial_s, "s"});
  m.push_back({"analysis.parallel_s", parallel_s, "s"});
  m.push_back({"analysis.segments_used",
               parallel.ok() ? static_cast<double>(parallel.value().segments_used) : 0.0,
               "count"});
  m.push_back({"analysis.threads_used",
               parallel.ok() ? static_cast<double>(parallel.value().threads_used) : 0.0, "count"});
  m.push_back({"analysis.parallel_speedup", serial_s / parallel_s, "x"});

  {  // The live service at the reference rate, over a prefix of the trace.
    const size_t n =
        std::min(trace.size(), static_cast<size_t>(kReferenceRate * kLiveProbeSeconds));
    const StatusOr<TraceAnalysis> batch = AnalyzePrefix(trace, n);
    const LiveResult live = RunLive(trace, n, kReferenceRate, at);
    b.checks.Expect(batch.ok(), "batch analysis of the live probe's records");
    if (batch.ok()) {
      CheckLive(b, live, batch.value(), n, "live probe");
    }
    m.push_back({"trace.ring_push_wait_s", live.push_wait_s, "s"});
    m.push_back({"trace.ring_max_occupancy", static_cast<double>(live.max_occupancy), "count"});
    m.push_back({"trace.ring_dropped", static_cast<double>(live.dropped), "count"});
    m.push_back({"live.producer_late_max_ms", live.late_max_ms, "ms"});
    m.push_back({"analysis.live_busy_share", live.busy_share, "share"});
  }

  // cache: the Fig. 5 planned sweep and the hierarchy sweep on the log built
  // above, and one single-level simulation.
  {
    ScopedSpan span(log, "cache", "cache.planned_sweep", at.parent, run);
    const int64_t start = NowNs();
    const PlannedSweep sweep = RunPlannedSweep(replay, Fig5Configs(), {}, kThreads);
    m.push_back({"cache.planned_sweep_s", Seconds(start), "s"});
    b.checks.Expect(sweep.parity, "probe planned sweep parity");
    m.push_back({"cache.stack_passes", static_cast<double>(sweep.stack_passes), "count"});
    m.push_back({"cache.fused_replays", static_cast<double>(sweep.fused_replays), "count"});
    m.push_back({"cache.replay_fallbacks", static_cast<double>(sweep.replay_fallbacks), "count"});
  }
  {
    ScopedSpan span(log, "cache", "cache.hier_sweep", at.parent, run);
    const int64_t start = NowNs();
    const HierarchySweepResult sweep = RunHierarchySweep(replay, HierarchySweepConfigs(), kThreads);
    m.push_back({"cache.hier_sweep_s", Seconds(start), "s"});
    b.checks.Expect(sweep.parity, "probe hierarchy sweep parity");
    m.push_back(
        {"cache.hierarchy_replays", static_cast<double>(sweep.hierarchy_replays), "count"});
  }
  {
    CacheConfig config;
    config.size_bytes = 4 << 20;
    config.block_size = 4096;
    config.policy = WritePolicy::kDelayedWrite;
    ScopedSpan span(log, "cache", "cache.simulate", at.parent, run);
    const int64_t start = NowNs();
    const CacheMetrics metrics = SimulateCache(replay, config);
    const double seconds = Seconds(start);
    b.checks.Expect(metrics.logical_accesses > 0, "single-level simulation saw block accesses");
    m.push_back({"cache.replay_events_per_s",
                 static_cast<double>(replay.data_event_count()) / seconds, "1/s"});
  }
  return m;
}

// The probes kProbeRepeats times; each metric is its median over the repeats.
std::vector<Metric> MedianProbes(Bench& b, const Trace& trace, SpanLog& log) {
  std::vector<Metric> first;
  std::map<std::string, std::vector<double>> samples;
  for (int i = 0; i < kProbeRepeats; ++i) {
    std::vector<Metric> m = LayerProbes(b, trace, log, kProbeRun + i);
    for (const Metric& metric : m) {
      samples[metric.name].push_back(metric.value);
    }
    if (i == 0) {
      first = std::move(m);
    }
  }
  for (Metric& metric : first) {
    metric.value = Median(samples[metric.name]);
  }
  return first;
}

// Each layer's self time in one traced pass and the set-up before it (its
// spans minus the parts their child spans cover), the median over the traced
// passes.  The set-up before pass `run` carries run id kSetupRun + run.
std::vector<Metric> PassSelfTimes(const std::vector<Span>& all_spans,
                                  const std::vector<int>& traced_runs) {
  std::map<std::string, std::vector<double>> per_pass;
  for (const int run : traced_runs) {
    std::vector<Span> spans = all_spans;
    std::erase_if(spans,
                  [&](const Span& s) { return s.run_id != run && s.run_id != kSetupRun + run; });
    std::map<std::string, double> self = SelfSecondsByLayer(spans);
    for (const std::string layer : {"workload", "trace", "analysis", "cache"}) {
      per_pass[layer].push_back(self[layer]);
    }
  }
  std::vector<Metric> m;
  for (const std::string layer : {"workload", "trace", "analysis", "cache"}) {
    m.push_back({layer + ".self_s", Median(per_pass[layer]), "s"});
  }
  return m;
}

// ---------------------------------------------------------------------------
// Output.

void PrintJson(const Bench& b, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              b.checks.failed() == 0 ? "true" : "false",
              static_cast<unsigned long long>(b.checks.attempted()),
              static_cast<unsigned long long>(b.checks.failed()));
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}", i > 0 ? ", " : "",
                metrics[i].name.c_str(), v, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

// Every sample of a stage, pooled across passes: its wall times, CPU times
// or reference jobs.
std::vector<double> Pooled(const std::vector<Pass>& passes,
                           std::map<std::string, std::vector<double>> Pass::*samples,
                           const std::string& stage) {
  std::vector<double> pooled;
  for (const Pass& p : passes) {
    const std::vector<double>& v = (p.*samples).at(stage);
    pooled.insert(pooled.end(), v.begin(), v.end());
  }
  return pooled;
}

// The median over samples of `records` x (CPU time of the reference job run
// just before the sample) / (CPU time of the sample): how many records the
// stage handles in the CPU time the reference job takes at that moment.
double RecordsPerReference(double records, const std::vector<double>& cpu_s,
                           const std::vector<double>& ref_s) {
  std::vector<double> rates;
  for (size_t i = 0; i < cpu_s.size() && i < ref_s.size(); ++i) {
    rates.push_back(records * ref_s[i] / cpu_s[i]);
  }
  return Median(rates);
}

int Main(const Args& args) {
  Bench b;
  b.args = args;
  for (const WorkloadSpec& w : kWorkloads) {
    if (args.workload == w.name) {
      b.spec = &w;
    }
  }
  if (b.spec == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  StatusOr<FleetProfile> fleet = ParseFleetSpec(b.spec->fleet, b.spec->users);
  if (!fleet.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", fleet.status().message().c_str());
    return 2;
  }
  b.fleet = std::move(fleet).value();
  b.dir = args.work_dir;
  std::filesystem::remove_all(b.dir);
  std::filesystem::create_directories(b.dir + "/spill");

  const std::string name = b.spec->name;
  std::printf("perfbench %s: %s, %d users/machine, %.0f simulated hours, v%d, seed %llu, "
              "%.0f s, trace %d\n",
              name.c_str(), b.fleet.spec.c_str(), b.spec->users, b.spec->hours, b.spec->version,
              static_cast<unsigned long long>(args.seed), args.seconds, args.trace ? 1 : 0);

  SpanLog off(false);
  SpanLog on(true);
  SpanLog& setup_log = args.trace ? on : off;

  // -- Set-up ----------------------------------------------------------------
  // Every pass is preceded by a set-up, so the set-up samples (and with them
  // the generate and scan samples) spread over the whole run.
  SetupResult setup;
  SetupOnce(b, &setup, setup_log);
  const Trace& trace = setup.trace;

  auto run_pass = [&](SpanLog& log, int run, bool rss) {
    // The previous pass's results must not count toward this pass's peak.
    b.serial = b.parallel = Status::Error("not run");
    b.live_drain = LiveResult();
    ScopedSpan root(log, "bench", "pass", -1, run);
    const SpanCtx at{&log, root.id(), run};
    Pass pass = RunJob(b, trace, at, rss);
    // The job is its stages: re-arming VmHWM, the reference jobs and the
    // checks between them are the benchmark's own work.
    for (const auto& [stage, seconds] : pass.stage_s) {
      for (const double s : seconds) {
        pass.job_s += s;
      }
    }
    std::printf("  pass %2d: %.4f s (", run, pass.job_s);
    for (const auto& [stage, seconds] : pass.stage_s) {
      std::printf(" %s %.4f", stage.c_str(), Median(seconds));
    }
    std::printf(" )");
    if (rss) {
      std::printf(" peak");
      for (const auto& [stage, mb] : pass.stage_rss_mb) {
        std::printf(" %s %.1f", stage.c_str(), mb);
        pass.peak_rss_mb = std::max(pass.peak_rss_mb, mb);
      }
      std::printf(" MB");
    }
    std::printf("\n");
    return pass;
  };

  std::vector<Pass> passes;         // untraced
  std::vector<Pass> traced_passes;  // --trace 1 only
  std::vector<int> traced_runs;
  const int64_t measure_start = NowNs();

  // The traced run spends half its time on job passes and the rest on the
  // layer probes.
  const double pass_seconds = args.trace ? args.seconds / 2 : args.seconds;
  // The memory pass first: it re-arms VmHWM before every stage, so each
  // stage's peak is that of a process that has just set up, as a user's
  // would be.  Its times are discarded: it runs on cold caches, and the
  // re-arm hands the heap back to the kernel, so every stage pays its page
  // faults again.  The timed passes after it run on a warm heap.
  const Pass memory = run_pass(off, -1, true);
  for (int run = 0; static_cast<int>(passes.size()) < kMinPasses ||
                    Seconds(measure_start) < pass_seconds;
       ++run) {
    if (run > 0) {
      SetupOnce(b, &setup, setup_log);
    }
    // The traced run alternates traced and untraced passes of the same job,
    // so their difference is the tracing overhead.
    if (args.trace && run % 2 == 1) {
      traced_passes.push_back(run_pass(on, run, false));
      traced_runs.push_back(run);
    } else {
      passes.push_back(run_pass(off, run, false));
    }
  }

  // live-serve's open-loop ladder runs once per untraced run, after the
  // passes so that its services do not shape the heap the passes measure,
  // checked against the last pass's serial analysis of the same records.
  std::vector<Metric> live_metrics;
  if (name == "live-serve" && !args.trace && b.serial.ok()) {
    live_metrics = LiveLadder(b, trace, b.serial.value());
  }
  Pass extra;
  if (name == "sweep-a5") {
    ExtraSweeps(b, trace, SpanCtx{&off, -1, 0}, &extra);
  }

  const double records = static_cast<double>(passes.front().records);
  const double drained = std::min(records, static_cast<double>(kDrainRecords));
  auto wall = [&](const std::string& s) { return Median(Pooled(passes, &Pass::stage_s, s)); };
  auto per_ref = [&](const std::string& s, double n) {
    return RecordsPerReference(n, Pooled(passes, &Pass::stage_cpu_s, s),
                               Pooled(passes, &Pass::stage_ref_s, s));
  };
  const double generate_s = Median(setup.generate_s);
  const double bytes = static_cast<double>(setup.bytes);

  // Gated: rates in records per reference job, sizes per record, and the
  // set-up's CPU time.
  std::vector<Metric> gated = {
      {"setup_s", Median(setup.setup_cpu_s), "s"},
      {"generate_rec_per_ref",
       RecordsPerReference(records, setup.generate_cpu_s, setup.generate_ref_s), "rec/ref"},
      {"trace_bytes_per_rec", bytes / records, "B/rec"},
      {"scan_rec_per_ref", RecordsPerReference(records, setup.scan_cpu_s, setup.scan_ref_s),
       "rec/ref"},
      {"analyze_serial_rec_per_ref", per_ref("analyze_serial", records), "rec/ref"},
      {"analyze_parallel_rec_per_ref", per_ref("analyze_parallel", records), "rec/ref"},
      {"sweep_fig5_rec_per_ref", per_ref("sweep_fig5", records), "rec/ref"},
      {"live_drain_rec_per_ref", per_ref("live_drain", drained), "rec/ref"},
      {"peak_rss_bytes_per_rec", memory.peak_rss_mb * 1048576.0 / records, "B/rec"},
  };

  // -- Human-readable report: every end-to-end metric this workload measures,
  // in wall-clock time too --
  std::vector<Metric> report = gated;
  std::vector<double> all_ref = setup.generate_ref_s;
  all_ref.insert(all_ref.end(), setup.scan_ref_s.begin(), setup.scan_ref_s.end());
  for (const auto& [s, samples] : passes.front().stage_ref_s) {
    const std::vector<double> ref = Pooled(passes, &Pass::stage_ref_s, s);
    all_ref.insert(all_ref.end(), ref.begin(), ref.end());
  }
  const std::vector<Metric> wall_clock = {
      {"reference_cpu_s", Median(all_ref), "s"},
      {"setup_wall_s", Median(setup.setup_s), "s"},
      {"generate_rec_per_s", records / generate_s, "rec/s"},
      {"scan_rec_per_s", records / Median(setup.scan_s), "rec/s"},
      {"analyze_serial_rec_per_s", records / wall("analyze_serial"), "rec/s"},
      {"analyze_parallel_rec_per_s", records / wall("analyze_parallel"), "rec/s"},
      {"pipeline_s", generate_s + wall("analyze_parallel"), "s"},
      {"sweep_fig5_s", wall("sweep_fig5"), "s"},
      {"live_drain_rec_per_s", drained / wall("live_drain"), "rec/s"},
      {"peak_rss_mb", memory.peak_rss_mb, "MB"},
  };
  report.insert(report.end(), wall_clock.begin(), wall_clock.end());
  if (name == "sweep-a5") {
    report.push_back({"sweep_fig6_s", extra.stage_s.at("sweep_fig6").front(), "s"});
    report.push_back({"sweep_hier_s", extra.stage_s.at("sweep_hier").front(), "s"});
  }
  report.insert(report.end(), live_metrics.begin(), live_metrics.end());
  for (const auto& [s, mb] : memory.stage_rss_mb) {
    report.push_back({"peak_rss_mb." + s, mb, "MB"});
  }
  report.push_back({"records", records, "count"});
  report.push_back({"passes", static_cast<double>(passes.size()), "count"});

  std::vector<Metric> layer;
  if (args.trace) {
    std::vector<double> traced, untraced;
    for (const Pass& p : traced_passes) {
      traced.push_back(p.job_s);
    }
    for (const Pass& p : passes) {
      untraced.push_back(p.job_s);
    }
    // Job spans only: the traced set-ups and the probes carry other run ids.
    const double uncovered = UncoveredShare(on.spans(), "pass");

    layer = MedianProbes(b, trace, on);
    const std::vector<Metric> self = PassSelfTimes(on.spans(), traced_runs);
    layer.insert(layer.end(), self.begin(), self.end());
    layer.push_back({"trace.uncovered_share", uncovered, "share"});
    layer.push_back({"trace.span_overhead_s", Median(traced) - Median(untraced), "s"});
    if (!args.trace_out.empty() && !on.WriteChromeTrace(args.trace_out)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", args.trace_out.c_str());
    }
  }

  // The checks of the last pass: serial and parallel analyses agree, the
  // live drain matches them, the other format's analysis agrees too and the
  // Table I bands hold.  The traced run makes these checks in its probes.
  b.checks.Expect(b.serial.ok() && b.parallel.ok() &&
                      AnalysisBitIdentical(b.serial.value(), b.parallel.value()),
                  "serial and parallel analyses are bit-identical");
  {
    const size_t n = std::min(trace.size(), kDrainRecords);
    const StatusOr<TraceAnalysis> batch = AnalyzePrefix(trace, n);
    b.checks.Expect(batch.ok(), "batch analysis of the drained records");
    if (batch.ok()) {
      CheckLive(b, b.live_drain, batch.value(), n, "closed-loop drain");
    }
  }
  if (!args.trace) {
    const int other = b.spec->version == 4 ? 3 : 4;
    const std::string other_path = b.Path("other.trc");
    TraceFileSource source(b.Path("input.trc"));
    b.checks.Expect(SaveTrace(other_path, source, TraceWriterOptions{.version = other}).ok(),
                    "transcode to v" + std::to_string(other));
    StatusOr<TraceAnalysis> theirs =
        AnalyzeFile(b, other_path, kThreads, true, SpanCtx{&off, -1, 0});
    b.checks.Expect(theirs.ok() && b.serial.ok() &&
                        AnalysisBitIdentical(b.serial.value(), theirs.value()),
                    "v3 and v4 analyses are bit-identical");
    b.checks.Expect(theirs.ok() && !theirs.value().band_checks.empty() &&
                        theirs.value().bands_ok(),
                    "Table I activity bands hold");
  }

  report.push_back({"error_rate",
                    static_cast<double>(b.checks.failed()) /
                        static_cast<double>(std::max<uint64_t>(1, b.checks.attempted())),
                    "share"});
  std::printf("end-to-end (%s):\n", name.c_str());
  for (const Metric& m : report) {
    PrintMetric(m);
  }
  if (args.trace) {
    std::printf("per-layer (%s, job self times over %zu traced passes):\n", name.c_str(),
                traced_passes.size());
    for (const Metric& m : layer) {
      PrintMetric(m);
    }
  }
  std::filesystem::remove_all(b.dir);
  PrintJson(b, args.trace ? layer : gated);
  return b.checks.failed() == 0 ? 0 : 1;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  std::map<std::string, std::string> flags;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) {
      return false;
    }
    flags[argv[i] + 2] = argv[i + 1];
  }
  if (argc % 2 != 1 || !flags.count("workload") || !flags.count("seed") ||
      !flags.count("seconds") || !flags.count("trace") || !flags.count("work-dir")) {
    return false;
  }
  char* end = nullptr;
  args->workload = flags["workload"];
  args->seed = std::strtoull(flags["seed"].c_str(), &end, 10);
  if (*end != '\0') {
    return false;
  }
  args->seconds = std::strtod(flags["seconds"].c_str(), &end);
  if (*end != '\0' || !(args->seconds > 0)) {
    return false;
  }
  if (flags["trace"] != "0" && flags["trace"] != "1") {
    return false;
  }
  args->trace = flags["trace"] == "1";
  args->work_dir = flags["work-dir"];
  args->trace_out = flags.count("trace-out") ? flags["trace-out"] : "";
  return true;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <fleet-v3|fleet-v4|sweep-a5|live-serve> --seed <n> "
                 "--seconds <s> --trace <0|1> --work-dir <dir> [--trace-out <file.json>]\n");
    return 2;
  }
  return perfbench::Main(args);
}
