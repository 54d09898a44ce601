// Microbench for the segmented parallel analyzer: generates the standard
// trace straight to a v3 file (checksummed blocks + footer index), times the
// serial (one-segment) Analyze against the parallel Analyze engine at 2, 4, and 8
// threads, verifies every parallel result is bit-identical to the serial
// one, and emits one machine-readable JSON line plus a
// BENCH_micro_analyze.json file.  Exits non-zero if parity breaks.
//
// Defaults: the paper's Ucbarpa-class profile (A5) over 6 simulated hours.
// Override with BSDTRACE_HOURS.  The speedup is only meaningful on
// multi-core hardware, so `hw_threads` is part of the JSON record.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>

#include "src/analysis/analyzer.h"
#include "src/analysis/parallel_analyzer.h"
#include "src/trace/trace_source.h"
#include "src/workload/profile.h"
#include "src/workload/sharded_generator.h"

namespace bsdtrace {
namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

}  // namespace
}  // namespace bsdtrace

int main() {
  using namespace bsdtrace;
  double hours = 6.0;
  if (const char* env = std::getenv("BSDTRACE_HOURS")) {
    hours = std::max(0.01, std::atof(env));
  }
  const int hw_threads = static_cast<int>(std::thread::hardware_concurrency());

  ShardedGeneratorOptions options;
  options.base.duration = Duration::Hours(hours);
  options.base.seed = 19851201;
  options.shard_count = 8;
  options.threads = 0;

  std::printf("bench_micro_analyze: A5, %.2f simulated hours (hw %d threads)\n", hours,
              hw_threads);

  const std::string path =
      (std::filesystem::temp_directory_path() / "bsdtrace-bench-analyze.trc").string();
  auto generated = GenerateTraceShardedToFile(ProfileA5(), options, path);
  if (!generated.ok()) {
    std::fprintf(stderr, "generation failed: %s\n", generated.status().message().c_str());
    return 1;
  }
  const uint64_t records = generated.value().records_streamed;
  SeekableTraceSource seekable(path);
  const uint64_t blocks = seekable.index().size();

  constexpr int kReps = 3;

  // Serial reference: the streaming single-pass analyzer.
  double serial_s = 1e300;
  TraceAnalysis serial;
  for (int rep = -1; rep < kReps; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    TraceFileSource source(path);
    AnalyzeOptions serial_options;
    serial_options.source = &source;
    auto result = Analyze(serial_options);
    if (!result.ok()) {
      std::fprintf(stderr, "serial analysis failed: %s\n", result.status().message().c_str());
      return 1;
    }
    if (rep >= 0) {
      serial_s = std::min(serial_s, SecondsSince(t0));
    }
    serial = std::move(result).value();
  }

  // Parallel at 2 / 4 / 8 threads, each gated on bit-identity to serial.
  const unsigned thread_counts[] = {2, 4, 8};
  double parallel_s[3] = {1e300, 1e300, 1e300};
  bool parity = true;
  for (int i = 0; i < 3; ++i) {
    for (int rep = -1; rep < kReps; ++rep) {
      const auto t0 = std::chrono::steady_clock::now();
      AnalyzeOptions parallel_options;
      parallel_options.path = path;
      parallel_options.threads = thread_counts[i];
      auto result = Analyze(parallel_options);
      if (!result.ok()) {
        std::fprintf(stderr, "parallel analysis (%u threads) failed: %s\n", thread_counts[i],
                     result.status().message().c_str());
        return 1;
      }
      if (rep >= 0) {
        parallel_s[i] = std::min(parallel_s[i], SecondsSince(t0));
      }
      if (!AnalysisBitIdentical(serial, result.value())) {
        parity = false;
      }
    }
  }
  std::remove(path.c_str());

  const double speedup8 = parallel_s[2] > 0 ? serial_s / parallel_s[2] : 0;
  char json[1024];
  std::snprintf(json, sizeof(json),
                "{\"bench\":\"micro_analyze\",\"hours\":%.2f,\"records\":%llu,"
                "\"blocks\":%llu,\"hw_threads\":%d,"
                "\"serial_s\":%.4f,\"parallel2_s\":%.4f,\"parallel4_s\":%.4f,"
                "\"parallel8_s\":%.4f,\"speedup8\":%.2f,\"parity\":%s}",
                hours, static_cast<unsigned long long>(records),
                static_cast<unsigned long long>(blocks), hw_threads, serial_s, parallel_s[0],
                parallel_s[1], parallel_s[2], speedup8, parity ? "true" : "false");
  std::printf("%s\n", json);
  if (std::FILE* f = std::fopen("BENCH_micro_analyze.json", "w")) {
    std::fprintf(f, "%s\n", json);
    std::fclose(f);
  }
  if (!parity) {
    std::fprintf(stderr, "FAIL: parallel analysis differs from the serial reference\n");
    return 1;
  }
  return 0;
}
