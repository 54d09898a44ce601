// Span log for the traced benchmark pass, in the devtrace idiom: every call
// into a bsdtrace layer is bracketed from outside by an entry/exit pair of
// monotonic ticks, kept in memory, and written out once at exit (here as
// Chrome-trace JSON, loadable in chrome://tracing or Perfetto).
//
// A span records its layer, name, start, end, the span that caused it and a
// run id (one per pass of the workload, so the spans of one pass share it).
// A disabled log records nothing, so the untraced pass pays one branch per
// layer call.
#ifndef BSDTRACE_PERFBENCH_SPANS_H_
#define BSDTRACE_PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

// Nanoseconds on the benchmark's monotonic clock.
int64_t NowNs();

struct Span {
  std::string layer;  // workload, trace, analysis, cache or bench (a pass root)
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int id = 0;
  int parent = -1;  // -1: a root
  int run_id = 0;
  int tid = 0;  // small per-log thread number, for the Chrome view
};

class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  bool enabled() const { return enabled_; }

  // Opens a span and returns its id (-1 when disabled).  Safe from any thread.
  int Begin(const std::string& layer, const std::string& name, int parent, int run_id);
  void End(int id);

  // Snapshot of every span recorded so far.
  std::vector<Span> spans() const;

  // Writes every span as Chrome-trace JSON ("X" complete events).
  bool WriteChromeTrace(const std::string& path) const;

 private:
  const bool enabled_;
  mutable std::mutex mu_;  // guards spans_ and tids_
  std::vector<Span> spans_;
  std::map<std::string, int> tids_;
};

// Where a layer call's span goes: the log (enabled or not), the span that
// caused it, and the run id of the pass.
struct SpanCtx {
  SpanLog* log;
  int parent;
  int run;
};

// RAII span: Begin in the constructor, End in the destructor.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const std::string& layer, const std::string& name, int parent,
             int run_id)
      : log_(log), id_(log.Begin(layer, name, parent, run_id)) {}
  ~ScopedSpan() { log_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }

 private:
  SpanLog& log_;
  const int id_;
};

// Per layer: the summed duration of its spans minus the part of each span
// that its child spans cover.
std::map<std::string, double> SelfSecondsByLayer(const std::vector<Span>& spans);

// For the root spans named `root_name`: the share of their summed duration
// that no child span covers.
double UncoveredShare(const std::vector<Span>& spans, const std::string& root_name);

}  // namespace perfbench

#endif  // BSDTRACE_PERFBENCH_SPANS_H_
