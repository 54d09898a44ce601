#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <thread>
#include <utility>

namespace perfbench {
namespace {

// Length of the union of [start, end) intervals, each clipped to [lo, hi).
int64_t CoveredNs(std::vector<std::pair<int64_t, int64_t>> intervals, int64_t lo, int64_t hi) {
  for (auto& iv : intervals) {
    iv.first = std::max(iv.first, lo);
    iv.second = std::min(iv.second, hi);
  }
  std::sort(intervals.begin(), intervals.end());
  int64_t covered = 0;
  int64_t reach = lo;
  for (const auto& [start, end] : intervals) {
    const int64_t from = std::max(start, reach);
    if (end > from) {
      covered += end - from;
      reach = end;
    }
  }
  return covered;
}

std::map<int, std::vector<std::pair<int64_t, int64_t>>> ChildIntervals(
    const std::vector<Span>& spans) {
  std::map<int, std::vector<std::pair<int64_t, int64_t>>> children;
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      children[s.parent].emplace_back(s.start_ns, s.end_ns);
    }
  }
  return children;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  return out;
}

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
      .count();
}

int SpanLog::Begin(const std::string& layer, const std::string& name, int parent, int run_id) {
  if (!enabled_) {
    return -1;
  }
  std::ostringstream thread_key;
  thread_key << std::this_thread::get_id();
  const int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  const auto tid = tids_.emplace(thread_key.str(), static_cast<int>(tids_.size())).first->second;
  Span span;
  span.layer = layer;
  span.name = name;
  span.start_ns = now;
  span.end_ns = now;
  span.id = static_cast<int>(spans_.size());
  span.parent = parent;
  span.run_id = run_id;
  span.tid = tid;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void SpanLog::End(int id) {
  if (id < 0) {
    return;
  }
  const int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].end_ns = now;
}

std::vector<Span> SpanLog::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool SpanLog::WriteChromeTrace(const std::string& path) const {
  const std::vector<Span> all = spans();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  const int64_t origin = all.empty() ? 0 : all.front().start_ns;
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", f);
  for (size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    std::fprintf(f,
                 "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%d,\"parent\":%d,\"run\":%d}}%s\n",
                 JsonEscape(s.name).c_str(), JsonEscape(s.layer).c_str(), s.tid,
                 static_cast<double>(s.start_ns - origin) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.id, s.parent, s.run_id,
                 i + 1 < all.size() ? "," : "");
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

std::map<std::string, double> SelfSecondsByLayer(const std::vector<Span>& spans) {
  const auto children = ChildIntervals(spans);
  std::map<std::string, double> self;
  for (const Span& s : spans) {
    int64_t covered = 0;
    if (auto it = children.find(s.id); it != children.end()) {
      covered = CoveredNs(it->second, s.start_ns, s.end_ns);
    }
    self[s.layer] += static_cast<double>(s.end_ns - s.start_ns - covered) / 1e9;
  }
  return self;
}

double UncoveredShare(const std::vector<Span>& spans, const std::string& root_name) {
  const auto children = ChildIntervals(spans);
  int64_t total = 0;
  int64_t uncovered = 0;
  for (const Span& s : spans) {
    if (s.parent >= 0 || s.name != root_name) {
      continue;
    }
    int64_t covered = 0;
    if (auto it = children.find(s.id); it != children.end()) {
      covered = CoveredNs(it->second, s.start_ns, s.end_ns);
    }
    total += s.end_ns - s.start_ns;
    uncovered += s.end_ns - s.start_ns - covered;
  }
  return total > 0 ? static_cast<double>(uncovered) / static_cast<double>(total) : 0.0;
}

}  // namespace perfbench
