#include "src/analysis/patterns.h"

namespace bsdtrace {

void RunLengthStats::Add(const Transfer& t) {
  const auto len = static_cast<double>(t.length);
  by_runs.Add(len);
  by_bytes.Add(len, len);
}

void FileSizeStats::Add(const AccessSummary& a) {
  const auto size = static_cast<double>(a.size_at_close);
  by_accesses.Add(size);
  if (a.bytes_transferred > 0) {
    by_bytes.Add(size, static_cast<double>(a.bytes_transferred));
  }
}

void OpenTimeStats::Add(const AccessSummary& a) { seconds.Add(a.open_duration().seconds()); }

void PatternsCollector::OnTransfer(const Transfer& t) { runs_.Add(t); }

void PatternsCollector::OnAccess(const AccessSummary& a) {
  sizes_.Add(a);
  open_times_.Add(a);
}

}  // namespace bsdtrace
