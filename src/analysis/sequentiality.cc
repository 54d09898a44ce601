#include "src/analysis/sequentiality.h"

namespace bsdtrace {

ModeSequentiality SequentialityStats::Total() const {
  ModeSequentiality total;
  for (const ModeSequentiality& m : by_mode) {
    total.accesses += m.accesses;
    total.whole_file += m.whole_file;
    total.sequential += m.sequential;
    total.bytes += m.bytes;
    total.whole_file_bytes += m.whole_file_bytes;
    total.sequential_bytes += m.sequential_bytes;
  }
  return total;
}

double SequentialityStats::WholeFileByteFraction() const {
  const ModeSequentiality total = Total();
  return total.bytes > 0
             ? static_cast<double>(total.whole_file_bytes) / static_cast<double>(total.bytes)
             : 0.0;
}

double SequentialityStats::SequentialByteFraction() const {
  const ModeSequentiality total = Total();
  return total.bytes > 0
             ? static_cast<double>(total.sequential_bytes) / static_cast<double>(total.bytes)
             : 0.0;
}

void SequentialityStats::Add(const AccessSummary& a) {
  ModeSequentiality& m = by_mode[static_cast<size_t>(a.mode)];
  m.accesses += 1;
  m.bytes += a.bytes_transferred;
  if (a.whole_file) {
    m.whole_file += 1;
    m.whole_file_bytes += a.bytes_transferred;
  }
  if (a.sequential) {
    m.sequential += 1;
    m.sequential_bytes += a.bytes_transferred;
  }
}

void SequentialityCollector::OnAccess(const AccessSummary& a) { stats_.Add(a); }

}  // namespace bsdtrace
