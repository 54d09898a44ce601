#include "src/analysis/per_user_activity.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace bsdtrace {

// -- PerUserSegment -----------------------------------------------------------

namespace {

// Folds one day's active-user count after the day at *prev.  Days between
// the first and last touched day with no activity at all count as
// zero-active days, matching the Table IV gap-fill convention.
void FoldDay(const UserInterval& day, std::optional<int64_t>* prev, RunningStats* out) {
  if (prev->has_value()) {
    out->AddZeros(day.index - **prev - 1);
  }
  out->Add(static_cast<double>(day.active.size()));
  *prev = day.index;
}

}  // namespace

void PerUserSegment::Merge(PerUserSegment&& other) {
  assert(!other.last_folded_day.has_value());
  users = MergeById(users, other.users, [](const PerUserTotals& a, const PerUserTotals& b) {
    return PerUserTotals{.records = a.records + b.records, .bytes = a.bytes + b.bytes};
  });
  MergeIntervals(&daily_active, std::move(other.daily_active));
  last_time = std::max(last_time, other.last_time);
}

void PerUserSegment::FoldBefore(SimTime frontier) {
  const int64_t day = frontier.micros() / Duration::Hours(24).micros();
  auto end = daily_active.begin();
  while (end != daily_active.end() && end->index < day) {
    FoldDay(*end, &last_folded_day, &folded_days);
    ++end;
  }
  daily_active.erase(daily_active.begin(), end);
}

PerUserActivityStats PerUserSegment::Finalize() const {
  PerUserActivityStats stats;
  stats.duration = last_time - SimTime::Origin();
  stats.days = stats.duration.seconds() / Duration::Hours(24).seconds();
  for (const auto& [user, totals] : users) {
    stats.users.emplace_hint(stats.users.end(), user, totals);
    stats.total_records += totals.records;
    stats.total_bytes += totals.bytes;
    if (stats.days > 0.0) {
      stats.records_per_user_day.Add(static_cast<double>(totals.records) / stats.days);
    }
  }
  stats.active_users_per_day = folded_days;
  std::optional<int64_t> prev = last_folded_day;
  for (const UserInterval& day : daily_active) {
    FoldDay(day, &prev, &stats.active_users_per_day);
  }
  return stats;
}

// -- PerUserActivityCollector -------------------------------------------------

void PerUserActivityCollector::CloseDay() {
  UserInterval closed = days_.Close(users_.ids());
  if (!closed.active.empty()) {
    AppendInterval(&daily_active_, std::move(closed));
  }
}

void PerUserActivityCollector::Touch(SimTime t, UserId user, uint64_t records,
                                     uint64_t bytes) {
  const uint32_t slot = users_.Intern(user);
  if (slot == totals_.size()) {
    totals_.emplace_back();
  }
  totals_[slot].records += records;
  totals_[slot].bytes += bytes;
  const int64_t day = days_.IndexOf(t);
  if (day != days_.current()) {
    CloseDay();
    days_.Open(day);
  }
  days_.Add(slot, 0);
  if (t > last_time_) {
    last_time_ = t;
  }
}

void PerUserActivityCollector::OnRecord(const TraceRecord& r) {
  UserId user;
  if (open_users_.UserOf(r, &user)) {
    Touch(r.time, user, /*records=*/1, /*bytes=*/0);
  }
}

void PerUserActivityCollector::OnTransfer(const Transfer& t) {
  Touch(t.time, t.user_id, /*records=*/0, t.length);
}

PerUserSegment PerUserActivityCollector::TakeSegment() {
  CloseDay();
  PerUserSegment segment;
  segment.daily_active = std::move(daily_active_);
  segment.users.reserve(users_.size());
  for (size_t slot = 0; slot < users_.size(); ++slot) {
    segment.users.emplace_back(users_.ids()[slot], totals_[slot]);
  }
  std::sort(segment.users.begin(), segment.users.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  segment.last_time = last_time_;
  return segment;
}

// -- Table I band validation --------------------------------------------------

const std::vector<TableIBand>& TableIBands() {
  // Calibrated on the simulator at the paper populations (90/140/40 users):
  // measured per-user rates across 6 h - 72 h durations, 1-8 shards, and
  // 90-1000+ user populations sit at roughly 1600-2950 (A5), 1200-2300 (E3),
  // and 1400-2750 (C4) records/user/day; the bands add ~2x margin on both
  // sides so seed and duration mixes stay inside while an attribution or
  // scaling regression (rates shifting with population) trips them.  Pinned
  // at paper scale and at 1000+ users by the PerUserActivity property tests.
  // Sanity anchor: the paper's Table I reports on the order of half a
  // million records per machine-day, i.e. thousands of records per user-day.
  static const std::vector<TableIBand> kBands = {
      {.trace_name = "A5", .min_records_per_user_day = 700.0,
       .max_records_per_user_day = 4500.0},
      {.trace_name = "E3", .min_records_per_user_day = 500.0,
       .max_records_per_user_day = 3500.0},
      {.trace_name = "C4", .min_records_per_user_day = 600.0,
       .max_records_per_user_day = 5500.0},
  };
  return kBands;
}

std::vector<ActivityBandCheck> CheckActivityBands(const TraceHeader& header,
                                                  const PerUserActivityStats& stats) {
  std::vector<ActivityBandCheck> checks;
  if (stats.days * Duration::Hours(24).seconds() < Duration::Minutes(10).seconds()) {
    return checks;  // too short for a meaningful rate
  }
  const std::vector<FleetInstanceTag> tags = ParseFleetTag(header.description);
  for (size_t i = 0; i < tags.size(); ++i) {
    const FleetInstanceTag& tag = tags[i];
    ActivityBandCheck check;
    check.instance = i;
    check.trace_name = tag.trace_name;
    check.user_population = tag.user_population;
    for (const TableIBand& band : TableIBands()) {
      if (band.trace_name == tag.trace_name) {
        check.band = band;
      }
    }
    // Human users only: the instance's daemon pseudo-users sit below
    // FirstUser() and their activity scales with the machine, not the user.
    uint64_t records = 0;
    const auto begin = stats.users.lower_bound(tag.FirstUser());
    const auto end = stats.users.upper_bound(tag.LastUser());
    for (auto it = begin; it != end; ++it) {
      records += it->second.records;
    }
    check.records_per_user_day =
        tag.user_population > 0
            ? static_cast<double>(records) / tag.user_population / stats.days
            : 0.0;
    check.ok = !check.band.trace_name.empty() &&
               check.records_per_user_day >= check.band.min_records_per_user_day &&
               check.records_per_user_day <= check.band.max_records_per_user_day;
    checks.push_back(std::move(check));
  }
  return checks;
}

}  // namespace bsdtrace
