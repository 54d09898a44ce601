#include "src/cache/simulator.h"

#include <algorithm>
#include <cassert>

#include "src/util/stats.h"

namespace bsdtrace {

const char* WritePolicyName(WritePolicy policy) {
  switch (policy) {
    case WritePolicy::kWriteThrough:
      return "write-through";
    case WritePolicy::kFlushBack:
      return "flush-back";
    case WritePolicy::kDelayedWrite:
      return "delayed-write";
  }
  return "?";
}

std::string CacheConfig::ToString() const {
  std::string out = FormatBytes(static_cast<double>(size_bytes)) + " cache, " +
                    FormatBytes(block_size) + " blocks, " + WritePolicyName(policy);
  if (policy == WritePolicy::kFlushBack) {
    out += '(';
    out += flush_interval.ToString();
    out += ')';
  }
  if (replacement != ReplacementPolicy::kLru) {
    out += std::string(", ") + ReplacementPolicyName(replacement);
  }
  if (simulate_execve_pagein) {
    out += ", +page-in";
  }
  return out;
}

CacheSimulator::CacheSimulator(const CacheConfig& config) : level_(config) {}

void CacheSimulator::ReserveFiles(size_t file_count) {
  if (transfer_extent_feed_ == nullptr) {
    known_extent_.Reserve(file_count);
  }
  if (config().simulate_metadata) {
    meta_dirty_.reserve(file_count);
  }
}

void CacheSimulator::Access(SimTime now, FileId file, uint64_t offset, uint64_t length,
                            bool is_write) {
  if (length == 0) {
    return;
  }
  // One extent lookup per transfer, not per block: within the transfer the
  // table is untouched, so every block sees the same value ("no entry" reads
  // as extent 0 — every block is then beyond known data, as before).
  uint64_t* ext = known_extent_.Find(file);
  level_.AccessBlocks(now, file, offset, length, is_write, ext != nullptr ? *ext : 0);
  // Reads prove the data existed; writes create it: either way the file now
  // extends at least this far.
  if (ext != nullptr) {
    *ext = std::max(*ext, offset + length);
  } else {
    known_extent_[file] = offset + length;
  }
}

// Metadata approximation (§8 extension).  The trace carries no pathnames, so
// locality is modelled through file ids: i-nodes pack 16 per block of a
// reserved "i-node table" file, and files with nearby ids (created together,
// usually in the same directory) share a directory content block of 32
// entries.  Each open costs an i-node read plus a directory read; each close
// after writing costs an i-node write; unlinks write both.
namespace {
constexpr FileId kInodeTableFile = 1ull << 62;
constexpr FileId kDirectoryFile = (1ull << 62) + 1;
constexpr uint64_t kInodesPerBlock = 16;
constexpr uint64_t kDirEntriesPerBlock = 32;
// Metadata blocks always exist on disk: the reserved files behave as fully
// populated, so partial writes to them fetch first (read-modify-write).
// Passed straight to AccessBlock — the reserved ids never appear in
// transfers or invalidations, so they need no known_extent_ entries.
constexpr uint64_t kMetadataExtent = UINT64_MAX / 2;
}  // namespace

void CacheSimulator::MetadataAccess(SimTime now, FileId file, bool is_write) {
  level_.AdvanceClock(now);
  level_.mutable_metrics().metadata_accesses += 2;
  level_.AccessBlock(now, BlockKey{.file = kInodeTableFile, .index = file / kInodesPerBlock},
                     is_write, false, kMetadataExtent);
  level_.AccessBlock(now, BlockKey{.file = kDirectoryFile, .index = file / kDirEntriesPerBlock},
                     is_write, false, kMetadataExtent);
}

void CacheSimulator::InvalidateFrom(SimTime now, FileId file, uint64_t first_byte) {
  level_.Invalidate(now, file, first_byte);
  if (transfer_extent_feed_ != nullptr) {
    return;  // extent trajectory is precomputed in the feeds
  }
  if (first_byte == 0) {
    known_extent_.Erase(file);
  } else {
    if (uint64_t* extent = known_extent_.Find(file)) {
      *extent = std::min(*extent, first_byte);
    }
  }
}

void CacheSimulator::OnRecord(const TraceRecord& r) {
  if (config().simulate_metadata) {
    switch (r.type) {
      case EventType::kOpen:
        MetadataAccess(r.time, r.file_id, /*is_write=*/false);
        break;
      case EventType::kCreate:
        MetadataAccess(r.time, r.file_id, /*is_write=*/true);
        break;
      case EventType::kClose:
        if (meta_dirty_.erase(r.file_id) > 0) {
          // The i-node's size/mtime must reach disk eventually.
          level_.mutable_metrics().metadata_accesses += 1;
          level_.AccessBlock(r.time, BlockKey{.file = kInodeTableFile,
                                              .index = r.file_id / kInodesPerBlock},
                             /*is_write=*/true, false, kMetadataExtent);
        }
        break;
      case EventType::kUnlink:
        MetadataAccess(r.time, r.file_id, /*is_write=*/true);
        break;
      default:
        break;
    }
  }
  switch (r.type) {
    case EventType::kCreate:
      // The open created or zero-truncated the file: cached data is void.
      InvalidateFrom(r.time, r.file_id, 0);
      break;
    case EventType::kUnlink:
      InvalidateFrom(r.time, r.file_id, 0);
      break;
    case EventType::kTruncate:
      InvalidateFrom(r.time, r.file_id, r.size);
      break;
    case EventType::kExecve:
      // Fig. 7: demand page-in approximated as a whole-file read.  The feed
      // holds one slot per nonempty execve regardless of whether page-in is
      // simulated, so consume it either way to stay in sync.
      if (execve_extent_feed_ != nullptr) {
        if (r.size > 0) {
          const uint64_t extent = execve_extent_feed_[execve_feed_pos_++];
          if (config().simulate_execve_pagein) {
            level_.AccessBlocks(r.time, r.file_id, 0, r.size, /*is_write=*/false, extent);
          }
        }
      } else if (config().simulate_execve_pagein && r.size > 0) {
        Access(r.time, r.file_id, 0, r.size, /*is_write=*/false);
      }
      break;
    default:
      level_.AdvanceClock(r.time);
      break;
  }
}

// ---------------------------------------------------------------------------
// FusedCacheSimulator
// ---------------------------------------------------------------------------

FusedCacheSimulator::FusedCacheSimulator(const CacheConfig& base,
                                         const std::vector<PolicyLane>& lanes)
    : base_(base),
      lanes_(lanes),
      cache_(base.block_count(), base.replacement),
      lane_counters_(lanes.size()),
      next_flush_(lanes.size()),
      fb_pending_(lanes.size(), 0),
      written_(base.block_count(), 0),
      last_write_(base.block_count()) {
  assert(!base.simulate_metadata);
  assert(lanes_.size() >= 1 && lanes_.size() <= 8);
  for (size_t i = 0; i < lanes_.size(); ++i) {
    if (lanes_[i].policy == WritePolicy::kDelayedWrite) {
      delayed_lanes_.push_back(i);
    } else if (lanes_[i].policy == WritePolicy::kFlushBack) {
      flush_lanes_.push_back(i);
      next_flush_[i] = SimTime::Origin() + lanes_[i].flush_interval;
    }
  }
}

void FusedCacheSimulator::ReserveFiles(size_t file_count) {
  if (transfer_extent_feed_ == nullptr) {
    known_extent_.Reserve(file_count);
  }
}

void FusedCacheSimulator::RecordResidency(SimTime now, const CacheEntry& entry) {
  const double seconds = (now - entry.loaded).seconds();
  shared_.residency_seconds.Add(seconds);
  shared_.residency_samples += 1;
  if (seconds > 20.0 * 60.0) {
    shared_.residency_over_20min += 1;
  }
}

void FusedCacheSimulator::AccessBlock(SimTime now, const BlockKey& key, bool is_write,
                                      bool whole_block, uint64_t known_extent) {
  shared_.logical_accesses += 1;
  if (is_write) {
    shared_.write_accesses += 1;
  } else {
    shared_.read_accesses += 1;
  }

  CacheEntry* entry = cache_.Touch(key);
  if (entry == nullptr) {
    const uint64_t block_start = key.index * base_.block_size;
    const bool beyond_known_data = block_start >= known_extent;
    if (!(is_write && (whole_block || beyond_known_data))) {
      shared_.disk_reads += 1;
    }
    entry = cache_.Insert(key, now, [this, now](const CacheEntry& victim) {
      shared_.evictions += 1;
      RecordResidency(now, victim);
      const size_t slot = static_cast<size_t>(cache_.SlotOf(&victim));
      if (written_[slot] != 0) {
        for (const size_t lane : delayed_lanes_) {
          lane_counters_[lane].disk_writes += 1;  // eviction write-back
        }
        for (const size_t lane : flush_lanes_) {
          if (last_write_[slot] >= EpochStart(lane)) {
            // Dirty at eviction: the write happens now instead of at the
            // epoch boundary the pending counter was aimed at.
            fb_pending_[lane] -= 1;
            lane_counters_[lane].disk_writes += 1;
          }
        }
        written_[slot] = 0;
      }
    });
    cache_.Retouch(entry);
    written_[static_cast<size_t>(cache_.SlotOf(entry))] = 0;
  }

  if (is_write) {
    // Write-through lanes pay one disk write per write access (reconstructed
    // in LaneMetrics from write_accesses); the others derive dirtiness from
    // the slot's write state.  A flush-back lane owes one flush write per
    // clean->dirty transition in its epoch.
    const size_t slot = static_cast<size_t>(cache_.SlotOf(entry));
    for (const size_t lane : flush_lanes_) {
      if (written_[slot] == 0 || last_write_[slot] < EpochStart(lane)) {
        fb_pending_[lane] += 1;
      }
    }
    written_[slot] = 1;
    last_write_[slot] = now;
  }
}

void FusedCacheSimulator::Access(SimTime now, FileId file, uint64_t offset,
                                 uint64_t length, bool is_write) {
  if (length == 0) {
    return;
  }
  uint64_t* ext = known_extent_.Find(file);
  AccessBlocks(now, file, offset, length, is_write, ext != nullptr ? *ext : 0);
  if (ext != nullptr) {
    *ext = std::max(*ext, offset + length);
  } else {
    known_extent_[file] = offset + length;
  }
}

void FusedCacheSimulator::AccessBlocks(SimTime now, FileId file, uint64_t offset,
                                       uint64_t length, bool is_write, uint64_t extent) {
  AdvanceClock(now);
  const uint32_t bs = base_.block_size;
  const uint64_t first = offset / bs;
  const uint64_t last = (offset + length - 1) / bs;
  for (uint64_t b = first; b <= last; ++b) {
    const uint64_t block_start = b * bs;
    const uint64_t block_end = block_start + bs;
    const bool whole_block = is_write && offset <= block_start && offset + length >= block_end;
    AccessBlock(now, BlockKey{.file = file, .index = b}, is_write, whole_block, extent);
  }
}

void FusedCacheSimulator::InvalidateFrom(SimTime now, FileId file, uint64_t first_byte) {
  AdvanceClock(now);
  const uint64_t first_block = (first_byte + base_.block_size - 1) / base_.block_size;
  cache_.RemoveFileBlocks(file, first_block, [this, now](const CacheEntry& dropped) {
    RecordResidency(now, dropped);
    const size_t slot = static_cast<size_t>(cache_.SlotOf(&dropped));
    if (written_[slot] != 0) {
      for (const size_t lane : delayed_lanes_) {
        lane_counters_[lane].dirty_discarded += 1;  // never reaches disk
      }
      for (const size_t lane : flush_lanes_) {
        if (last_write_[slot] >= EpochStart(lane)) {
          fb_pending_[lane] -= 1;  // the owed flush write never happens
          lane_counters_[lane].dirty_discarded += 1;
        }
      }
      written_[slot] = 0;
    }
  });
  if (transfer_extent_feed_ != nullptr) {
    return;
  }
  if (first_byte == 0) {
    known_extent_.Erase(file);
  } else {
    if (uint64_t* extent = known_extent_.Find(file)) {
      *extent = std::min(*extent, first_byte);
    }
  }
}

void FusedCacheSimulator::OnRecord(const TraceRecord& r) {
  switch (r.type) {
    case EventType::kCreate:
    case EventType::kUnlink:
      InvalidateFrom(r.time, r.file_id, 0);
      break;
    case EventType::kTruncate:
      InvalidateFrom(r.time, r.file_id, r.size);
      break;
    case EventType::kExecve:
      if (execve_extent_feed_ != nullptr) {
        if (r.size > 0) {
          const uint64_t extent = execve_extent_feed_[execve_feed_pos_++];
          if (base_.simulate_execve_pagein) {
            AccessBlocks(r.time, r.file_id, 0, r.size, /*is_write=*/false, extent);
          }
        }
      } else if (base_.simulate_execve_pagein && r.size > 0) {
        Access(r.time, r.file_id, 0, r.size, /*is_write=*/false);
      }
      break;
    default:
      AdvanceClock(r.time);
      break;
  }
}

void FusedCacheSimulator::Finish() {
  if (finished_) {
    return;
  }
  finished_ = true;
  cache_.ForEach([this](CacheEntry& entry) { RecordResidency(now_, entry); });
}

CacheMetrics FusedCacheSimulator::LaneMetrics(size_t i) const {
  CacheMetrics m = shared_;
  if (lanes_[i].policy == WritePolicy::kWriteThrough) {
    m.disk_writes = shared_.write_accesses;  // one write-through per write access
    m.dirty_discarded = 0;
  } else {
    m.disk_writes = lane_counters_[i].disk_writes;
    m.dirty_discarded = lane_counters_[i].dirty_discarded;
  }
  return m;
}

}  // namespace bsdtrace
