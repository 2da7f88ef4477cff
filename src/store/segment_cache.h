// Pinned-segment cache: the buffer-manager layer between the execution
// engines and the on-disk segment files.
//
// Faulting a segment decodes the pages of one column footprint into a
// ColumnBatch (store/segment_store.h DecodeSegment: the flagged column
// pages plus the lineage page, each verified against its checksum; the
// other columns stay empty). The cache keeps decoded entries resident up
// to a byte budget with LRU eviction, keyed on (relation, segment,
// footprint): a scan that reads two of seven columns faults, holds and is
// charged for only those two pages plus the lineage. Two footprints of
// one segment are two independent entries. Entries are handed out as
// shared_ptr pins: eviction only drops the cache's reference, so a scan
// holding a pin keeps its segment alive while the budget reclaims cold
// ones — no use-after-free window, at worst a transiently over-budget
// moment while pins drain.
//
// Thread safety: Fault() is safe to call concurrently (the morsel workers
// do). Lookups and LRU maintenance run under one mutex; page decode runs
// outside it, with per-entry loading states so two workers faulting the
// same segment and footprint do one decode (the loser waits). Counters are what the
// ExecStats segments_faulted / store_bytes_read deltas are computed from.

#ifndef GUS_STORE_SEGMENT_CACHE_H_
#define GUS_STORE_SEGMENT_CACHE_H_

#include <condition_variable>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <tuple>
#include <utility>
#include <vector>

#include "rel/column_batch.h"
#include "store/segment_store.h"
#include "util/status.h"

namespace gus {

struct SegmentCacheOptions {
  /// Byte budget of resident (unpinned-tracked) decoded segments. The
  /// cache evicts LRU entries past the budget; pinned segments stay alive
  /// through their shared_ptr regardless.
  int64_t max_bytes = 256ll << 20;
};

/// \brief Counter snapshot (monotonic over the cache's lifetime, except
/// resident_bytes which tracks the current footprint).
struct SegmentCacheCounters {
  int64_t faults = 0;       ///< segment decodes performed (cache misses)
  int64_t hits = 0;         ///< faults served from residency
  int64_t evictions = 0;    ///< entries dropped by the LRU policy
  /// Page bytes decoded from disk: per fault, the footprint's column pages
  /// plus the lineage page (StoredRelation::PageBytes).
  int64_t bytes_read = 0;
  int64_t resident_bytes = 0;
};

class SegmentCache {
 public:
  explicit SegmentCache(SegmentCacheOptions options = {})
      : options_(options) {}

  SegmentCache(const SegmentCache&) = delete;
  SegmentCache& operator=(const SegmentCache&) = delete;

  /// \brief The columns flagged in `cols` plus the lineage of segment `s`
  /// of `rel`, decoded on a miss; unflagged columns of the batch are
  /// empty. The returned pin keeps the batch alive past any eviction.
  Result<std::shared_ptr<const ColumnBatch>> Fault(
      const StoredRelation& rel, int64_t s, const std::vector<char>& cols);
  /// Every column: Fault(rel, s, rel.all_columns()).
  Result<std::shared_ptr<const ColumnBatch>> Fault(const StoredRelation& rel,
                                                   int64_t s) {
    return Fault(rel, s, rel.all_columns());
  }

  /// Drops every resident entry (outstanding pins stay valid).
  void Clear();

  SegmentCacheCounters counters() const;

 private:
  using Key = std::tuple<const StoredRelation*, int64_t, std::vector<char>>;

  struct Slot {
    bool loading = false;
    std::shared_ptr<const ColumnBatch> batch;
    int64_t bytes = 0;
    std::list<Key>::iterator lru_pos;
  };

  void EvictOverBudgetLocked();

  SegmentCacheOptions options_;
  mutable std::mutex mu_;
  std::condition_variable load_done_;
  std::map<Key, Slot> slots_;
  std::list<Key> lru_;  // front = most recent
  SegmentCacheCounters counters_;
};

}  // namespace gus

#endif  // GUS_STORE_SEGMENT_CACHE_H_
