// Segment-backed pipeline sources: the streaming bridge between the
// on-disk store and the columnar/morsel execution engines.
//
// Each source mirrors an existing in-memory operator exactly — same row
// order, same lineage values, same per-row sampler stream consumption —
// but pulls its rows from pinned segments (store/segment_cache.h) instead
// of a materialized ColumnarRelation:
//
//   * MakeStoredScanSource      — ScanSource over [begin, begin+len)
//   * StoredKeepSliceSource     — SelectionListSource (sorted keep list)
//   * StoredBlockSampleSource   — BlockSampleSource (decoupled block keep)
//
// Views emitted by the scan/keep sources clip at segment boundaries, so
// chunk sizes differ from the in-memory sources'. That is parity-safe:
// every downstream consumer is chunk-boundary invariant (the resumable
// geometric-skip Bernoulli kernel advances per logical row, selects are
// stateless, estimator folds are sequential over rows) — the row stream
// itself is identical.
//
// A source holds at most one segment pin at a time, so a full scan's
// resident footprint is one decoded segment per pipeline leaf (plus
// whatever the cache keeps warm), not the whole relation.
//
// Every source faults one column footprint `cols` (flags over the stored
// schema; store->all_columns() for every column): the emitted views carry
// only those columns plus the lineage, the rest are empty. The caller
// guarantees nothing downstream reads an unflagged column, and `cols`
// must outlive the source.

#ifndef GUS_STORE_SEGMENT_SOURCE_H_
#define GUS_STORE_SEGMENT_SOURCE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "plan/columnar_executor.h"
#include "store/segment_cache.h"
#include "store/segment_store.h"

namespace gus {

/// Streams rows [begin, begin + len) of `store` (len < 0 means "to the
/// end"), faulting the `cols` footprint of each segment through `cache`
/// and emitting contiguous views over the pinned batches.
std::unique_ptr<BatchSource> MakeStoredScanSource(
    const StoredRelation* store, SegmentCache* cache,
    const std::vector<char>* cols, int64_t batch_rows, int64_t begin = 0,
    int64_t len = -1);

/// \brief Keep-list slice over stored segments: emits the rows named by
/// `keep[offset, offset+len)` (global row ids, ascending) as selection
/// views over pinned segment batches.
///
/// The morsel engine's SelectionListSource twin for WOR / WR-distinct
/// keep-sets whose pivot lives on disk.
class StoredKeepSliceSource final : public BatchSource {
 public:
  StoredKeepSliceSource(const StoredRelation* store, SegmentCache* cache,
                        const std::vector<char>* cols,
                        std::shared_ptr<const std::vector<int64_t>> keep,
                        int64_t offset, int64_t len, int64_t batch_rows)
      : BatchSource(store->layout_ptr()),
        store_(store),
        cache_(cache),
        cols_(cols),
        keep_(std::move(keep)),
        pos_(offset),
        end_(offset + len),
        batch_rows_(batch_rows) {}

  Result<bool> NextView(SelView* out) override;

 private:
  const StoredRelation* store_;
  SegmentCache* cache_;
  const std::vector<char>* cols_;
  std::shared_ptr<const std::vector<int64_t>> keep_;
  int64_t pos_;
  int64_t end_;
  int64_t batch_rows_;
  int64_t pin_seg_ = -1;
  std::shared_ptr<const ColumnBatch> pin_;
  std::vector<int64_t> sel_;  // segment-local indices of the current view
};

/// \brief Decoupled block sampling over a stored morsel slice — the
/// BlockSampleSource twin.
///
/// Per-block keep decisions are the same pure function of (seed, block
/// id); kept rows gather from pinned segments into an owned batch and
/// their lineage re-keys to the global block id, so the emitted rows are
/// bit-identical to the in-memory path whatever the segment geometry.
/// The gather copies whole rows, so it always faults every column.
class StoredBlockSampleSource final : public BatchSource {
 public:
  StoredBlockSampleSource(const StoredRelation* store, SegmentCache* cache,
                          int64_t begin, int64_t end, uint64_t seed, double p,
                          int64_t block_size, int64_t batch_rows)
      : BatchSource(store->layout_ptr()),
        store_(store),
        cache_(cache),
        pos_(begin),
        end_(end),
        seed_(seed),
        p_(p),
        block_size_(block_size),
        batch_rows_(batch_rows) {}

  Result<bool> NextView(SelView* out) override;

 private:
  const StoredRelation* store_;
  SegmentCache* cache_;
  int64_t pos_;
  int64_t end_;
  uint64_t seed_;
  double p_;
  int64_t block_size_;
  int64_t batch_rows_;
  int64_t pin_seg_ = -1;
  std::shared_ptr<const ColumnBatch> pin_;
  std::vector<int64_t> sel_;        // kept global row ids this pull
  std::vector<int64_t> local_sel_;  // per-segment-run local indices
  ColumnBatch scratch_;
};

}  // namespace gus

#endif  // GUS_STORE_SEGMENT_SOURCE_H_
