#include "store/segment_source.h"

#include <algorithm>
#include <utility>

#include "kernels/sampling_kernels.h"

namespace gus {

namespace {

/// ScanSource's stored twin: contiguous range views over pinned segments,
/// clipped at segment ends.
class StoredScanSliceSource final : public BatchSource {
 public:
  StoredScanSliceSource(const StoredRelation* store, SegmentCache* cache,
                        const std::vector<char>* cols, int64_t batch_rows,
                        int64_t begin, int64_t len)
      : BatchSource(store->layout_ptr()),
        store_(store),
        cache_(cache),
        cols_(cols),
        batch_rows_(batch_rows),
        pos_(begin),
        end_(len < 0 ? store->num_rows()
                     : std::min(begin + len, store->num_rows())) {}

  Result<bool> NextView(SelView* out) override {
    if (pos_ >= end_) return false;
    const int64_t s = store_->SegmentOfRow(pos_);
    if (s != pin_seg_) {
      GUS_ASSIGN_OR_RETURN(pin_, cache_->Fault(*store_, s, *cols_));
      pin_seg_ = s;
    }
    const SegmentInfo& info = store_->segment(s);
    const int64_t seg_end = info.row_begin + info.row_count;
    const int64_t len =
        std::min(batch_rows_, std::min(end_, seg_end) - pos_);
    *out = SelView::Range(pin_.get(), pos_ - info.row_begin, len);
    pos_ += len;
    return true;
  }

 private:
  const StoredRelation* store_;
  SegmentCache* cache_;
  const std::vector<char>* cols_;
  int64_t batch_rows_;
  int64_t pos_;
  int64_t end_;
  int64_t pin_seg_ = -1;
  std::shared_ptr<const ColumnBatch> pin_;
};

}  // namespace

std::unique_ptr<BatchSource> MakeStoredScanSource(
    const StoredRelation* store, SegmentCache* cache,
    const std::vector<char>* cols, int64_t batch_rows, int64_t begin,
    int64_t len) {
  return std::unique_ptr<BatchSource>(
      new StoredScanSliceSource(store, cache, cols, batch_rows, begin, len));
}

Result<bool> StoredKeepSliceSource::NextView(SelView* out) {
  if (pos_ >= end_) return false;
  const std::vector<int64_t>& keep = *keep_;
  const int64_t s = store_->SegmentOfRow(keep[pos_]);
  if (s != pin_seg_) {
    GUS_ASSIGN_OR_RETURN(pin_, cache_->Fault(*store_, s, *cols_));
    pin_seg_ = s;
  }
  const SegmentInfo& info = store_->segment(s);
  const int64_t seg_end = info.row_begin + info.row_count;
  sel_.clear();
  while (pos_ < end_ && static_cast<int64_t>(sel_.size()) < batch_rows_ &&
         keep[pos_] < seg_end) {
    sel_.push_back(keep[pos_] - info.row_begin);
    ++pos_;
  }
  *out = SelView::Selection(pin_.get(), sel_);
  return true;
}

Result<bool> StoredBlockSampleSource::NextView(SelView* out) {
  if (pos_ >= end_) return false;
  sel_.clear();
  const int64_t stop = std::min(end_, pos_ + batch_rows_);
  while (pos_ < stop) {
    const int64_t block = pos_ / block_size_;
    const int64_t block_end = std::min(stop, (block + 1) * block_size_);
    if (DecoupledBlockKeep(seed_, static_cast<uint64_t>(block), p_)) {
      for (int64_t r = pos_; r < block_end; ++r) sel_.push_back(r);
    }
    pos_ = block_end;
  }
  // Gather segment-run at a time (a kept block may straddle a segment
  // boundary); GatherFrom appends, so runs concatenate in row order.
  PrepareBatch(layout_, &scratch_);
  size_t k = 0;
  while (k < sel_.size()) {
    const int64_t s = store_->SegmentOfRow(sel_[k]);
    if (s != pin_seg_) {
      GUS_ASSIGN_OR_RETURN(pin_, cache_->Fault(*store_, s));
      pin_seg_ = s;
    }
    const SegmentInfo& info = store_->segment(s);
    const int64_t seg_end = info.row_begin + info.row_count;
    local_sel_.clear();
    while (k < sel_.size() && sel_[k] < seg_end) {
      local_sel_.push_back(sel_[k] - info.row_begin);
      ++k;
    }
    scratch_.GatherFrom(*pin_, local_sel_.data(),
                        static_cast<int64_t>(local_sel_.size()));
  }
  auto& lineage = *scratch_.mutable_lineage();
  for (size_t i = 0; i < sel_.size(); ++i) {
    lineage[i] = static_cast<uint64_t>(sel_[i] / block_size_);
  }
  *out = SelView::Whole(&scratch_);
  return true;
}

}  // namespace gus
