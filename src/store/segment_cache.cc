#include "store/segment_cache.h"

#include <utility>

namespace gus {

Result<std::shared_ptr<const ColumnBatch>> SegmentCache::Fault(
    const StoredRelation& rel, int64_t s, const std::vector<char>& cols) {
  const Key key{&rel, s, cols};
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    auto it = slots_.find(key);
    if (it == slots_.end()) break;
    if (!it->second.loading) {
      counters_.hits += 1;
      lru_.erase(it->second.lru_pos);
      lru_.push_front(key);
      it->second.lru_pos = lru_.begin();
      return it->second.batch;
    }
    // Another worker is decoding this segment: wait, then re-look-up (the
    // slot may have been evicted or replaced by the time we wake).
    load_done_.wait(lock);
  }
  Slot& slot = slots_[key];
  slot.loading = true;
  lock.unlock();

  Result<ColumnBatch> decoded = rel.DecodeSegment(s, cols);

  lock.lock();
  auto it = slots_.find(key);
  GUS_CHECK(it != slots_.end() && it->second.loading);
  if (!decoded.ok()) {
    slots_.erase(it);
    load_done_.notify_all();
    return decoded.status();
  }
  const int64_t bytes = rel.PageBytes(s, cols);
  auto batch =
      std::make_shared<const ColumnBatch>(std::move(decoded).ValueOrDie());
  it->second.loading = false;
  it->second.batch = batch;
  it->second.bytes = bytes;
  lru_.push_front(key);
  it->second.lru_pos = lru_.begin();
  counters_.faults += 1;
  counters_.bytes_read += bytes;
  counters_.resident_bytes += bytes;
  EvictOverBudgetLocked();
  load_done_.notify_all();
  return {std::move(batch)};
}

void SegmentCache::EvictOverBudgetLocked() {
  while (counters_.resident_bytes > options_.max_bytes && !lru_.empty()) {
    const Key victim = lru_.back();
    auto it = slots_.find(victim);
    GUS_CHECK(it != slots_.end() && !it->second.loading);
    counters_.resident_bytes -= it->second.bytes;
    counters_.evictions += 1;
    lru_.pop_back();
    slots_.erase(it);
  }
}

void SegmentCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  // Loading slots are owned by their decoding worker; drop only settled
  // entries.
  for (auto it = slots_.begin(); it != slots_.end();) {
    if (it->second.loading) {
      ++it;
      continue;
    }
    counters_.resident_bytes -= it->second.bytes;
    lru_.erase(it->second.lru_pos);
    it = slots_.erase(it);
  }
}

SegmentCacheCounters SegmentCache::counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_;
}

}  // namespace gus
