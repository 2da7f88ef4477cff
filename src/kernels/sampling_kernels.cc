#include "kernels/sampling_kernels.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "kernels/simd/simd_dispatch.h"
#include "util/hash.h"
#include "util/logging.h"

namespace gus {

namespace {

/// Positions never reach this; used to park the cursor "past any stream"
/// when a drawn skip is astronomically large, without risking overflow.
constexpr int64_t kFarAway = int64_t{1} << 62;

}  // namespace

SkipBernoulliState::SkipBernoulliState(double p) : p_(p) {
  if (p_ > 0.0 && p_ < 1.0) inv_log_q_ = 1.0 / std::log1p(-p_);
}

void SkipBernoulliState::Advance(Rng* rng) {
  // u in (0, 1]: log(u) is finite and <= 0, so skip >= 0 always.
  const double u = 1.0 - rng->Uniform();
  const double skip = std::floor(std::log(u) * inv_log_q_);
  if (!(skip < static_cast<double>(kFarAway)) || next_ >= kFarAway) {
    next_ = kFarAway;
  } else {
    next_ += 1 + static_cast<int64_t>(skip);
  }
}

void SkipBernoulliState::NextSpan(int64_t len, Rng* rng,
                                  std::vector<int64_t>* keep) {
  if (len <= 0 || p_ <= 0.0) {
    consumed_ += len > 0 ? len : 0;
    return;
  }
  const int64_t begin = consumed_;
  const int64_t end = consumed_ + len;
  if (p_ >= 1.0) {
    for (int64_t i = 0; i < len; ++i) keep->push_back(i);
    consumed_ = end;
    return;
  }
  if (!drawn_) {
    // First row of the stream: position the cursor with the first skip.
    drawn_ = true;
    next_ = begin - 1;
    Advance(rng);
  }
  while (next_ < end) {
    keep->push_back(next_ - begin);
    Advance(rng);
  }
  consumed_ = end;
}

void SkipBernoulliKeepIndices(int64_t num_rows, double p, Rng* rng,
                              std::vector<int64_t>* keep) {
  keep->reserve(keep->size() + static_cast<size_t>(p * num_rows) + 16);
  SkipBernoulliState state(p);
  state.NextSpan(num_rows, rng, keep);
}

void LineageBernoulliDense(double p, uint64_t seed, const uint64_t* lineage,
                           int arity, int dim, int64_t begin, int64_t len,
                           std::vector<int64_t>* keep) {
  const size_t base = keep->size();
  keep->resize(base + static_cast<size_t>(len));
  // The keep test runs as the integer-threshold form (exact equivalent of
  // `LineageUnitValue(seed, id) < p`) so every dispatch tier decides
  // identically; see simd::LineageKeepThreshold.
  const uint64_t threshold = simd::LineageKeepThreshold(p);
  const uint64_t* ids = lineage + static_cast<size_t>(begin) * arity + dim;
  const int64_t n = simd::LineageKeepDense(seed, threshold, ids, arity, begin,
                                           len, keep->data() + base);
  keep->resize(base + static_cast<size_t>(n));
}

void LineageBernoulliGather(double p, uint64_t seed, const uint64_t* lineage,
                            int arity, int dim, const int64_t* sel,
                            int64_t len, std::vector<int64_t>* keep) {
  const size_t base = keep->size();
  keep->resize(base + static_cast<size_t>(len));
  const uint64_t threshold = simd::LineageKeepThreshold(p);
  const int64_t n = simd::LineageKeepGather(seed, threshold, lineage, arity,
                                            dim, sel, len,
                                            keep->data() + base);
  keep->resize(base + static_cast<size_t>(n));
}

bool BlockDecisionCache::Decide(uint64_t block, double p, Rng* rng) {
  if (block < kDenseCap) {
    if (block >= dense_.size()) {
      dense_.resize(static_cast<size_t>(block) + 1, 0);
    }
    uint32_t& slot = dense_[block];
    if ((slot >> 1) != epoch_) {
      slot = (epoch_ << 1) | (rng->Bernoulli(p) ? 1u : 0u);
    }
    return (slot & 1u) != 0;
  }
  auto it = sparse_.find(block);
  if (it == sparse_.end()) {
    it = sparse_.emplace(block, rng->Bernoulli(p)).first;
  }
  return it->second;
}

std::vector<int64_t> SmallestPriorityRows(const uint64_t* priority,
                                          int64_t num_rows, int64_t n) {
  GUS_DCHECK(n >= 0 && n <= num_rows);
  std::vector<int64_t> keep;
  if (n == 0) return keep;

  // 1. Histogram of the top kBucketBits of every key.
  constexpr int kBucketBits = 12;
  constexpr int kShift = 64 - kBucketBits;
  std::array<int64_t, size_t{1} << kBucketBits> hist{};
  for (int64_t row = 0; row < num_rows; ++row) ++hist[priority[row] >> kShift];

  // 2. The bucket holding rank n, then the exact cutoff pair inside it.
  uint64_t bucket = 0;
  int64_t below = 0;  // keys in buckets before `bucket`
  while (below + hist[bucket] < n) below += hist[bucket++];
  std::vector<std::pair<uint64_t, int64_t>> candidates;
  candidates.reserve(static_cast<size_t>(hist[bucket]));
  for (int64_t row = 0; row < num_rows; ++row) {
    if ((priority[row] >> kShift) == bucket) {
      candidates.emplace_back(priority[row], row);
    }
  }
  const auto cutoff = candidates.begin() + (n - below - 1);
  std::nth_element(candidates.begin(), cutoff, candidates.end());
  const auto [cut_priority, cut_row] = *cutoff;

  // 3. Exactly n pairs are <= the cutoff; emit their rows in order with a
  // branch-free append (one spare slot absorbs the write after the last).
  keep.resize(static_cast<size_t>(n) + 1);
  int64_t kept = 0;
  for (int64_t row = 0; row < num_rows; ++row) {
    const uint64_t p = priority[row];
    keep[static_cast<size_t>(kept)] = row;
    kept += static_cast<int64_t>((p < cut_priority) |
                                 ((p == cut_priority) & (row <= cut_row)));
  }
  GUS_DCHECK(kept == n);
  keep.resize(static_cast<size_t>(n));
  return keep;
}

void MergeableReservoir::Offer(uint64_t priority, int64_t row) {
  if (n_ <= 0) return;
  const Candidate cand{priority, row};
  if (static_cast<int64_t>(heap_.size()) < n_) {
    heap_.push_back(cand);
    std::push_heap(heap_.begin(), heap_.end());
    return;
  }
  if (cand < heap_.front()) {
    std::pop_heap(heap_.begin(), heap_.end());
    heap_.back() = cand;
    std::push_heap(heap_.begin(), heap_.end());
  }
}

void MergeableReservoir::OfferRange(uint64_t seed, int64_t row_begin,
                                    int64_t row_end) {
  for (int64_t row = row_begin; row < row_end; ++row) {
    Offer(WorPriority(seed, static_cast<uint64_t>(row)), row);
  }
}

void MergeableReservoir::MergeFrom(const MergeableReservoir& other) {
  for (const Candidate& cand : other.heap_) {
    Offer(cand.first, cand.second);
  }
}

std::vector<int64_t> MergeableReservoir::SortedRows() const {
  std::vector<int64_t> rows;
  rows.reserve(heap_.size());
  for (const Candidate& cand : heap_) rows.push_back(cand.second);
  std::sort(rows.begin(), rows.end());
  return rows;
}

void BlockDecisionCache::Reset() {
  // Epoch bump invalidates every dense decision in O(1). The epoch field
  // is 31 bits; on wraparound, fall back to one full clear.
  epoch_ = (epoch_ + 1) & 0x7fffffffu;
  if (epoch_ == 0) {
    std::fill(dense_.begin(), dense_.end(), 0u);
    epoch_ = 1;
  }
  sparse_.clear();
}

}  // namespace gus
