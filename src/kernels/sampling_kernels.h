// Batch sampling kernels — the per-row hot loops behind the samplers in
// sampling/samplers.h.
//
// Geometric-skip Bernoulli (Vitter-style): instead of one Rng draw per
// input row, draw the gap to the next kept row directly from the geometric
// distribution, skip = floor(log(u) / log(1-p)) with u uniform in (0, 1].
// A Bernoulli(p) scan then costs ~pN + 1 draws instead of N. The state is
// resumable across spans: feeding the same Rng through any partition of a
// row stream into spans consumes the identical draw sequence and yields
// the identical keep-set as one span of the whole stream — the property
// that lets the fused streaming sampler (plan/columnar_executor.cc) stay
// bit-identical to the one-shot DecideSampling path used by the row
// engine and by pipeline-breaker samplers.
//
// Draw discipline (what makes the equivalence exact): the first skip is
// drawn when the first row arrives (never for an empty stream), and after
// emitting a kept row the next skip is drawn immediately. Total draws:
// 0 for an empty stream, #kept + 1 otherwise. p <= 0 and p >= 1 are
// handled without any draws (keep nothing / keep everything).
//
// The lineage-Bernoulli kernel is the Section 7 filter over flat lineage
// arrays: it hashes (seed, id) in a tight branch-free loop — no per-row
// Value boxing, no std::function dispatch — and consumes no Rng, so it is
// trivially identical between streaming and one-shot evaluation.
//
// The seed-decoupled fixed-size kernels at the bottom are the partition-
// mergeable counterparts of the classic sequential draws: a sampler first
// consumes exactly ONE value from the engine's Rng stream (its sampler
// seed), and every per-row priority key / per-draw target / per-block
// decision is then a pure function of (seed, unit index) via
// Rng::ForkStream. Because no state flows between units, any partition of
// the rows into morsels or shards computes the identical keys, and a
// fixed-size WOR draw reduces to "the n smallest priority keys". The
// executed kernel finds them by an exact O(N) selection
// (SmallestPriorityRows); MergeableReservoir is the reference definition
// of the same set — bounded per-partition candidates folded in any
// grouping — and the oracle the tests compare the kernel against.

#ifndef GUS_KERNELS_SAMPLING_KERNELS_H_
#define GUS_KERNELS_SAMPLING_KERNELS_H_

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/random.h"

namespace gus {

/// \brief Resumable geometric-skip Bernoulli(p) position generator.
///
/// Positions are indexes into the logical row stream fed through
/// NextSpan; the caller maps them onto storage (selection vectors,
/// absolute batch offsets) as needed.
class SkipBernoulliState {
 public:
  explicit SkipBernoulliState(double p);

  /// \brief Advances over the next `len` logical rows, appending the kept
  /// offsets *relative to this span's start* (in [0, len)) to `keep`.
  void NextSpan(int64_t len, Rng* rng, std::vector<int64_t>* keep);

 private:
  void Advance(Rng* rng);  // draws one skip, moves next_ past it

  double p_;
  double inv_log_q_ = 0.0;  // 1 / log(1 - p) for 0 < p < 1
  bool drawn_ = false;      // first skip drawn yet?
  int64_t next_ = 0;        // absolute logical index of the next kept row
  int64_t consumed_ = 0;    // logical rows consumed so far
};

/// \brief One-shot geometric-skip Bernoulli keep-set over `num_rows` rows.
///
/// Bit-identical (same keeps, same Rng consumption) to streaming the rows
/// through SkipBernoulliState in arbitrary spans.
void SkipBernoulliKeepIndices(int64_t num_rows, double p, Rng* rng,
                              std::vector<int64_t>* keep);

/// \brief Lineage-seeded Bernoulli over a flat row-major lineage matrix.
///
/// Appends row indexes r in [begin, begin + len) with
/// LineageUnitValue(seed, lineage[r * arity + dim]) < p. Branch-free
/// append (no per-row conditional push).
void LineageBernoulliDense(double p, uint64_t seed, const uint64_t* lineage,
                           int arity, int dim, int64_t begin, int64_t len,
                           std::vector<int64_t>* keep);

/// Selection-vector variant: tests rows sel[0..len) of the lineage matrix
/// and appends the surviving sel values (composes selections in place).
void LineageBernoulliGather(double p, uint64_t seed, const uint64_t* lineage,
                            int arity, int dim, const int64_t* sel,
                            int64_t len, std::vector<int64_t>* keep);

/// \brief One keep/drop decision per distinct block id, drawn at first
/// occurrence.
///
/// Flat vector of states for the dense id range (block ids are row-index /
/// block-size or base-table lineage, both small dense integers), with a
/// hash-map spill for pathological ids beyond the dense cap. Reusable
/// across calls via Reset(), which is O(1): each dense slot carries the
/// epoch it was decided in, so stale decisions from earlier calls expire
/// by epoch bump rather than by re-zeroing the whole vector — repeated
/// block-sampled scans pay neither re-allocation nor an
/// O(historical max block id) clear.
class BlockDecisionCache {
 public:
  /// The block's decision, drawing it on first occurrence.
  bool Decide(uint64_t block, double p, Rng* rng);

  /// Forgets all decisions (keeps allocated capacity; O(1)).
  void Reset();

 private:
  static constexpr uint64_t kDenseCap = uint64_t{1} << 22;

  /// Dense slot: (epoch << 1) | keep. Decided this epoch iff the stored
  /// epoch matches epoch_.
  std::vector<uint32_t> dense_;
  uint32_t epoch_ = 1;  // slots default to 0 = "decided in epoch 0" = stale
  std::unordered_map<uint64_t, bool> sparse_;  // rare: ids >= kDenseCap
};

// ---- Seed-decoupled fixed-size sampling kernels ----------------------------

/// \brief Priority key of row `row` under sampler stream `seed`.
///
/// Pure function of its arguments — every engine, thread, and shard computes
/// the identical key for a row, so "keep the n smallest (priority, row)
/// pairs" is a partition-independent definition of a uniform WOR draw:
/// the keys are i.i.d. uniform 64-bit values, and the rows carrying the n
/// smallest keys form a uniformly distributed size-n subset.
inline uint64_t WorPriority(uint64_t seed, uint64_t row) {
  return Rng::ForkStream(seed, row).Next();
}

/// \brief Bernoulli(p) keep decision for block `block` under stream `seed`.
///
/// Pure function of (seed, block): a block's fate never depends on which
/// morsel or shard evaluates it, so block-sampled scans partition freely.
inline bool DecoupledBlockKeep(uint64_t seed, uint64_t block, double p) {
  return Rng::ForkStream(seed, block).Uniform() < p;
}

/// \brief Target row of the d-th with-replacement draw over `population`
/// rows (pure function of (seed, draw)).
///
/// Each draw runs Lemire rejection inside its own forked stream, so the
/// target is exact-uniform and independent across draws.
inline int64_t WrDrawTarget(uint64_t seed, int64_t draw, int64_t population) {
  Rng r = Rng::ForkStream(seed, static_cast<uint64_t>(draw));
  return static_cast<int64_t>(
      r.UniformInt(static_cast<uint64_t>(population)));
}

/// \brief The n smallest (priority[row], row) pairs over rows
/// [0, num_rows), as their rows ascending; requires 0 <= n <= num_rows.
///
/// The executed fixed-size WOR kernel (DecoupledWorKeepIndices), exact and
/// O(N): a histogram of the top 12 key bits finds the bucket holding rank
/// n, nth_element over that bucket's candidates (~N/4096 of them for
/// uniform keys) fixes the exact cutoff pair, and one ascending pass emits
/// every row whose pair is <= the cutoff — so no final sort. Ties on the
/// key break on the row index, the same total order MergeableReservoir
/// uses, so both select the identical rows for any key array.
std::vector<int64_t> SmallestPriorityRows(const uint64_t* priority,
                                          int64_t num_rows, int64_t n);

/// \brief Bounded candidate state for an exact distributed top-n
/// (smallest-priority) selection — the reference definition of a
/// fixed-size WOR keep-set and the test oracle for SmallestPriorityRows.
///
/// Each partition offers its rows' (priority, row) pairs and retains at
/// most n candidates; folding the per-partition states (in any grouping)
/// yields exactly the global n smallest pairs, because a row outside a
/// partition's local top-n can never be in the global top-n. Ties break on
/// the row index, so the selection is total even under (astronomically
/// unlikely) equal keys. This partition-independence is what makes the
/// keep-set identical on every engine and shard; the engines themselves
/// resolve it with SmallestPriorityRows, which is O(N) rather than this
/// heap's O(N log n).
class MergeableReservoir {
 public:
  explicit MergeableReservoir(int64_t n) : n_(n) {}

  int64_t capacity() const { return n_; }
  int64_t size() const { return static_cast<int64_t>(heap_.size()); }

  /// Offers one candidate.
  void Offer(uint64_t priority, int64_t row);

  /// Offers rows [row_begin, row_end) with WorPriority(seed, row) keys.
  void OfferRange(uint64_t seed, int64_t row_begin, int64_t row_end);

  /// Folds another partition's candidates into this state (exact).
  void MergeFrom(const MergeableReservoir& other);

  /// The kept rows, ascending (input order — samplers are filters).
  std::vector<int64_t> SortedRows() const;

 private:
  using Candidate = std::pair<uint64_t, int64_t>;  // (priority, row)

  int64_t n_;
  /// Max-heap on (priority, row): top() is the weakest kept candidate.
  std::vector<Candidate> heap_;
};

}  // namespace gus

#endif  // GUS_KERNELS_SAMPLING_KERNELS_H_
