// Physical sampling operators over lineage-carrying relations.
//
// Every sampler is a randomized *filter*: the output rows are a subset of
// the input rows (the GUS precondition). All samplers are deterministic
// given the Rng / seed.

#ifndef GUS_SAMPLING_SAMPLERS_H_
#define GUS_SAMPLING_SAMPLERS_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "rel/relation.h"
#include "sampling/spec.h"
#include "util/random.h"
#include "util/status.h"

namespace gus {

// ---- Index-selection cores -------------------------------------------------
//
// Every sampler first decides *which rows to keep* as a pure function of
// (row count, lineage, Rng) and only then touches tuple data. The decision
// functions below are that first half, shared by the row-at-a-time and
// columnar engines: both consume the Rng in the identical order, so the two
// engines draw bit-identical samples from identical seeds.

/// Reads a lineage id for a row (dimension fixed by the caller).
using LineageIdFn = std::function<uint64_t(int64_t row)>;

/// \brief Bernoulli(p) keep-set via the geometric-skip kernel
/// (kernels/sampling_kernels.h): ~pN + 1 Rng draws instead of N.
///
/// Equivalent in distribution to a per-row coin; the keep-set is a pure
/// function of (num_rows, p, Rng state) and identical to streaming the
/// rows through SkipBernoulliState in any span partition.
Result<std::vector<int64_t>> BernoulliKeepIndices(int64_t num_rows, double p,
                                                  Rng* rng);

/// \brief Partial Fisher-Yates WOR draw of n rows; kept indexes ascending.
///
/// Legacy sequential draw used by the standalone row-API samplers below.
/// Plan execution (DecideSampling) uses the seed-decoupled mergeable core
/// instead, so fixed-size pivots partition across morsels and shards.
Result<std::vector<int64_t>> WorKeepIndices(int64_t num_rows, int64_t n,
                                            Rng* rng);

/// Streaming reservoir WOR draw; kept indexes ascending.
Result<std::vector<int64_t>> ReservoirKeepIndices(int64_t num_rows, int64_t n,
                                                  Rng* rng);

/// n with-replacement draws, duplicates discarded; kept indexes ascending.
Result<std::vector<int64_t>> WrDistinctKeepIndices(int64_t num_rows, int64_t n,
                                                   Rng* rng);

/// One draw per *distinct block* in first-occurrence order; `block_of`
/// reads the block id of a row.
Result<std::vector<int64_t>> BlockBernoulliKeepIndices(
    int64_t num_rows, double p, const LineageIdFn& block_of, Rng* rng);

/// Deterministic lineage-seeded Bernoulli (Section 7); consumes no Rng.
Result<std::vector<int64_t>> LineageBernoulliKeepIndices(
    int64_t num_rows, double p, uint64_t seed, const LineageIdFn& id_of);

// ---- Seed-decoupled mergeable index cores ----------------------------------
//
// The partition-mergeable forms behind every fixed-size / block sampler in
// plan execution: the engine draws ONE sampler seed from its Rng stream,
// and the keep-set is then a pure function of (seed, input shape) built
// from per-row keys (kernels/sampling_kernels.h). The row, columnar and
// morsel-parallel engines and every shard worker therefore draw
// bit-identical fixed-size samples from identical seeds, and every morsel
// or shard can filter its row range against the same global keep-set.

/// \brief Exact uniform WOR(n) as the n smallest (WorPriority(seed, row),
/// row) pairs; kept indexes ascending.
///
/// Resolved by the O(N) exact selection SmallestPriorityRows. The set is
/// by definition the one folding per-range MergeableReservoir states over
/// any partition of [0, num_rows) yields — the reservoir is the reference
/// and test oracle, not the executed path.
Result<std::vector<int64_t>> DecoupledWorKeepIndices(int64_t num_rows,
                                                     int64_t n, uint64_t seed);

/// \brief n with-replacement draws WrDrawTarget(seed, d), duplicates
/// discarded; kept indexes ascending.
///
/// Any partition computes its slice by intersecting the same n targets
/// with its row range.
Result<std::vector<int64_t>> DecoupledWrDistinctKeepIndices(int64_t num_rows,
                                                            int64_t n,
                                                            uint64_t seed);

/// \brief Block-Bernoulli keep-set with per-block decisions
/// DecoupledBlockKeep(seed, block, p); `block_of` reads a row's block id.
Result<std::vector<int64_t>> DecoupledBlockKeepIndices(
    int64_t num_rows, double p, const LineageIdFn& block_of, uint64_t seed);

/// \brief The outcome of dispatching a SamplingSpec on an input shape.
struct SamplingDecision {
  /// Kept row indexes, in output order.
  std::vector<int64_t> keep;
  /// kBlockBernoulli only: the output's (single-dimension) lineage must be
  /// re-keyed to block granularity — id = input row index / spec.block_size.
  bool rekey_block_lineage = false;
};

/// \brief Validates `spec` against the input shape and draws the kept rows.
///
/// `lineage_schema` and `lineage_at(row, dim)` describe the input's lineage
/// without committing to a storage layout; every engine routes its
/// sampling through this single function. Fixed-size and block methods
/// consume exactly one Rng value (the sampler seed) and dispatch to the
/// seed-decoupled cores above, so their keep-sets are invariant under any
/// morsel/shard partition of the same input.
Result<SamplingDecision> DecideSampling(
    const SamplingSpec& spec, int64_t num_rows,
    const std::vector<std::string>& lineage_schema,
    const std::function<uint64_t(int64_t, int)>& lineage_at, Rng* rng);

// ---- Row-engine physical samplers -----------------------------------------

/// Independent coin per row with probability p.
Result<Relation> BernoulliSample(const Relation& input, double p, Rng* rng);

/// \brief Uniform fixed-size sample of n rows without replacement.
///
/// Uses a partial Fisher-Yates shuffle over row indexes: O(N) space,
/// O(n) swaps. Fails if n exceeds the input cardinality.
Result<Relation> WorSample(const Relation& input, int64_t n, Rng* rng);

/// \brief Reservoir variant of WOR sampling (single streaming pass).
///
/// Statistically identical to WorSample; exists to exercise the streaming
/// code path and as a cross-check in tests. Output preserves input order.
Result<Relation> ReservoirSample(const Relation& input, int64_t n, Rng* rng);

/// n uniform draws with replacement; duplicate rows are discarded so the
/// result is a filter (the GUS-compatible with-replacement variant).
Result<Relation> WrDistinctSample(const Relation& input, int64_t n, Rng* rng);

/// \brief Re-keys a base relation's lineage to block granularity.
///
/// Rows [0, block_size) get lineage id 0, the next block id 1, and so on.
/// Block sampling is a GUS *on block lineage*: two tuples of the same block
/// always share their sampling fate, which GUS expresses by giving them
/// equal lineage ids. Only valid on single-lineage (base) relations.
Result<Relation> AssignBlockLineage(const Relation& input, int64_t block_size);

/// \brief Keeps whole blocks with probability p.
///
/// Input must have block-granularity lineage (see AssignBlockLineage); the
/// decision for a block is made once and applied to all of its rows.
Result<Relation> BlockBernoulliSample(const Relation& input, double p,
                                      Rng* rng);

/// \brief Section 7 sub-sampler: lineage-seeded pseudo-random Bernoulli.
///
/// Keeps a row iff LineageUnitValue(seed, id) < p where id is the row's
/// lineage for `relation`. Because the decision is a pure function of
/// (seed, id), a base tuple receives one consistent decision across every
/// result tuple it participates in — the property that makes this a GUS.
/// Works on derived relations; needs only one seed per base relation.
Result<Relation> LineageBernoulliSample(const Relation& input,
                                        const std::string& relation, double p,
                                        uint64_t seed);

/// Applies any spec to `input` (dispatch over the methods above).
Result<Relation> ApplySampling(const Relation& input, const SamplingSpec& spec,
                               Rng* rng);

}  // namespace gus

#endif  // GUS_SAMPLING_SAMPLERS_H_
