// Shard planning for shared-nothing distributed estimation.
//
// The scatter/gather contract (see ARCHITECTURE.md, "Distributed
// data-flow"): a query is described to every worker by the tiny tuple
// (plan, catalog name, seed, shard_index, num_shards) — the *estimator
// state* is what travels back, serialized with est/wire.h. PlanShards is
// deterministic in (plan, catalog, mode, exec options, num_shards), so a
// worker can recompute its own ShardSpec locally instead of receiving it;
// the coordinator only needs the workers' result bundles.
//
// Shard-count invariance: shards are contiguous ranges of the morsel
// engine's global unit sequence (plan/parallel_executor.h,
// AnalyzeMorselSplit). Unit u always draws from
// Rng::ForkStream(stream_base, u) and partial states merge in ascending
// unit order, so ANY shard count — including 1 — reproduces the identical
// bits, and all of them match ExecEngine::kMorselParallel at the same
// (seed, morsel_rows). This is the paper's algebra doing the work: GUS
// designs compose per tuple (Props. 4–6), so partitioning the pivot scan
// never changes the sampling design, and the SBox state is mergeable
// (est/ Merge family), so partial executions combine without bias.

#ifndef GUS_DIST_SHARD_H_
#define GUS_DIST_SHARD_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "plan/parallel_executor.h"
#include "plan/plan_node.h"
#include "util/status.h"

namespace gus {

/// One shard's slice of the global execution-unit sequence.
struct ShardSpec {
  int shard_index = 0;
  int num_shards = 1;
  /// Global unit range [unit_begin, unit_end); may be empty when there are
  /// more shards than units.
  int64_t unit_begin = 0;
  int64_t unit_end = 0;
};

/// The full deterministic scatter layout for a query.
struct ShardPlan {
  int num_shards = 1;
  MorselSplit split;
  std::vector<ShardSpec> shards;
};

/// \brief Execution options normalized for sharding: an unset morsel_rows
/// (auto-sizing reads num_threads) is pinned to kDefaultMorselRows so the
/// unit split is invariant across shard AND thread counts.
ExecOptions ShardedExecOptions(const ExecOptions& exec);

/// \brief Carves AnalyzeMorselSplit's unit sequence into `num_shards`
/// contiguous ranges (shard k gets [k*U/N, (k+1)*U/N)).
///
/// Callers pass options already normalized by ShardedExecOptions.
Result<ShardPlan> PlanShards(const PlanPtr& plan, ColumnarCatalog* catalog,
                             ExecMode mode, const ExecOptions& exec,
                             int num_shards);

/// \brief The WireTag::kMeta payload every shard bundle carries: split
/// geometry plus the stream base, cross-checked at gather time.
///
/// stream_base is drawn from the worker's Rng *after* it executes the
/// serial non-pivot subtrees, so it fingerprints (plan, catalog, seed):
/// a worker running against a divergent catalog or seed produces a
/// different stream base and the gather fails loudly instead of merging
/// incompatible partial states.
struct ShardMeta {
  uint32_t shard_index = 0;
  uint32_t num_shards = 1;
  int64_t unit_begin = 0;
  int64_t unit_end = 0;
  int64_t num_units = 0;
  int64_t morsel_rows = 0;
  uint64_t seed = 0;
  uint64_t stream_base = 0;
  /// Content fingerprint of the base relations the plan scans
  /// (PlanCatalogFingerprint): workers executing against divergent base
  /// data are rejected at gather (and, when the coordinator passes the
  /// expected value down, before they execute at all).
  uint64_t catalog_fingerprint = 0;
  /// Sink-dependent row count (e.g. sample rows that reached the sink).
  int64_t rows = 0;
};

std::string ShardMetaToBytes(const ShardMeta& meta);
Result<ShardMeta> ShardMetaFromBytes(std::string_view payload);

/// \brief Validates a gathered set of metas: one per shard in index order,
/// identical geometry, stream base, and catalog fingerprint, ranges tiling
/// [0, num_units).
Status ValidateShardMetas(const std::vector<ShardMeta>& metas);

/// \brief The partial-gather variant of ValidateShardMetas: `metas` is any
/// non-empty subset of a shard plan's bundles, in strictly ascending shard
/// index order.
///
/// Enforces the same consistency contract (identical num_shards,
/// num_units, morsel_rows, seed, stream base, catalog fingerprint across
/// the subset) and that every meta covers exactly its canonical range of
/// the global unit sequence — but NOT complete tiling: the uncovered
/// ranges are precisely what est/partial_gather re-weights for. Merging a
/// subset whose members disagree on the plan geometry would be silently
/// biased, so those checks stay as hard here as in the complete gather.
Status ValidateSurvivingShardMetas(const std::vector<ShardMeta>& metas);

/// \brief Combined content fingerprint of every base relation `plan`
/// scans (names sorted + deduplicated, each hashed with its
/// ColumnarCatalog::Fingerprint).
///
/// Deterministic in (plan's scan set, catalog content) — two workers agree
/// iff they hold content-equivalent copies of the scanned base data.
Result<uint64_t> PlanCatalogFingerprint(const PlanPtr& plan,
                                        ColumnarCatalog* catalog);

/// \brief Converts every in-memory base relation `plan` scans into
/// columnar form ahead of concurrent shard workers.
///
/// A ColumnarCatalog's map of pinned forms is written lazily on first use
/// and is not thread-safe; warming it serially lets concurrent workers (the
/// in-process scatter's pool, a daemon's request threads) share the
/// catalog read-only afterwards. The conversion itself is memoized by each
/// row Relation, so warming a relation that was converted before costs no
/// pass over its rows. Segment-backed relations are skipped: they stream
/// through the thread-safe pinned cache, and materializing them would
/// defeat out-of-core execution. Fingerprints are left to
/// PlanCatalogFingerprint (memoized alongside the form).
Status WarmCatalogForPlan(const PlanPtr& plan, ColumnarCatalog* catalog);

/// \brief WireTag::kSamplerState payload: the pivot-path fixed-size
/// samplers a worker resolved during its serial prepare phase
/// (method, seed, keep-set fingerprint each).
///
/// Byte-equality across shard bundles proves every worker resolved the
/// identical global fixed-size draws before the partial states merge —
/// the mergeable-sampler analogue of the RNGS seed fingerprint.
std::string SamplerStateToBytes(
    const std::vector<ResolvedPivotSampler>& samplers);
Result<std::vector<ResolvedPivotSampler>> SamplerStateFromBytes(
    std::string_view payload);

}  // namespace gus

#endif  // GUS_DIST_SHARD_H_
