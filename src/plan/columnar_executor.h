// Batch-at-a-time columnar plan execution.
//
// The plan compiles into a pull-based pipeline of batch operators:
//
//   scan            zero-copy range views over the (cached) columnar base
//                   relation
//   select          vectorized predicate over the incoming view's rows ->
//                   composed selection vector (only the predicate's column
//                   footprint is ever gathered)
//   sample          exact mode: pass-through (block sampling re-keys
//                   lineage on the fly); sampled mode: Bernoulli and
//                   lineage-Bernoulli fuse as streaming selection
//                   composers over the geometric-skip / lineage-hash
//                   kernels (kernels/sampling_kernels.h); fixed-size and
//                   block samplers stay pipeline breakers through the
//                   shared index-selection core (sampling/samplers.h)
//   join            breaker on both inputs (build on the smaller, exactly
//                   like the row engine) into a flat open-addressing
//                   JoinHashTable (kernels/join_hash_table.h), streaming
//                   probe output
//   product/union   breakers; union dedups by lineage hash, streaming out
//
// Fused chains of scan/select/streaming-sample exchange SelViews —
// selection vectors over borrowed batches — and gather exactly once, at
// the next breaker or at the sink (see BatchSource::NextView). The top of
// the pipeline either materializes into a ColumnarRelation
// (ExecutePlanColumnar) or pushes straight into a sink.
//
// This header also holds the one execution front door, ExecutePlanToSink:
// every engine feeds the plan's output stream into mergeable sinks from
// one factory and hands back a single folded sink. ExecutePlan
// (materialized relations), EstimatePlanParallel (the SBox,
// est/streaming.h) and sqlish::RunApproxQuery (per-item builders) are sink
// factories over it, so the engine is picked in exactly one place.
//
// Engine parity: sampling decisions come from the shared kernels, the
// pipeline drains sub-plans in the row engine's post-order (left fully
// before right, children before breaker samplers), and a Bernoulli
// sampler only fuses when no other streaming Rng consumer shares its
// fragment (FragmentHasStreamingRngSampler) — so the Rng consumption
// order, and therefore every row and lineage value, is identical across
// both engines for a (plan, catalog, seed, mode) pair.

#ifndef GUS_PLAN_COLUMNAR_EXECUTOR_H_
#define GUS_PLAN_COLUMNAR_EXECUTOR_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "kernels/key_hash.h"
#include "plan/executor.h"
#include "plan/plan_node.h"
#include "rel/column_batch.h"
#include "util/random.h"
#include "util/status.h"

namespace gus {

class SegmentCache;    // store/segment_cache.h
class StoredRelation;  // store/segment_store.h

/// \brief Catalog of base relations in columnar form.
///
/// The base class is the in-memory form over a row-engine Catalog. The
/// conversion itself is memoized by each row Relation (Relation::Columnar):
/// a base relation is converted once per content and the one immutable
/// form is shared by every ColumnarCatalog over it — every query, every
/// engine, every front door (ExecutePlan, sqlish::RunApproxQuery, the
/// sharded estimator, a WorkerDaemon's start and restart) — and by copies
/// of the relation. AppendRow/AppendRowChecked drop the memo, so a mutated
/// relation never serves a stale form. The trade-off is memory: one
/// columnar copy lives as long as its relation (or its last copy).
///
/// A ColumnarCatalog holds a stable snapshot: Get() pins the relation's
/// form on first use in a shared_ptr, so a form this catalog handed out
/// stays valid and unchanged even if the relation is mutated afterwards.
/// The pin map is written lazily and is not thread-safe; concurrent users
/// either hold their own ColumnarCatalog (the memo underneath is
/// thread-safe) or warm a shared one first (WarmCatalogForPlan).
///
/// The virtual surface is what lets the execution engines run over other
/// storage unchanged: SegmentCatalog (store/segment_catalog.h) overrides it
/// to serve mmap-ed on-disk segments, exposing Stored()/segment_cache() so
/// scans can fault individual segments — and skip provably useless ones —
/// instead of materializing whole tables through Get().
class ColumnarCatalog {
 public:
  explicit ColumnarCatalog(const Catalog* catalog) : catalog_(catalog) {}
  virtual ~ColumnarCatalog() = default;

  /// \brief The fully materialized columnar form of base relation `name`.
  ///
  /// This is the compatibility surface: pipeline breakers that need a whole
  /// side resident (join builds, row-engine interop) call it. Streaming
  /// scans prefer Stored() when it returns non-null.
  virtual Result<const ColumnarRelation*> Get(const std::string& name);

  /// \brief Content fingerprint of base relation `name` (memoized by the
  /// row Relation alongside its columnar form; see Relation::Fingerprint).
  ///
  /// Hashes the schema (names + types), lineage schema, row count, every
  /// column value (strings by content, floats by bit pattern), and the
  /// lineage matrix — catalogs agree on a relation iff it is content-
  /// equivalent (rel/column_batch.h ContentFingerprint). The shard protocol
  /// combines these per plan (PlanCatalogFingerprint, dist/shard.h) so
  /// workers detect divergent base data before their partial states merge.
  virtual Result<uint64_t> Fingerprint(const std::string& name);

  /// \brief The on-disk segment form of `name`, or null for purely
  /// in-memory catalogs (the default).
  ///
  /// Non-null means scans may stream the relation segment-at-a-time
  /// through segment_cache() instead of calling Get().
  virtual Result<const StoredRelation*> Stored(const std::string& name) {
    (void)name;
    return static_cast<const StoredRelation*>(nullptr);
  }

  /// Row count of `name` without forcing materialization (segment catalogs
  /// answer from the header; the default calls Get()).
  virtual Result<int64_t> RowCountOf(const std::string& name);

  /// Layout of `name` without forcing materialization.
  virtual Result<LayoutPtr> LayoutOf(const std::string& name);

  /// The pinned-segment cache backing Stored() relations (null for
  /// in-memory catalogs).
  virtual SegmentCache* segment_cache() { return nullptr; }

  /// The row-form catalog this one converts from (null for derived
  /// catalogs with no row form, e.g. segment catalogs).
  const Catalog* row_catalog() const { return catalog_; }

 protected:
  /// For derived catalogs that do not wrap a row-engine Catalog.
  ColumnarCatalog() : catalog_(nullptr) {}

 private:
  const Catalog* catalog_;
  std::map<std::string, std::shared_ptr<const ColumnarRelation>> cache_;
};

/// \brief Pull iterator over a stream of column batches.
///
/// Two pull surfaces, each with a default implemented via the other (a
/// concrete source overrides at least one):
///
///   * Next(out)     — the classic materializing pull: rows gathered into
///                     a caller-owned batch.
///   * NextView(out) — the fused pull: a SelView over producer-owned data.
///                     Selection-composing operators (scan, select,
///                     streaming samplers) override this one and never
///                     gather; consumers that need materialized rows
///                     (breakers, sinks) gather once, at their boundary.
///
/// A returned view borrows the producer's storage and stays valid until
/// the next pull on this source.
class BatchSource {
 public:
  virtual ~BatchSource() = default;

  const LayoutPtr& layout() const { return layout_; }

  /// \brief Pulls the next batch into `out` (cleared first).
  ///
  /// Returns false when the stream is exhausted; a true return may carry an
  /// empty batch (e.g. a fully-filtered chunk) and callers keep pulling.
  /// Default: NextView + one gather.
  virtual Result<bool> Next(ColumnBatch* out);

  /// \brief Pulls the next rows as a selection view (see class comment).
  ///
  /// Same exhaustion protocol as Next; a true return may carry an empty
  /// view. Default: Next into an internal scratch batch, viewed whole.
  virtual Result<bool> NextView(SelView* out);

 protected:
  explicit BatchSource(LayoutPtr layout) : layout_(std::move(layout)) {}

  LayoutPtr layout_;

 private:
  ColumnBatch view_scratch_;  // backs the default NextView only
};

// ---- Shared pipeline building blocks ---------------------------------------
//
// Used by CompileBatchPipeline and by the morsel-parallel executor
// (plan/parallel_executor.cc), which composes per-partition pipelines from
// the same physical operators.

/// Streams rows [begin, begin + len) of `rel` (len < 0 means "to the end").
std::unique_ptr<BatchSource> MakeScanSource(const ColumnarRelation* rel,
                                            int64_t batch_rows,
                                            int64_t begin = 0,
                                            int64_t len = -1);

/// Vectorized select over `child`; binds `predicate` against the child
/// layout.
Result<std::unique_ptr<BatchSource>> MakeSelectSource(
    std::unique_ptr<BatchSource> child, const ExprPtr& predicate);

/// \brief Sampled-mode sampler over `child`.
///
/// Lineage-seeded Bernoulli always fuses (selection-composing, consumes no
/// Rng). Plain Bernoulli fuses when `stream_ok` — the caller asserts no
/// other *streaming* Rng-consuming sampler is live below in the same
/// pipeline fragment, so the geometric-skip draws interleave with nothing
/// and match the one-shot order (see FragmentHasStreamingRngSampler).
/// Everything else is a pipeline breaker routed through the shared
/// index-selection core. `rng` must outlive the source.
Result<std::unique_ptr<BatchSource>> MakeSampleSource(
    std::unique_ptr<BatchSource> child, const SamplingSpec& spec, Rng* rng,
    int64_t batch_rows, bool stream_ok);

/// \brief Streaming lineage re-key to block granularity (exact-mode block
/// sampling). `base_row` is the global scan row index of the child's first
/// row — 0 for a whole-relation pipeline, the morsel offset for a slice.
std::unique_ptr<BatchSource> MakeBlockRekeySource(
    std::unique_ptr<BatchSource> child, int64_t block_size,
    int64_t base_row = 0);

/// \brief Union of two branch pipelines.
///
/// Sampled mode: bag union keeping each lineage once (first occurrence,
/// left branch first — the Prop. 7 GUS union); validates that the branches
/// share column and lineage schemas. Exact mode: the left branch's rows
/// with the right branch drained for its error effects. The morsel engine
/// instantiates this per pivot slice: lineage determines the slice, so
/// slice-local dedup equals global dedup.
Result<std::unique_ptr<BatchSource>> MakeUnionSource(
    std::unique_ptr<BatchSource> left, std::unique_ptr<BatchSource> right,
    int64_t batch_rows, ExecMode mode);

/// \brief True when `plan`'s subtree, within the current streaming
/// fragment (stopping at pipeline breakers), contains a sampler that will
/// execute as a *streaming* Rng consumer.
///
/// A plain-Bernoulli sampler may fuse only when this is false for its
/// child: two streaming Rng consumers in one fragment would interleave
/// their draws batch-by-batch, diverging from the row engine's post-order
/// consumption. Breakers (joins, products, unions, fixed-size and block
/// samplers — and a Bernoulli that itself broke) drain everything below
/// them before emitting a row, so they reset the fragment.
bool FragmentHasStreamingRngSampler(const PlanPtr& plan, ExecMode mode);

/// Fully drains a source into a materialized columnar relation (one gather
/// per pulled view).
Result<ColumnarRelation> DrainSource(BatchSource* src);

/// \brief Runs `pipeline` to exhaustion, pushing batches into `sink`.
///
/// Views that already cover a whole producer-owned batch pass through
/// without a copy; everything else gathers once into an internal scratch.
Status PumpToSink(BatchSource* pipeline, BatchSink* sink);

/// Concatenated layout of two join/product inputs; fails on column-name or
/// lineage overlap.
Result<LayoutPtr> ConcatBatchLayouts(const BatchLayout& left,
                                     const BatchLayout& right);

/// Resets `out` to `layout` (or just clears it when already laid out).
void PrepareBatch(const LayoutPtr& layout, ColumnBatch* out);

/// \brief Compiles `plan` into a batch pipeline (static checks — unknown
/// relations, schema overlap, batch_rows < 1 — surface here).
Result<std::unique_ptr<BatchSource>> CompileBatchPipeline(
    const PlanPtr& plan, ColumnarCatalog* catalog, Rng* rng, ExecMode mode,
    int64_t batch_rows = kDefaultBatchRows);

/// Runs the pipeline to completion, materializing the result.
Result<ColumnarRelation> ExecutePlanColumnar(
    const PlanPtr& plan, ColumnarCatalog* catalog, Rng* rng,
    ExecMode mode = ExecMode::kSampled, int64_t batch_rows = kDefaultBatchRows);

/// \brief A batch sink whose state can absorb another instance's.
///
/// The morsel engine gives every morsel its own sink (as do shard workers,
/// src/dist/) and folds them in ascending unit order; MergeFrom must treat
/// `other` as the state of the partitions immediately *after* this sink's
/// (order matters for floating-point sums and row order, and the executor
/// guarantees it).
class MergeableBatchSink : public BatchSink {
 public:
  /// Absorbs `other` (same concrete type; consumed). The executor never
  /// passes a sink produced by a different factory.
  virtual Status MergeFrom(BatchSink* other) = 0;

  /// \brief Returns this sink to a reusable empty state after its contents
  /// were absorbed by MergeFrom, or false (the default) to be destroyed.
  ///
  /// Sinks that return true land in the executor's per-query reuse arena:
  /// instead of one allocation (plus expression re-binding, dictionary
  /// maps, ...) per morsel, the executor cycles roughly one sink per
  /// worker. Purely an allocation optimization — each morsel's sink still
  /// consumes only that morsel's stream and still folds in strictly
  /// ascending morsel order, so results are unchanged by construction
  /// (pinned by the sink-arena parity tests).
  virtual bool Recycle() { return false; }
};

/// \brief Creates one sink (per morsel, on the partitioned engines) for the
/// pipeline's output `layout`.
///
/// Invoked concurrently from worker threads (one call per morsel, on
/// whichever worker claims it): the factory must be thread-safe — capture
/// shared state by const reference only, and put anything mutable inside
/// the sink it returns.
using MorselSinkFactory =
    std::function<Result<std::unique_ptr<MergeableBatchSink>>(
        const BatchLayout&)>;

/// \brief The execution front door: runs `plan` on `options.engine` and
/// folds everything it emits into `*out`, a sink from `make_sink`.
///
///   kRowAtATime     the row oracle (executor.h) over catalog->row_catalog(),
///                   its relation pumped into one sink; InvalidArgument for
///                   a catalog with no row form, TypeError when a result
///                   cell disagrees with its column's type (the oracle
///                   itself never checks; ColumnarRelation::FromRelation)
///   kColumnar       the serial batch pipeline pumped into one sink
///   kMorselParallel ParallelExecutePlanToSink (plan/parallel_executor.h)
///   kServed         InvalidArgument (a sqlish-only cache front end)
///
/// This is the only place the engine is chosen.
Status ExecutePlanToSink(const PlanPtr& plan, ColumnarCatalog* catalog,
                         Rng* rng, ExecMode mode, const ExecOptions& options,
                         const MorselSinkFactory& make_sink,
                         std::unique_ptr<MergeableBatchSink>* out);

}  // namespace gus

#endif  // GUS_PLAN_COLUMNAR_EXECUTOR_H_
