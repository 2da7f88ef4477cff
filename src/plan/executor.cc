#include "plan/executor.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <utility>
#include <vector>

#include "plan/columnar_executor.h"
#include "plan/exec_stats.h"
#include "plan/parallel_executor.h"
#include "rel/operators.h"
#include "sampling/samplers.h"
#include "util/thread_pool.h"

namespace gus {

namespace {

Result<Relation> ExecutePlanRow(const PlanPtr& plan, const Catalog& catalog,
                                Rng* rng, ExecMode mode) {
  switch (plan->op()) {
    case PlanOp::kScan: {
      auto it = catalog.find(plan->relation());
      if (it == catalog.end()) {
        return Status::KeyError("relation '" + plan->relation() +
                                "' not in catalog");
      }
      return it->second;
    }
    case PlanOp::kSample: {
      GUS_ASSIGN_OR_RETURN(Relation input,
                           ExecutePlanRow(plan->child(), catalog, rng, mode));
      if (mode == ExecMode::kExact) {
        // Exact mode computes the true aggregate: sampling is a no-op, but
        // block sampling still re-keys lineage so that sampled and exact
        // runs agree on lineage granularity.
        if (plan->spec().method == SamplingMethod::kBlockBernoulli) {
          return AssignBlockLineage(input, plan->spec().block_size);
        }
        return input;
      }
      return ApplySampling(input, plan->spec(), rng);
    }
    case PlanOp::kSelect: {
      GUS_ASSIGN_OR_RETURN(Relation input,
                           ExecutePlanRow(plan->child(), catalog, rng, mode));
      return Select(input, plan->predicate());
    }
    case PlanOp::kJoin: {
      GUS_ASSIGN_OR_RETURN(Relation l,
                           ExecutePlanRow(plan->left(), catalog, rng, mode));
      GUS_ASSIGN_OR_RETURN(Relation r,
                           ExecutePlanRow(plan->right(), catalog, rng, mode));
      return HashJoin(l, r, plan->left_key(), plan->right_key());
    }
    case PlanOp::kProduct: {
      GUS_ASSIGN_OR_RETURN(Relation l,
                           ExecutePlanRow(plan->left(), catalog, rng, mode));
      GUS_ASSIGN_OR_RETURN(Relation r,
                           ExecutePlanRow(plan->right(), catalog, rng, mode));
      return CrossProduct(l, r);
    }
    case PlanOp::kUnion: {
      GUS_ASSIGN_OR_RETURN(Relation l,
                           ExecutePlanRow(plan->left(), catalog, rng, mode));
      GUS_ASSIGN_OR_RETURN(Relation r,
                           ExecutePlanRow(plan->right(), catalog, rng, mode));
      if (mode == ExecMode::kExact) {
        // Exact evaluation of both branches yields the same set; the union
        // of a set with itself is itself.
        return l;
      }
      return UnionDistinctLineage(l, r);
    }
  }
  return Status::Internal("unknown plan op");
}

/// \brief Concatenates morsel parts into one relation, bit-identical to
/// appending them sequentially (ColumnarRelation::AppendBatch part by
/// part) but with the column copies parallel over parts.
///
/// The only order-sensitive work — string-dictionary unification — runs
/// serially first, walking the parts in order and replicating
/// AppendRangeFrom's semantics exactly: the first non-empty part's
/// dictionary is adopted (shared), later parts with the same dictionary
/// pointer copy codes verbatim, others intern their values in part order
/// and get a code remap table. Every destination row range is then
/// disjoint, so parts copy concurrently.
ColumnarRelation ConcatPartsToRelation(const LayoutPtr& layout,
                                       std::vector<ColumnarRelation> parts,
                                       ThreadPool* pool, int workers) {
  // Non-empty parts in order, with destination row offsets.
  std::vector<const ColumnBatch*> src;
  std::vector<int64_t> offset;
  int64_t total = 0;
  for (const ColumnarRelation& p : parts) {
    if (p.num_rows() == 0) continue;
    src.push_back(&p.data());
    offset.push_back(total);
    total += p.num_rows();
  }
  ColumnarRelation out(layout);
  if (total == 0) return out;
  ColumnBatch* dst = out.mutable_data();

  const int num_cols = layout->schema.num_columns();
  const int arity = layout->lineage_arity();
  const int64_t num_parts = static_cast<int64_t>(src.size());

  // Serial phase: dictionary unification in part order. remaps[p][c] is
  // empty when part p's column c copies codes verbatim.
  std::vector<std::vector<std::vector<uint32_t>>> remaps(
      static_cast<size_t>(num_parts));
  for (int c = 0; c < num_cols; ++c) {
    if (layout->schema.column(c).type != ValueType::kString) continue;
    ColumnData* dc = dst->mutable_column(c);
    for (int64_t p = 0; p < num_parts; ++p) {
      const ColumnData& from = src[p]->column(c);
      if (dc->dict == nullptr) {
        dc->dict = from.dict;  // first non-empty part: adopt (shared)
      }
      if (dc->dict != from.dict && from.dict != nullptr) {
        remaps[p].resize(num_cols);
        std::vector<uint32_t> remap;
        remap.reserve(from.dict->values.size());
        for (const std::string& s : from.dict->values) {
          remap.push_back(dc->dict->Intern(s));
        }
        remaps[p][c] = std::move(remap);
      }
    }
  }

  // Pre-size the destination, then copy parts into their disjoint ranges.
  for (int c = 0; c < num_cols; ++c) {
    ColumnData* dc = dst->mutable_column(c);
    switch (dc->type) {
      case ValueType::kInt64: dc->i64.resize(total); break;
      case ValueType::kFloat64: dc->f64.resize(total); break;
      case ValueType::kString: dc->codes.resize(total); break;
    }
  }
  dst->mutable_lineage()->resize(static_cast<size_t>(total) * arity);
  dst->SetNumRows(total);

  const auto copy_part = [&](int64_t p) {
    const ColumnBatch& from = *src[p];
    const int64_t rows = from.num_rows();
    const int64_t at = offset[p];
    for (int c = 0; c < num_cols; ++c) {
      const ColumnData& fc = from.column(c);
      ColumnData* dc = dst->mutable_column(c);
      switch (dc->type) {
        case ValueType::kInt64:
          std::copy_n(fc.i64.begin(), rows, dc->i64.begin() + at);
          break;
        case ValueType::kFloat64:
          std::copy_n(fc.f64.begin(), rows, dc->f64.begin() + at);
          break;
        case ValueType::kString: {
          const std::vector<uint32_t>* remap =
              remaps[p].empty() || remaps[p][c].empty() ? nullptr
                                                        : &remaps[p][c];
          if (remap == nullptr) {
            std::copy_n(fc.codes.begin(), rows, dc->codes.begin() + at);
          } else {
            for (int64_t i = 0; i < rows; ++i) {
              dc->codes[at + i] = (*remap)[fc.codes[i]];
            }
          }
          break;
        }
      }
    }
    std::copy_n(from.lineage().begin(), static_cast<size_t>(rows) * arity,
                dst->mutable_lineage()->begin() +
                    static_cast<size_t>(at) * arity);
  };

  if (pool == nullptr || workers <= 1 || num_parts <= 1) {
    for (int64_t p = 0; p < num_parts; ++p) copy_part(p);
  } else {
    pool->ParallelForChunked(num_parts, /*chunk=*/1, workers,
                             [&](int, int64_t b, int64_t e) {
                               for (int64_t p = b; p < e; ++p) copy_part(p);
                             });
  }
  return out;
}

/// \brief ExecutePlan's materializing sink: each morsel's batches
/// accumulate into one part, and the ordered fold just *collects* the
/// parts (an O(1) list splice) instead of copying them into a growing
/// relation on the single folder thread.
///
/// The actual concatenation runs once at the end, parallel over parts
/// (ConcatPartsToRelation), producing bit-identical bytes to folding with
/// sequential AppendBatch calls.
class RelationSink final : public MergeableBatchSink {
 public:
  explicit RelationSink(LayoutPtr layout)
      : layout_(std::move(layout)), part_(layout_) {}

  Status Consume(const ColumnBatch& batch) override {
    part_.AppendBatch(batch);
    return Status::OK();
  }

  Status MergeFrom(BatchSink* other) override {
    auto* o = static_cast<RelationSink*>(other);
    // Fold order == morsel order, so appending the later sink's parts
    // after ours preserves the global part sequence.
    if (o->part_.num_rows() > 0) parts_.push_back(std::move(o->part_));
    for (ColumnarRelation& p : o->parts_) parts_.push_back(std::move(p));
    o->parts_.clear();
    return Status::OK();
  }

  bool Recycle() override {
    part_ = ColumnarRelation(layout_);
    parts_.clear();
    return true;
  }

  /// \brief Gather phase: the fold only spliced part lists (O(1) per
  /// morsel); the concat + dictionary unification copies run here, with
  /// the disjoint per-part copies parallel over `options.num_threads`.
  /// A sink that merged nothing (the serial engines) already holds the
  /// whole result and returns it without a copy.
  ColumnarRelation Concat(const ExecOptions& options) {
    if (parts_.empty()) return std::move(part_);
    const auto t_gather = std::chrono::steady_clock::now();
    std::vector<ColumnarRelation> parts;
    parts.reserve(parts_.size() + 1);
    parts.push_back(std::move(part_));
    for (ColumnarRelation& p : parts_) parts.push_back(std::move(p));
    parts_.clear();
    const int64_t num_parts = static_cast<int64_t>(parts.size());
    const int workers = static_cast<int>(std::min<int64_t>(
        std::max(1, options.num_threads), num_parts));
    ColumnarRelation result(layout_);
    if (workers > 1) {
      PoolLease lease(workers);
      result = ConcatPartsToRelation(layout_, std::move(parts), lease.get(),
                                     workers);
    } else {
      result = ConcatPartsToRelation(layout_, std::move(parts),
                                     /*pool=*/nullptr, /*workers=*/1);
    }
    const double gather_ms = std::chrono::duration<double, std::milli>(
                                 std::chrono::steady_clock::now() - t_gather)
                                 .count();
    if (options.stats != nullptr) {
      options.stats->gather_ms = gather_ms;
      options.stats->total_ms += gather_ms;
    } else if (ProfileEnvEnabled()) {
      std::fprintf(stderr, "[gus profile]   gather     %.3f ms (%lld parts)\n",
                   gather_ms, static_cast<long long>(num_parts));
    }
    return result;
  }

 private:
  LayoutPtr layout_;
  ColumnarRelation part_;                // this sink's consumed rows
  std::vector<ColumnarRelation> parts_;  // merged later parts, in order
};

/// Pumps `source` into one sink from `make_sink` (the serial engines).
Status PumpIntoOneSink(BatchSource* source, const MorselSinkFactory& make_sink,
                       std::unique_ptr<MergeableBatchSink>* out) {
  GUS_ASSIGN_OR_RETURN(std::unique_ptr<MergeableBatchSink> sink,
                       make_sink(*source->layout()));
  GUS_RETURN_NOT_OK(PumpToSink(source, sink.get()));
  *out = std::move(sink);
  return Status::OK();
}

}  // namespace

Status ExecutePlanToSink(const PlanPtr& plan, ColumnarCatalog* catalog,
                         Rng* rng, ExecMode mode, const ExecOptions& options,
                         const MorselSinkFactory& make_sink,
                         std::unique_ptr<MergeableBatchSink>* out) {
  GUS_RETURN_NOT_OK(options.Validate());
  if (options.stats != nullptr) options.stats->Reset();
  switch (options.engine) {
    case ExecEngine::kRowAtATime: {
      if (catalog->row_catalog() == nullptr) {
        return Status::InvalidArgument(
            "ExecEngine::kRowAtATime needs a catalog with a row form");
      }
      GUS_ASSIGN_OR_RETURN(
          Relation result,
          ExecutePlanRow(plan, *catalog->row_catalog(), rng, mode));
      GUS_ASSIGN_OR_RETURN(ColumnarRelation columnar,
                           ColumnarRelation::FromRelation(result));
      return PumpIntoOneSink(
          MakeScanSource(&columnar, options.batch_rows).get(), make_sink,
          out);
    }
    case ExecEngine::kColumnar: {
      GUS_ASSIGN_OR_RETURN(std::unique_ptr<BatchSource> pipeline,
                           CompileBatchPipeline(plan, catalog, rng, mode,
                                                options.batch_rows));
      return PumpIntoOneSink(pipeline.get(), make_sink, out);
    }
    case ExecEngine::kMorselParallel:
      return ParallelExecutePlanToSink(plan, catalog, rng, mode, options,
                                       make_sink, out);
    case ExecEngine::kServed:
      return Status::InvalidArgument(
          "ExecEngine::kServed serves cached estimates (sqlish "
          "RunApproxQuery); it executes no plan itself");
  }
  return Status::Internal("unknown execution engine");
}

Result<Relation> ExecutePlan(const PlanPtr& plan, const Catalog& catalog,
                             Rng* rng, ExecMode mode, ExecEngine engine) {
  ExecOptions options;
  options.engine = engine;
  return ExecutePlan(plan, catalog, rng, mode, options);
}

Result<Relation> ExecutePlan(const PlanPtr& plan, const Catalog& catalog,
                             Rng* rng, ExecMode mode,
                             const ExecOptions& options) {
  GUS_RETURN_NOT_OK(options.Validate());
  if (options.engine == ExecEngine::kRowAtATime) {
    return ExecutePlanRow(plan, catalog, rng, mode);
  }
  ColumnarCatalog columnar(&catalog);
  std::unique_ptr<MergeableBatchSink> sink;
  GUS_RETURN_NOT_OK(ExecutePlanToSink(
      plan, &columnar, rng, mode, options,
      [](const BatchLayout& layout)
          -> Result<std::unique_ptr<MergeableBatchSink>> {
        return std::unique_ptr<MergeableBatchSink>(
            new RelationSink(std::make_shared<BatchLayout>(layout)));
      },
      &sink));
  return static_cast<RelationSink*>(sink.get())->Concat(options).ToRelation();
}

}  // namespace gus
