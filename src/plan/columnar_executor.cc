#include "plan/columnar_executor.h"

#include <algorithm>
#include <unordered_set>
#include <utility>
#include <vector>

#include "kernels/join_hash_table.h"
#include "kernels/key_hash.h"
#include "kernels/sampling_kernels.h"
#include "plan/vector_eval.h"
#include "sampling/samplers.h"
#include "store/segment_source.h"
#include "util/hash.h"
#include "util/logging.h"

namespace gus {

Result<bool> BatchSource::Next(ColumnBatch* out) {
  SelView view;
  GUS_ASSIGN_OR_RETURN(bool more, NextView(&view));
  if (!more) return false;
  PrepareBatch(layout_, out);
  if (view.num_rows() > 0) out->AppendView(view);
  return true;
}

Result<bool> BatchSource::NextView(SelView* out) {
  GUS_ASSIGN_OR_RETURN(bool more, Next(&view_scratch_));
  if (!more) return false;
  *out = SelView::Whole(&view_scratch_);
  return true;
}

Result<const ColumnarRelation*> ColumnarCatalog::Get(const std::string& name) {
  auto cached = cache_.find(name);
  if (cached != cache_.end()) return cached->second.get();
  auto it = catalog_->find(name);
  if (it == catalog_->end()) {
    return Status::KeyError("relation '" + name + "' not in catalog");
  }
  GUS_ASSIGN_OR_RETURN(std::shared_ptr<const ColumnarRelation> col,
                       it->second.Columnar());
  return cache_.emplace(name, std::move(col)).first->second.get();
}

Result<uint64_t> ColumnarCatalog::Fingerprint(const std::string& name) {
  GUS_ASSIGN_OR_RETURN(const ColumnarRelation* rel, Get(name));
  auto it = catalog_->find(name);
  if (it == catalog_->end()) {
    return Status::KeyError("relation '" + name + "' not in catalog");
  }
  return it->second.Fingerprint(name, *rel);
}

Result<int64_t> ColumnarCatalog::RowCountOf(const std::string& name) {
  GUS_ASSIGN_OR_RETURN(const ColumnarRelation* rel, Get(name));
  return rel->num_rows();
}

Result<LayoutPtr> ColumnarCatalog::LayoutOf(const std::string& name) {
  GUS_ASSIGN_OR_RETURN(const ColumnarRelation* rel, Get(name));
  return rel->layout_ptr();
}

void PrepareBatch(const LayoutPtr& layout, ColumnBatch* out) {
  if (out->layout_ptr() != layout) {
    out->ResetLayout(layout);
  } else {
    out->Clear();
  }
}

Result<ColumnarRelation> DrainSource(BatchSource* src) {
  ColumnarRelation out(src->layout());
  SelView view;
  while (true) {
    GUS_ASSIGN_OR_RETURN(bool more, src->NextView(&view));
    if (!more) break;
    if (view.num_rows() > 0) out.mutable_data()->AppendView(view);
  }
  return out;
}

Status PumpToSink(BatchSource* pipeline, BatchSink* sink) {
  SelView view;
  ColumnBatch scratch;
  const bool views = sink->wants_views();
  const std::vector<char>* cols = sink->columns_read();
  while (true) {
    GUS_ASSIGN_OR_RETURN(bool more, pipeline->NextView(&view));
    if (!more) break;
    if (view.num_rows() == 0) continue;
    if (view.whole_batch()) {
      GUS_RETURN_NOT_OK(sink->Consume(*view.data));
      continue;
    }
    if (views) {
      // Gather-free hand-off: the sink reads the borrowed columns through
      // the selection directly.
      GUS_RETURN_NOT_OK(sink->ConsumeView(view));
      continue;
    }
    // Only the columns the sink declared (plus lineage) are copied.
    PrepareBatch(pipeline->layout(), &scratch);
    scratch.AppendView(view, cols);
    GUS_RETURN_NOT_OK(sink->Consume(scratch));
  }
  return Status::OK();
}

Result<LayoutPtr> ConcatBatchLayouts(const BatchLayout& left,
                                     const BatchLayout& right) {
  for (const auto& name : left.lineage_schema) {
    for (const auto& other : right.lineage_schema) {
      if (name == other) {
        return Status::InvalidArgument(
            "join inputs must have disjoint lineage schemas (self-joins are "
            "not supported by the GUS algebra, paper Prop. 6)");
      }
    }
  }
  auto layout = std::make_shared<BatchLayout>();
  GUS_ASSIGN_OR_RETURN(layout->schema,
                       Schema::Concat(left.schema, right.schema));
  layout->lineage_schema = left.lineage_schema;
  layout->lineage_schema.insert(layout->lineage_schema.end(),
                                right.lineage_schema.begin(),
                                right.lineage_schema.end());
  return LayoutPtr(layout);
}

// ---- Sources ---------------------------------------------------------------

namespace {

/// Zero-copy scan: emits range views straight over the resident columnar
/// relation — no per-batch slice copies.
class ScanSource final : public BatchSource {
 public:
  ScanSource(const ColumnarRelation* rel, int64_t batch_rows, int64_t begin,
             int64_t len)
      : BatchSource(rel->layout_ptr()),
        rel_(rel),
        batch_rows_(batch_rows),
        pos_(begin),
        end_(len < 0 ? rel->num_rows()
                     : std::min(begin + len, rel->num_rows())) {}

  Result<bool> NextView(SelView* out) override {
    if (pos_ >= end_) return false;
    const int64_t len = std::min(batch_rows_, end_ - pos_);
    *out = SelView::Range(&rel_->data(), pos_, len);
    pos_ += len;
    return true;
  }

 private:
  const ColumnarRelation* rel_;
  int64_t batch_rows_;
  int64_t pos_;
  int64_t end_;
};

/// Fused select: composes the child view's selection with the predicate's
/// truthy rows; only the predicate's column footprint is gathered.
class SelectSource final : public BatchSource {
 public:
  SelectSource(std::unique_ptr<BatchSource> child, ExprPtr bound)
      : BatchSource(child->layout()),
        child_(std::move(child)),
        bound_(std::move(bound)) {
    ExprColumnFootprint(bound_, layout_->schema.num_columns(), &footprint_);
  }

  Result<bool> NextView(SelView* out) override {
    SelView in;
    GUS_ASSIGN_OR_RETURN(bool more, child_->NextView(&in));
    if (!more) return false;
    GUS_RETURN_NOT_OK(EvalPredicateView(bound_, in, footprint_,
                                        &eval_scratch_, &range_scratch_,
                                        &sel_));
    *out = SelView::Selection(in.data, sel_);
    return true;
  }

 private:
  std::unique_ptr<BatchSource> child_;
  ExprPtr bound_;
  std::vector<char> footprint_;
  ColumnBatch eval_scratch_;
  std::vector<int64_t> range_scratch_;
  std::vector<int64_t> sel_;
};

/// \brief Fused Bernoulli sampler: advances the resumable geometric-skip
/// kernel over the child's logical row stream and composes the kept rows
/// into the selection — no materialization, ~p rows' worth of Rng draws.
///
/// Only instantiated when no other streaming Rng consumer shares the
/// fragment (see FragmentHasStreamingRngSampler), so the draw order —
/// hence the keep-set — is bit-identical to the one-shot
/// BernoulliKeepIndices the row engine and breaker paths use.
class FusedBernoulliSource final : public BatchSource {
 public:
  FusedBernoulliSource(std::unique_ptr<BatchSource> child, double p, Rng* rng)
      : BatchSource(child->layout()),
        child_(std::move(child)),
        state_(p),
        rng_(rng) {}

  Result<bool> NextView(SelView* out) override {
    SelView in;
    GUS_ASSIGN_OR_RETURN(bool more, child_->NextView(&in));
    if (!more) return false;
    local_.clear();
    state_.NextSpan(in.num_rows(), rng_, &local_);
    sel_.clear();
    sel_.reserve(local_.size());
    if (in.contiguous()) {
      for (const int64_t off : local_) sel_.push_back(in.begin + off);
    } else {
      for (const int64_t off : local_) sel_.push_back(in.sel[off]);
    }
    *out = SelView::Selection(in.data, sel_);
    return true;
  }

 private:
  std::unique_ptr<BatchSource> child_;
  SkipBernoulliState state_;
  Rng* rng_;
  std::vector<int64_t> local_;
  std::vector<int64_t> sel_;
};

/// Fused Section-7 sub-sampler: lineage-hash filter composed into the
/// selection in one tight loop (no Rng, no Value boxing).
class FusedLineageBernoulliSource final : public BatchSource {
 public:
  FusedLineageBernoulliSource(std::unique_ptr<BatchSource> child, double p,
                              uint64_t seed, int dim)
      : BatchSource(child->layout()),
        child_(std::move(child)),
        p_(p),
        seed_(seed),
        dim_(dim) {}

  Result<bool> NextView(SelView* out) override {
    SelView in;
    GUS_ASSIGN_OR_RETURN(bool more, child_->NextView(&in));
    if (!more) return false;
    sel_.clear();
    const int arity = layout_->lineage_arity();
    const uint64_t* lineage = in.data->lineage().data();
    if (in.contiguous()) {
      LineageBernoulliDense(p_, seed_, lineage, arity, dim_, in.begin, in.len,
                            &sel_);
    } else {
      LineageBernoulliGather(p_, seed_, lineage, arity, dim_, in.sel,
                             in.sel_len, &sel_);
    }
    *out = SelView::Selection(in.data, sel_);
    return true;
  }

 private:
  std::unique_ptr<BatchSource> child_;
  double p_;
  uint64_t seed_;
  int dim_;
  std::vector<int64_t> sel_;
};

/// Exact-mode block sampling: streaming lineage re-key to block ids.
/// `base` is the global row index of the child's first row (non-zero when
/// the child is a morsel slice of the scan).
class BlockRekeySource final : public BatchSource {
 public:
  BlockRekeySource(std::unique_ptr<BatchSource> child, int64_t block_size,
                   int64_t base = 0)
      : BatchSource(child->layout()),
        child_(std::move(child)),
        block_size_(block_size),
        base_(base) {}

  Result<bool> Next(ColumnBatch* out) override {
    GUS_ASSIGN_OR_RETURN(bool more, child_->Next(out));
    if (!more) return false;
    auto& lineage = *out->mutable_lineage();
    for (int64_t i = 0; i < out->num_rows(); ++i) {
      lineage[i] = static_cast<uint64_t>((base_ + i) / block_size_);
    }
    base_ += out->num_rows();
    return true;
  }

 private:
  std::unique_ptr<BatchSource> child_;
  int64_t block_size_;
  int64_t base_ = 0;
};

/// Sampled-mode sampler: pipeline breaker routed through the shared
/// index-selection core, so the Rng sequence matches the row engine's.
class SampleBreakerSource final : public BatchSource {
 public:
  SampleBreakerSource(std::unique_ptr<BatchSource> child, SamplingSpec spec,
                      Rng* rng, int64_t batch_rows)
      : BatchSource(child->layout()),
        child_(std::move(child)),
        spec_(std::move(spec)),
        rng_(rng),
        batch_rows_(batch_rows) {}

  Result<bool> NextView(SelView* out) override {
    if (!drained_) {
      GUS_ASSIGN_OR_RETURN(mat_, DrainSource(child_.get()));
      const ColumnBatch& data = mat_.data();
      GUS_ASSIGN_OR_RETURN(
          SamplingDecision d,
          DecideSampling(spec_, mat_.num_rows(), mat_.lineage_schema(),
                         [&data](int64_t r, int dim) {
                           return data.lineage_at(r, dim);
                         },
                         rng_));
      keep_ = std::move(d.keep);
      rekey_ = d.rekey_block_lineage;
      drained_ = true;
    }
    if (pos_ >= static_cast<int64_t>(keep_.size())) return false;
    const int64_t len =
        std::min(batch_rows_, static_cast<int64_t>(keep_.size()) - pos_);
    const int64_t* sel = keep_.data() + pos_;
    if (rekey_) {
      // Block lineage re-key (id = pre-filter row index / block size)
      // mutates rows, so this path gathers into an owned batch.
      PrepareBatch(layout_, &rekey_scratch_);
      rekey_scratch_.GatherFrom(mat_.data(), sel, len);
      auto& lineage = *rekey_scratch_.mutable_lineage();
      for (int64_t k = 0; k < len; ++k) {
        lineage[k] = static_cast<uint64_t>(sel[k] / spec_.block_size);
      }
      *out = SelView::Whole(&rekey_scratch_);
    } else {
      SelView v;
      v.data = &mat_.data();
      v.sel = sel;
      v.sel_len = len;
      *out = v;
    }
    pos_ += len;
    return true;
  }

 private:
  std::unique_ptr<BatchSource> child_;
  SamplingSpec spec_;
  Rng* rng_;
  int64_t batch_rows_;
  bool drained_ = false;
  ColumnarRelation mat_;
  std::vector<int64_t> keep_;
  bool rekey_ = false;
  ColumnBatch rekey_scratch_;
  int64_t pos_ = 0;
};

/// Probe rows processed per batch-probe refill (hash + ProbeBatch +
/// vectorized key recheck amortize their type dispatch over this many
/// rows).
constexpr int64_t kProbeChunkRows = 1024;

/// Hash equi-join: breaker on both inputs (left drains first, preserving
/// the row engine's post-order Rng consumption), streaming probe output.
///
/// The probe loop runs chunk-at-a-time: hash a chunk of probe rows, batch-
/// probe the table (prefetched), then recheck key equality vectorized over
/// the candidate pair list (FilterEqualKeyPairs) instead of per row —
/// emission order is identical to the classic per-row loop (probe rows
/// ascending, candidates in build input order).
class JoinSource final : public BatchSource {
 public:
  JoinSource(LayoutPtr layout, std::unique_ptr<BatchSource> left,
             std::unique_ptr<BatchSource> right, int left_key, int right_key,
             int64_t batch_rows)
      : BatchSource(std::move(layout)),
        left_(std::move(left)),
        right_(std::move(right)),
        left_key_(left_key),
        right_key_(right_key),
        batch_rows_(batch_rows) {}

  Result<bool> Next(ColumnBatch* out) override {
    if (!drained_) GUS_RETURN_NOT_OK(DrainAndBuild());
    PrepareBatch(layout_, out);
    const ColumnBatch& probe = probe_mat_->data();
    const int64_t probe_rows = probe.num_rows();
    const ColumnData& probe_key = probe.column(probe_key_);
    const ColumnData& build_key = build_mat_->data().column(build_key_);
    while (out->num_rows() < batch_rows_) {
      if (emit_pos_ >= static_cast<int64_t>(pair_probe_.size())) {
        if (probe_pos_ >= probe_rows) break;
        const int64_t chunk =
            std::min(kProbeChunkRows, probe_rows - probe_pos_);
        hash_scratch_.resize(static_cast<size_t>(chunk));
        KeyHashRange(probe_key, probe_dict_hashes_, probe_pos_, chunk,
                     hash_scratch_.data());
        pair_probe_.clear();
        pair_build_.clear();
        table_.ProbeBatch(hash_scratch_.data(), chunk, &pair_probe_,
                          &pair_build_);
        for (int64_t& p : pair_probe_) p += probe_pos_;
        FilterEqualKeyPairs(probe_key, build_key, &pair_probe_, &pair_build_);
        emit_pos_ = 0;
        probe_pos_ += chunk;
        continue;
      }
      // Batch emit: typed column gathers over the surviving pair lists
      // instead of a per-row variant walk. Order is unchanged (pairs are
      // consumed front to back).
      const int64_t pairs = static_cast<int64_t>(pair_probe_.size());
      const int64_t take =
          std::min(batch_rows_ - out->num_rows(), pairs - emit_pos_);
      const int64_t* probe_idx = pair_probe_.data() + emit_pos_;
      const int64_t* build_idx = pair_build_.data() + emit_pos_;
      const int64_t* li = build_left_ ? build_idx : probe_idx;
      const int64_t* ri = build_left_ ? probe_idx : build_idx;
      out->AppendConcatGather(left_mat_.data(), li, right_mat_.data(), ri,
                              take);
      emit_pos_ += take;
    }
    if (out->num_rows() == 0 && probe_pos_ >= probe_rows &&
        emit_pos_ >= static_cast<int64_t>(pair_probe_.size())) {
      return false;
    }
    return true;
  }

 private:
  Status DrainAndBuild() {
    GUS_ASSIGN_OR_RETURN(left_mat_, DrainSource(left_.get()));
    GUS_ASSIGN_OR_RETURN(right_mat_, DrainSource(right_.get()));
    // Build on the smaller input — the row engine's rule, bit for bit.
    build_left_ = left_mat_.num_rows() <= right_mat_.num_rows();
    build_mat_ = build_left_ ? &left_mat_ : &right_mat_;
    probe_mat_ = build_left_ ? &right_mat_ : &left_mat_;
    build_key_ = build_left_ ? left_key_ : right_key_;
    probe_key_ = build_left_ ? right_key_ : left_key_;
    const ColumnData& key = build_mat_->data().column(build_key_);
    probe_dict_hashes_ = DictKeyHashes(probe_mat_->data().column(probe_key_));
    GUS_RETURN_NOT_OK(table_.BuildFrom(key, build_mat_->num_rows()));
    drained_ = true;
    return Status::OK();
  }

  std::unique_ptr<BatchSource> left_;
  std::unique_ptr<BatchSource> right_;
  int left_key_;
  int right_key_;
  int64_t batch_rows_;
  bool drained_ = false;
  ColumnarRelation left_mat_, right_mat_;
  bool build_left_ = true;
  const ColumnarRelation* build_mat_ = nullptr;
  const ColumnarRelation* probe_mat_ = nullptr;
  int build_key_ = 0, probe_key_ = 0;
  std::vector<uint64_t> probe_dict_hashes_;
  JoinHashTable table_;
  int64_t probe_pos_ = 0;
  std::vector<uint64_t> hash_scratch_;
  std::vector<int64_t> pair_probe_, pair_build_;
  int64_t emit_pos_ = 0;
};

/// Cross product: breaker on both inputs, left-major streaming output.
class ProductSource final : public BatchSource {
 public:
  ProductSource(LayoutPtr layout, std::unique_ptr<BatchSource> left,
                std::unique_ptr<BatchSource> right, int64_t batch_rows)
      : BatchSource(std::move(layout)),
        left_(std::move(left)),
        right_(std::move(right)),
        batch_rows_(batch_rows) {}

  Result<bool> Next(ColumnBatch* out) override {
    if (!drained_) {
      GUS_ASSIGN_OR_RETURN(left_mat_, DrainSource(left_.get()));
      GUS_ASSIGN_OR_RETURN(right_mat_, DrainSource(right_.get()));
      drained_ = true;
    }
    if (i_ >= left_mat_.num_rows() || right_mat_.num_rows() == 0) {
      return false;
    }
    PrepareBatch(layout_, out);
    // Stage the (i, j) index pairs of this output chunk, then emit them in
    // one batched gather per column.
    li_scratch_.clear();
    ri_scratch_.clear();
    while (static_cast<int64_t>(li_scratch_.size()) < batch_rows_ &&
           i_ < left_mat_.num_rows()) {
      li_scratch_.push_back(i_);
      ri_scratch_.push_back(j_);
      if (++j_ >= right_mat_.num_rows()) {
        j_ = 0;
        ++i_;
      }
    }
    out->AppendConcatGather(left_mat_.data(), li_scratch_.data(),
                            right_mat_.data(), ri_scratch_.data(),
                            static_cast<int64_t>(li_scratch_.size()));
    return true;
  }

 private:
  std::unique_ptr<BatchSource> left_;
  std::unique_ptr<BatchSource> right_;
  int64_t batch_rows_;
  bool drained_ = false;
  ColumnarRelation left_mat_, right_mat_;
  int64_t i_ = 0, j_ = 0;
  std::vector<int64_t> li_scratch_, ri_scratch_;
};

/// Exact-mode union: the exact evaluation of both branches yields the same
/// set, so only the left branch's rows flow downstream — but the right
/// branch still *runs* (rows discarded) once the left is exhausted, so its
/// runtime errors surface exactly as they do in the row engine, which
/// executes both branches.
class ExactUnionSource final : public BatchSource {
 public:
  ExactUnionSource(std::unique_ptr<BatchSource> left,
                   std::unique_ptr<BatchSource> right)
      : BatchSource(left->layout()),
        left_(std::move(left)),
        right_(std::move(right)) {}

  Result<bool> Next(ColumnBatch* out) override {
    if (!left_done_) {
      GUS_ASSIGN_OR_RETURN(bool more, left_->Next(out));
      if (more) return true;
      left_done_ = true;
    }
    while (!right_done_) {
      GUS_ASSIGN_OR_RETURN(bool more, right_->Next(&discard_));
      if (!more) right_done_ = true;
    }
    return false;
  }

 private:
  std::unique_ptr<BatchSource> left_;
  std::unique_ptr<BatchSource> right_;
  ColumnBatch discard_;
  bool left_done_ = false;
  bool right_done_ = false;
};

/// Bag union keeping each lineage once (first occurrence, left first) —
/// the sampled-mode GUS union of Prop. 7.
class UnionSource final : public BatchSource {
 public:
  UnionSource(std::unique_ptr<BatchSource> left,
              std::unique_ptr<BatchSource> right, int64_t batch_rows)
      : BatchSource(left->layout()),
        left_(std::move(left)),
        right_(std::move(right)),
        batch_rows_(batch_rows) {}

  Result<bool> Next(ColumnBatch* out) override {
    if (!drained_) GUS_RETURN_NOT_OK(DrainAndDedup());
    const int64_t total_a = static_cast<int64_t>(sel_a_.size());
    const int64_t total_b = static_cast<int64_t>(sel_b_.size());
    if (pos_ >= total_a + total_b) return false;
    PrepareBatch(layout_, out);
    while (out->num_rows() < batch_rows_ && pos_ < total_a + total_b) {
      const int64_t want = batch_rows_ - out->num_rows();
      if (pos_ < total_a) {
        const int64_t len = std::min(want, total_a - pos_);
        out->GatherFrom(a_mat_.data(), sel_a_.data() + pos_, len);
        pos_ += len;
      } else {
        const int64_t off = pos_ - total_a;
        const int64_t len = std::min(want, total_b - off);
        out->GatherFrom(b_mat_.data(), sel_b_.data() + off, len);
        pos_ += len;
      }
    }
    return true;
  }

 private:
  Status DrainAndDedup() {
    GUS_ASSIGN_OR_RETURN(a_mat_, DrainSource(left_.get()));
    GUS_ASSIGN_OR_RETURN(b_mat_, DrainSource(right_.get()));
    const int arity = layout_->lineage_arity();
    std::unordered_set<uint64_t> seen;
    seen.reserve(
        static_cast<size_t>(a_mat_.num_rows() + b_mat_.num_rows()));
    auto add_all = [&](const ColumnarRelation& mat,
                       std::vector<int64_t>* sel) {
      const auto& lineage = mat.data().lineage();
      for (int64_t i = 0; i < mat.num_rows(); ++i) {
        const uint64_t h = HashLineageRow(
            lineage.data() + static_cast<size_t>(i) * arity, arity);
        if (seen.insert(h).second) sel->push_back(i);
      }
    };
    add_all(a_mat_, &sel_a_);
    add_all(b_mat_, &sel_b_);
    drained_ = true;
    return Status::OK();
  }

  std::unique_ptr<BatchSource> left_;
  std::unique_ptr<BatchSource> right_;
  int64_t batch_rows_;
  bool drained_ = false;
  ColumnarRelation a_mat_, b_mat_;
  std::vector<int64_t> sel_a_, sel_b_;
  int64_t pos_ = 0;
};

}  // namespace

std::unique_ptr<BatchSource> MakeScanSource(const ColumnarRelation* rel,
                                            int64_t batch_rows, int64_t begin,
                                            int64_t len) {
  return std::unique_ptr<BatchSource>(
      new ScanSource(rel, batch_rows, begin, len));
}

std::unique_ptr<BatchSource> MakeBlockRekeySource(
    std::unique_ptr<BatchSource> child, int64_t block_size, int64_t base_row) {
  return std::unique_ptr<BatchSource>(
      new BlockRekeySource(std::move(child), block_size, base_row));
}

Result<std::unique_ptr<BatchSource>> MakeUnionSource(
    std::unique_ptr<BatchSource> left, std::unique_ptr<BatchSource> right,
    int64_t batch_rows, ExecMode mode) {
  if (mode == ExecMode::kExact) {
    return std::unique_ptr<BatchSource>(
        new ExactUnionSource(std::move(left), std::move(right)));
  }
  if (!(left->layout()->schema == right->layout()->schema)) {
    return Status::InvalidArgument("union inputs must share a column schema");
  }
  if (left->layout()->lineage_schema != right->layout()->lineage_schema) {
    return Status::InvalidArgument(
        "union inputs must share a lineage schema (samples of the same "
        "expression, paper Prop. 7)");
  }
  return std::unique_ptr<BatchSource>(
      new UnionSource(std::move(left), std::move(right), batch_rows));
}

Result<std::unique_ptr<BatchSource>> MakeSelectSource(
    std::unique_ptr<BatchSource> child, const ExprPtr& predicate) {
  GUS_ASSIGN_OR_RETURN(ExprPtr bound,
                       predicate->Bind(child->layout()->schema));
  return std::unique_ptr<BatchSource>(
      new SelectSource(std::move(child), std::move(bound)));
}

Result<std::unique_ptr<BatchSource>> MakeSampleSource(
    std::unique_ptr<BatchSource> child, const SamplingSpec& spec, Rng* rng,
    int64_t batch_rows, bool stream_ok) {
  GUS_RETURN_NOT_OK(spec.Validate());
  switch (spec.method) {
    case SamplingMethod::kLineageBernoulli: {
      // Pure function of (seed, lineage id): always fuses.
      const auto& ls = child->layout()->lineage_schema;
      const auto it = std::find(ls.begin(), ls.end(), spec.lineage_relation);
      if (it == ls.end()) {
        return Status::KeyError("relation '" + spec.lineage_relation +
                                "' not in the input's lineage schema");
      }
      const int dim = static_cast<int>(it - ls.begin());
      return std::unique_ptr<BatchSource>(new FusedLineageBernoulliSource(
          std::move(child), spec.p, spec.seed, dim));
    }
    case SamplingMethod::kBernoulli:
      if (stream_ok) {
        return std::unique_ptr<BatchSource>(
            new FusedBernoulliSource(std::move(child), spec.p, rng));
      }
      break;
    default:
      break;
  }
  return std::unique_ptr<BatchSource>(
      new SampleBreakerSource(std::move(child), spec, rng, batch_rows));
}

bool FragmentHasStreamingRngSampler(const PlanPtr& plan, ExecMode mode) {
  if (mode == ExecMode::kExact) return false;  // samplers are no-ops
  switch (plan->op()) {
    case PlanOp::kScan:
      return false;
    case PlanOp::kSelect:
      return FragmentHasStreamingRngSampler(plan->child(), mode);
    case PlanOp::kSample:
      switch (plan->spec().method) {
        case SamplingMethod::kLineageBernoulli:
          // Streams but consumes no Rng: transparent to the fragment.
          return FragmentHasStreamingRngSampler(plan->child(), mode);
        case SamplingMethod::kBernoulli:
          // Streams iff nothing below already does; otherwise it runs as
          // a breaker, which resets the fragment above it.
          return !FragmentHasStreamingRngSampler(plan->child(), mode);
        default:
          return false;  // fixed-size / block samplers are breakers
      }
    case PlanOp::kJoin:
    case PlanOp::kProduct:
    case PlanOp::kUnion:
      // Breakers drain their subtrees (all draws done) before emitting.
      return false;
  }
  return false;
}

Result<std::unique_ptr<BatchSource>> CompileBatchPipeline(
    const PlanPtr& plan, ColumnarCatalog* catalog, Rng* rng, ExecMode mode,
    int64_t batch_rows) {
  if (batch_rows < 1) {
    return Status::InvalidArgument("batch_rows must be >= 1");
  }
  switch (plan->op()) {
    case PlanOp::kScan: {
      // Segment-backed catalogs stream the scan through the pinned cache
      // (one resident segment at a time) instead of materializing.
      GUS_ASSIGN_OR_RETURN(const StoredRelation* stored,
                           catalog->Stored(plan->relation()));
      if (stored != nullptr) {
        return MakeStoredScanSource(stored, catalog->segment_cache(),
                                    &stored->all_columns(), batch_rows);
      }
      GUS_ASSIGN_OR_RETURN(const ColumnarRelation* rel,
                           catalog->Get(plan->relation()));
      return MakeScanSource(rel, batch_rows);
    }
    case PlanOp::kSample: {
      GUS_ASSIGN_OR_RETURN(
          std::unique_ptr<BatchSource> child,
          CompileBatchPipeline(plan->child(), catalog, rng, mode, batch_rows));
      if (mode == ExecMode::kExact) {
        // Sampling is a no-op in exact mode, but block sampling still
        // re-keys lineage so both modes agree on lineage granularity.
        if (plan->spec().method == SamplingMethod::kBlockBernoulli) {
          if (plan->spec().block_size <= 0) {
            return Status::InvalidArgument("block_size must be positive");
          }
          if (child->layout()->lineage_arity() != 1) {
            return Status::InvalidArgument(
                "block lineage applies to base (single-lineage) relations");
          }
          return std::unique_ptr<BatchSource>(
              new BlockRekeySource(std::move(child), plan->spec().block_size));
        }
        return child;
      }
      const bool stream_ok =
          !FragmentHasStreamingRngSampler(plan->child(), mode);
      return MakeSampleSource(std::move(child), plan->spec(), rng,
                              batch_rows, stream_ok);
    }
    case PlanOp::kSelect: {
      GUS_ASSIGN_OR_RETURN(
          std::unique_ptr<BatchSource> child,
          CompileBatchPipeline(plan->child(), catalog, rng, mode, batch_rows));
      GUS_ASSIGN_OR_RETURN(ExprPtr bound,
                           plan->predicate()->Bind(child->layout()->schema));
      return std::unique_ptr<BatchSource>(
          new SelectSource(std::move(child), std::move(bound)));
    }
    case PlanOp::kJoin: {
      GUS_ASSIGN_OR_RETURN(
          std::unique_ptr<BatchSource> left,
          CompileBatchPipeline(plan->left(), catalog, rng, mode, batch_rows));
      GUS_ASSIGN_OR_RETURN(
          std::unique_ptr<BatchSource> right,
          CompileBatchPipeline(plan->right(), catalog, rng, mode, batch_rows));
      GUS_ASSIGN_OR_RETURN(
          LayoutPtr layout,
          ConcatBatchLayouts(*left->layout(), *right->layout()));
      GUS_ASSIGN_OR_RETURN(int lk,
                           left->layout()->schema.IndexOf(plan->left_key()));
      GUS_ASSIGN_OR_RETURN(int rk,
                           right->layout()->schema.IndexOf(plan->right_key()));
      return std::unique_ptr<BatchSource>(
          new JoinSource(std::move(layout), std::move(left), std::move(right),
                         lk, rk, batch_rows));
    }
    case PlanOp::kProduct: {
      GUS_ASSIGN_OR_RETURN(
          std::unique_ptr<BatchSource> left,
          CompileBatchPipeline(plan->left(), catalog, rng, mode, batch_rows));
      GUS_ASSIGN_OR_RETURN(
          std::unique_ptr<BatchSource> right,
          CompileBatchPipeline(plan->right(), catalog, rng, mode, batch_rows));
      GUS_ASSIGN_OR_RETURN(
          LayoutPtr layout,
          ConcatBatchLayouts(*left->layout(), *right->layout()));
      return std::unique_ptr<BatchSource>(new ProductSource(
          std::move(layout), std::move(left), std::move(right), batch_rows));
    }
    case PlanOp::kUnion: {
      GUS_ASSIGN_OR_RETURN(
          std::unique_ptr<BatchSource> left,
          CompileBatchPipeline(plan->left(), catalog, rng, mode, batch_rows));
      GUS_ASSIGN_OR_RETURN(
          std::unique_ptr<BatchSource> right,
          CompileBatchPipeline(plan->right(), catalog, rng, mode, batch_rows));
      // Exact mode: no sampler below consumes the Rng, so only the left
      // branch's rows are needed; the right branch runs for its error
      // effects (see ExactUnionSource).
      return MakeUnionSource(std::move(left), std::move(right), batch_rows,
                             mode);
    }
  }
  return Status::Internal("unknown plan op");
}

Result<ColumnarRelation> ExecutePlanColumnar(const PlanPtr& plan,
                                             ColumnarCatalog* catalog,
                                             Rng* rng, ExecMode mode,
                                             int64_t batch_rows) {
  GUS_ASSIGN_OR_RETURN(
      std::unique_ptr<BatchSource> pipeline,
      CompileBatchPipeline(plan, catalog, rng, mode, batch_rows));
  return DrainSource(pipeline.get());
}

}  // namespace gus
