#include "plan/parallel_executor.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <limits>
#include <map>
#include <mutex>
#include <numeric>
#include <utility>
#include <vector>

#include "kernels/join_hash_table.h"
#include "kernels/key_hash.h"
#include "kernels/sampling_kernels.h"
#include "plan/exec_stats.h"
#include "plan/vector_eval.h"
#include "sampling/samplers.h"
#include "store/pruner.h"
#include "store/segment_cache.h"
#include "store/segment_source.h"
#include "util/hash.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace gus {

namespace {

// ---- Pivot classification --------------------------------------------------

void MergeUnique(std::vector<std::string>* into,
                 const std::vector<std::string>& from) {
  for (const std::string& s : from) {
    if (std::find(into->begin(), into->end(), s) == into->end()) {
      into->push_back(s);
    }
  }
}

std::vector<std::string> IntersectOrdered(const std::vector<std::string>& a,
                                          const std::vector<std::string>& b) {
  std::vector<std::string> out;
  for (const std::string& s : a) {
    if (std::find(b.begin(), b.end(), s) != b.end()) out.push_back(s);
  }
  return out;
}

/// \brief The base relations that can pivot `plan`'s subtree — i.e. scans
/// whose path to this subtree's root crosses only partition-safe operators
/// (traversal order preserved; see the header for the eligibility matrix).
std::vector<std::string> PivotRelations(const PlanPtr& plan, ExecMode mode) {
  switch (plan->op()) {
    case PlanOp::kScan:
      return {plan->relation()};
    case PlanOp::kSelect:
      return PivotRelations(plan->child(), mode);
    case PlanOp::kSample:
      switch (plan->spec().method) {
        case SamplingMethod::kBernoulli:
        case SamplingMethod::kLineageBernoulli:
          // Per-row (resp. per-lineage) decisions: independent per-morsel
          // streams (resp. pure functions) reproduce the same design.
          return PivotRelations(plan->child(), mode);
        case SamplingMethod::kWithoutReplacement:
        case SamplingMethod::kWithReplacementDistinct:
          // Seed-decoupled fixed-size draws partition when the sampler sits
          // directly on the scan (the keep-set is then keyed by the scan's
          // global row index, which every morsel knows). In exact mode they
          // are no-ops and stay safe anywhere.
          if (mode == ExecMode::kExact) {
            return PivotRelations(plan->child(), mode);
          }
          if (plan->child()->op() == PlanOp::kScan) {
            return {plan->child()->relation()};
          }
          return {};
        case SamplingMethod::kBlockBernoulli:
          // Per-block decisions and the lineage re-key are keyed by the
          // scan's global row index — adjacent to the scan only (both
          // modes: exact mode still re-keys lineage).
          if (plan->child()->op() == PlanOp::kScan) {
            return {plan->child()->relation()};
          }
          return {};
      }
      return {};
    case PlanOp::kJoin:
    case PlanOp::kProduct: {
      // Pivot on either side; the other side executes once and is shared.
      std::vector<std::string> cands = PivotRelations(plan->left(), mode);
      MergeUnique(&cands, PivotRelations(plan->right(), mode));
      return cands;
    }
    case PlanOp::kUnion:
      // Both branches sample the same expression (Prop. 7): partition them
      // over a common pivot scan and dedup per slice — lineage is the
      // partitioning key, so slice-local dedup equals global dedup.
      return IntersectOrdered(PivotRelations(plan->left(), mode),
                              PivotRelations(plan->right(), mode));
  }
  return {};
}

bool ContainsRelation(const std::vector<std::string>& cands,
                      const std::string& name) {
  return std::find(cands.begin(), cands.end(), name) != cands.end();
}

/// LCM of the block sizes of block samplers sitting directly on scans of
/// `pivot` — morsels align to whole blocks so a block is never split
/// across execution units. Capped defensively (a cap only coarsens the
/// split; per-block decisions stay correct regardless).
int64_t BlockAlignFor(const PlanPtr& plan, const std::string& pivot) {
  constexpr int64_t kMaxAlign = int64_t{1} << 40;
  int64_t align = 1;
  std::function<void(const PlanPtr&)> walk = [&](const PlanPtr& node) {
    if (node->op() == PlanOp::kSample &&
        node->spec().method == SamplingMethod::kBlockBernoulli &&
        node->child()->op() == PlanOp::kScan &&
        node->child()->relation() == pivot && node->spec().block_size > 0) {
      const int64_t b = node->spec().block_size;
      const int64_t g = std::gcd(align, b);
      if (align / g <= kMaxAlign / b) align = align / g * b;
    }
    for (int c = 0; c < node->num_children(); ++c) {
      walk(c == 0 ? node->left() : node->right());
    }
  };
  walk(plan);
  return align;
}

/// Picks the candidate scanning the largest base relation (first in
/// traversal order on ties — deterministic).
Result<std::string> ChoosePivotRelation(const std::vector<std::string>& cands,
                                        ColumnarCatalog* catalog) {
  std::string best;
  int64_t best_rows = -1;
  for (const std::string& name : cands) {
    GUS_ASSIGN_OR_RETURN(const int64_t rows, catalog->RowCountOf(name));
    if (rows > best_rows) {
      best_rows = rows;
      best = name;
    }
  }
  return best;
}

// ---- Shared (built-once) pipeline state ------------------------------------

/// Shared, read-only per-join state probed concurrently by every morsel
/// (the JoinHashTable is immutable after Build — no synchronization; the
/// build itself runs partition-parallel over directory regions).
struct SharedJoinBuild {
  ColumnarRelation build_mat;  // the non-pivot side, materialized once
  JoinHashTable table;
  int build_key = 0;  // key column within build_mat's schema
  int probe_key = 0;  // key column within the pivot-side layout
  bool pivot_is_left = true;
  LayoutPtr out_layout;
};

/// Shared non-pivot side of a product step.
struct SharedProductSide {
  ColumnarRelation other_mat;
  bool pivot_is_left = true;
  LayoutPtr out_layout;
};

// ---- The compiled per-morsel program ---------------------------------------

struct MorselProgramNode;
using ProgramPtr = std::unique_ptr<MorselProgramNode>;

/// One node of the per-morsel pipeline template — a mirror of the plan
/// restricted to the pivot path, with non-pivot subtrees collapsed into
/// shared state and fixed-size samplers resolved to global keep-sets.
struct MorselProgramNode {
  enum class Kind {
    kScanSlice,    // the pivot scan's morsel slice
    kKeepSlice,    // fixed-size sampler: global keep-set ∩ slice
    kBlockSample,  // sampled-mode block sampling over the slice
    kBlockRekey,   // exact-mode block lineage re-key over the slice
    kSelect,
    kStreamSample,  // Bernoulli / lineage-seeded Bernoulli
    kJoinProbe,
    kProduct,
    kUnion,  // both branches over the same slice, slice-local dedup
  };

  Kind kind = Kind::kScanSlice;
  const PlanNode* node = nullptr;  // kSelect / kStreamSample
  std::vector<char> footprint;     // kSelect: columns the predicate reads
  bool stream_ok = false;          // kStreamSample: Bernoulli may fuse
  std::shared_ptr<const std::vector<int64_t>> keep;  // kKeepSlice (sorted)
  uint64_t sampler_seed = 0;                         // kBlockSample
  double p = 0.0;                                    // kBlockSample
  int64_t block_size = 0;  // kBlockSample / kBlockRekey
  std::shared_ptr<SharedJoinBuild> join;       // kJoinProbe
  std::shared_ptr<SharedProductSide> product;  // kProduct
  ProgramPtr child;                            // input (left for kUnion)
  ProgramPtr right;                            // kUnion only
  LayoutPtr layout;                            // this node's output layout
};

/// Program mirror of FragmentHasStreamingRngSampler: is this subtree,
/// within the current morsel-pipeline fragment, a streaming Rng consumer?
bool ProgramFragmentHasStreamingRng(const MorselProgramNode& n) {
  switch (n.kind) {
    case MorselProgramNode::Kind::kScanSlice:
    case MorselProgramNode::Kind::kKeepSlice:
    case MorselProgramNode::Kind::kBlockSample:
    case MorselProgramNode::Kind::kBlockRekey:
      // Seed-decoupled or Rng-free: transparent to the fragment.
      return false;
    case MorselProgramNode::Kind::kSelect:
    case MorselProgramNode::Kind::kJoinProbe:
    case MorselProgramNode::Kind::kProduct:
      // The pivot side streams through probes, so the fragment continues.
      return ProgramFragmentHasStreamingRng(*n.child);
    case MorselProgramNode::Kind::kStreamSample:
      if (n.node->spec().method == SamplingMethod::kLineageBernoulli) {
        return ProgramFragmentHasStreamingRng(*n.child);
      }
      // Plain Bernoulli streams iff nothing below already does; otherwise
      // it runs as a breaker, which resets the fragment above it.
      return !ProgramFragmentHasStreamingRng(*n.child);
    case MorselProgramNode::Kind::kUnion:
      // Drains both branches before emitting: fragment resets.
      return false;
  }
  return false;
}

void AssignStreamOk(MorselProgramNode* n) {
  if (n->child != nullptr) AssignStreamOk(n->child.get());
  if (n->right != nullptr) AssignStreamOk(n->right.get());
  if (n->kind == MorselProgramNode::Kind::kStreamSample &&
      n->node->spec().method == SamplingMethod::kBernoulli) {
    n->stream_ok = !ProgramFragmentHasStreamingRng(*n->child);
  }
}

uint64_t FingerprintKeepSet(uint64_t seed, const std::vector<int64_t>& keep) {
  uint64_t h = Mix64(seed ^ 0x534D504Cull);  // "SMPL"
  h = HashCombine(h, static_cast<uint64_t>(keep.size()));
  for (const int64_t r : keep) h = HashCombine(h, static_cast<uint64_t>(r));
  return h;
}

uint64_t FingerprintBlockSampler(uint64_t seed, int64_t block_size, double p) {
  uint64_t p_bits = 0;
  __builtin_memcpy(&p_bits, &p, sizeof(p_bits));
  return HashCombine(HashCombine(Mix64(seed ^ 0x534D504Cull),
                                 static_cast<uint64_t>(block_size)),
                     p_bits);
}

// ---- Per-morsel physical sources -------------------------------------------

/// Streams the probe (pivot) side of a morsel through a shared, pre-built
/// hash table: per pulled view, hash the probe rows, batch-probe with
/// prefetching, recheck key equality vectorized over the candidate pairs,
/// then emit — same output order as the classic per-row loop (probe rows
/// ascending, candidates in build input order), in the plan's left++right
/// column order.
class SharedJoinProbeSource final : public BatchSource {
 public:
  SharedJoinProbeSource(std::unique_ptr<BatchSource> child,
                        std::shared_ptr<SharedJoinBuild> build,
                        int64_t batch_rows)
      : BatchSource(build->out_layout),
        child_(std::move(child)),
        build_(std::move(build)),
        batch_rows_(batch_rows) {}

  Result<bool> Next(ColumnBatch* out) override {
    PrepareBatch(layout_, out);
    const ColumnBatch& build_data = build_->build_mat.data();
    const ColumnData& build_key = build_data.column(build_->build_key);
    while (out->num_rows() < batch_rows_) {
      if (emit_pos_ >= static_cast<int64_t>(pair_probe_.size())) {
        if (done_) break;
        // Fused pull: the probe rows arrive as a selection view over the
        // child's storage — no gather of the pivot chain's output. The
        // pair buffer never outlives the view (refilled only when empty).
        GUS_ASSIGN_OR_RETURN(bool more, child_->NextView(&probe_));
        if (!more) {
          done_ = true;
          break;
        }
        const ColumnData& key = probe_.data->column(build_->probe_key);
        if (key.type == ValueType::kString && key.dict != probe_dict_) {
          probe_dict_ = key.dict;
          probe_dict_hashes_ = DictKeyHashes(key);
        }
        const int64_t n = probe_.num_rows();
        hash_scratch_.resize(static_cast<size_t>(n));
        row_scratch_.resize(static_cast<size_t>(n));
        for (int64_t k = 0; k < n; ++k) row_scratch_[k] = probe_.row(k);
        KeyHashRows(key, probe_dict_hashes_, row_scratch_.data(), n,
                    hash_scratch_.data());
        pair_probe_.clear();
        pair_build_.clear();
        build_->table.ProbeBatch(hash_scratch_.data(), n, &pair_probe_,
                                 &pair_build_);
        for (int64_t& pr : pair_probe_) pr = row_scratch_[pr];
        FilterEqualKeyPairs(key, build_key, &pair_probe_, &pair_build_);
        emit_pos_ = 0;
        continue;
      }
      // Batch emit over the surviving pair lists (front-to-back, so the
      // classic per-row order is preserved).
      const int64_t pairs = static_cast<int64_t>(pair_probe_.size());
      const int64_t take =
          std::min(batch_rows_ - out->num_rows(), pairs - emit_pos_);
      const int64_t* probe_idx = pair_probe_.data() + emit_pos_;
      const int64_t* build_idx = pair_build_.data() + emit_pos_;
      if (build_->pivot_is_left) {
        out->AppendConcatGather(*probe_.data, probe_idx, build_data,
                                build_idx, take);
      } else {
        out->AppendConcatGather(build_data, build_idx, *probe_.data,
                                probe_idx, take);
      }
      emit_pos_ += take;
    }
    if (done_ && out->num_rows() == 0 &&
        emit_pos_ >= static_cast<int64_t>(pair_probe_.size())) {
      return false;
    }
    return true;
  }

 private:
  std::unique_ptr<BatchSource> child_;
  std::shared_ptr<SharedJoinBuild> build_;
  int64_t batch_rows_;
  SelView probe_;
  DictPtr probe_dict_;
  std::vector<uint64_t> probe_dict_hashes_;
  std::vector<uint64_t> hash_scratch_;
  std::vector<int64_t> row_scratch_;
  std::vector<int64_t> pair_probe_, pair_build_;
  int64_t emit_pos_ = 0;
  bool done_ = false;
};

/// Cross product of the streaming pivot side with the shared other side.
class SharedProductSource final : public BatchSource {
 public:
  SharedProductSource(std::unique_ptr<BatchSource> child,
                      std::shared_ptr<SharedProductSide> side,
                      int64_t batch_rows)
      : BatchSource(side->out_layout),
        child_(std::move(child)),
        side_(std::move(side)),
        batch_rows_(batch_rows) {}

  Result<bool> Next(ColumnBatch* out) override {
    if (done_) return false;
    PrepareBatch(layout_, out);
    const ColumnBatch& other = side_->other_mat.data();
    const int64_t n_other = other.num_rows();
    while (out->num_rows() < batch_rows_) {
      if (i_ >= pivot_.num_rows()) {
        GUS_ASSIGN_OR_RETURN(bool more, child_->NextView(&pivot_));
        if (!more) {
          done_ = true;
          break;
        }
        i_ = 0;
        j_ = 0;
        continue;
      }
      if (n_other == 0) {
        i_ = pivot_.num_rows();
        continue;
      }
      // Stage this chunk's (pivot, other) index pairs, then emit them in
      // one batched gather per column.
      pivot_scratch_.clear();
      other_scratch_.clear();
      const int64_t budget = batch_rows_ - out->num_rows();
      while (static_cast<int64_t>(pivot_scratch_.size()) < budget &&
             i_ < pivot_.num_rows()) {
        pivot_scratch_.push_back(pivot_.row(i_));
        other_scratch_.push_back(j_);
        if (++j_ >= n_other) {
          j_ = 0;
          ++i_;
        }
      }
      const auto take = static_cast<int64_t>(pivot_scratch_.size());
      if (side_->pivot_is_left) {
        out->AppendConcatGather(*pivot_.data, pivot_scratch_.data(), other,
                                other_scratch_.data(), take);
      } else {
        out->AppendConcatGather(other, other_scratch_.data(), *pivot_.data,
                                pivot_scratch_.data(), take);
      }
    }
    if (done_ && out->num_rows() == 0) return false;
    return true;
  }

 private:
  std::unique_ptr<BatchSource> child_;
  std::shared_ptr<SharedProductSide> side_;
  int64_t batch_rows_;
  SelView pivot_;
  int64_t i_ = 0, j_ = 0;
  std::vector<int64_t> pivot_scratch_, other_scratch_;
  bool done_ = false;
};

/// Zero-copy stream of a pre-resolved keep-list slice: selection views
/// straight over the resident pivot relation (the fixed-size samplers'
/// per-morsel form — the global keep-set is shared, each morsel walks its
/// [lo, lo+len) sub-range).
class SelectionListSource final : public BatchSource {
 public:
  SelectionListSource(const ColumnarRelation* rel,
                      std::shared_ptr<const std::vector<int64_t>> keep,
                      int64_t offset, int64_t len, int64_t batch_rows)
      : BatchSource(rel->layout_ptr()),
        rel_(rel),
        keep_(std::move(keep)),
        pos_(offset),
        end_(offset + len),
        batch_rows_(batch_rows) {}

  Result<bool> NextView(SelView* out) override {
    if (pos_ >= end_) return false;
    const int64_t len = std::min(batch_rows_, end_ - pos_);
    SelView v;
    v.data = &rel_->data();
    v.sel = keep_->data() + pos_;
    v.sel_len = len;
    *out = v;
    pos_ += len;
    return true;
  }

 private:
  const ColumnarRelation* rel_;
  std::shared_ptr<const std::vector<int64_t>> keep_;
  int64_t pos_;
  int64_t end_;
  int64_t batch_rows_;
};

/// Sampled-mode block sampling over a morsel slice: per-block keep
/// decisions are pure functions of (seed, block id), kept rows gather with
/// their lineage re-keyed to the block id — bit-identical to the serial
/// engines' DecideSampling path on the whole scan.
class BlockSampleSource final : public BatchSource {
 public:
  BlockSampleSource(const ColumnarRelation* rel, int64_t begin, int64_t end,
                    uint64_t seed, double p, int64_t block_size,
                    int64_t batch_rows)
      : BatchSource(rel->layout_ptr()),
        rel_(rel),
        pos_(begin),
        end_(end),
        seed_(seed),
        p_(p),
        block_size_(block_size),
        batch_rows_(batch_rows) {}

  Result<bool> NextView(SelView* out) override {
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
    // The lineage re-key mutates rows, so this path gathers into an owned
    // batch (same discipline as the serial breaker's re-key path).
    PrepareBatch(layout_, &scratch_);
    scratch_.GatherFrom(rel_->data(), sel_.data(),
                        static_cast<int64_t>(sel_.size()));
    auto& lineage = *scratch_.mutable_lineage();
    for (size_t k = 0; k < sel_.size(); ++k) {
      lineage[k] = static_cast<uint64_t>(sel_[k] / block_size_);
    }
    *out = SelView::Whole(&scratch_);
    return true;
  }

 private:
  const ColumnarRelation* rel_;
  int64_t pos_;
  int64_t end_;
  uint64_t seed_;
  double p_;
  int64_t block_size_;
  int64_t batch_rows_;
  std::vector<int64_t> sel_;
  ColumnBatch scratch_;
};

// ---- Split geometry --------------------------------------------------------

/// Approximate bytes one pivot row occupies in the hot loop: 8 per numeric
/// column, 4 per dictionary-coded string column, 8 per lineage dimension.
int64_t RowBytes(const BatchLayout& layout) {
  int64_t bytes = int64_t{8} * layout.lineage_arity();
  for (int c = 0; c < layout.schema.num_columns(); ++c) {
    bytes += layout.schema.column(c).type == ValueType::kString ? 4 : 8;
  }
  return bytes;
}

/// \brief Coarse per-row operator cost of the plan: 1 + the number of
/// join / product / union nodes.
///
/// Each such operator roughly doubles a morsel's working set (probe output,
/// product emit, second branch), so the auto sizer shrinks morsels
/// proportionally. Deterministic in the plan shape alone.
int PlanCostWeight(const PlanPtr& plan) {
  int weight = 1;
  std::function<void(const PlanPtr&)> walk = [&](const PlanPtr& node) {
    if (node->op() == PlanOp::kJoin || node->op() == PlanOp::kProduct ||
        node->op() == PlanOp::kUnion) {
      ++weight;
    }
    for (int c = 0; c < node->num_children(); ++c) {
      walk(c == 0 ? node->left() : node->right());
    }
  };
  walk(plan);
  return weight;
}

/// \brief Per-morsel working-set budget for auto sizing (phase 2).
///
/// Sized from the BENCH_E3_E4.json trajectory: the E4 kernel sweeps fall
/// off their fast tier once the touched span leaves the low megabytes
/// (private L2 territory), while the E3d batch-size sweep is flat — so the
/// morsel, not the batch, is the right cache-residency lever. 2 MiB keeps
/// a morsel's pivot slice plus one operator expansion inside a typical
/// private L2/L3 slice without creating so many morsels that claim/fold
/// overhead shows.
constexpr int64_t kAutoMorselBytesTarget = int64_t{2} << 20;

/// \brief Auto morsel sizing (ExecOptions::morsel_rows == 0), phase 2:
/// at least four morsels per worker for scheduling slack, shrunk so a
/// morsel's weighted working set (pivot row bytes x plan cost weight)
/// fits kAutoMorselBytesTarget, clamped to
/// [kMinAutoMorselRows, kMaxAutoMorselRows].
///
/// Deterministic in (pivot rows, pivot layout, plan shape, num_threads) —
/// but because it reads num_threads, auto-sized results are only
/// reproducible at a fixed thread count; callers needing
/// thread-count-invariant draws set morsel_rows explicitly (the knob
/// stays authoritative).
int64_t AutoMorselRows(int64_t pivot_rows, int64_t pivot_row_bytes,
                       int cost_weight, int num_threads) {
  const int64_t morsels_wanted = int64_t{4} * std::max(1, num_threads);
  const int64_t slack_rows = (pivot_rows + morsels_wanted - 1) / morsels_wanted;
  const int64_t weighted_bytes =
      std::max<int64_t>(1, pivot_row_bytes) * std::max(1, cost_weight);
  const int64_t cache_rows =
      std::max<int64_t>(1, kAutoMorselBytesTarget / weighted_bytes);
  return std::clamp(std::min(slack_rows, cache_rows), kMinAutoMorselRows,
                    kMaxAutoMorselRows);
}

// The (pivot rows/layout, plan, options, block alignment) -> split geometry
// formulas, shared by AnalyzeMorselSplit (shard planning) and
// PrepareMorselProgram (execution): the dist/ layer's correctness requires
// the planned and executed unit sequences to be the same, so there is
// exactly one implementation.

int64_t ResolveMorselRows(int64_t pivot_rows, int64_t pivot_row_bytes,
                          int cost_weight, const ExecOptions& options,
                          int64_t block_align) {
  int64_t rows = options.morsel_rows > 0
                     ? options.morsel_rows
                     : AutoMorselRows(pivot_rows, pivot_row_bytes, cost_weight,
                                      options.num_threads);
  if (block_align > 1) {
    // Blocks are indivisible morsel units: round the morsel up to whole
    // blocks so one block's rows always share an execution unit.
    rows = (rows + block_align - 1) / block_align * block_align;
  }
  return rows;
}

int64_t MorselCount(int64_t pivot_rows, int64_t morsel_rows) {
  return (pivot_rows + morsel_rows - 1) / morsel_rows;
}

/// \brief The pivot's backing storage plus the numbers the split geometry
/// reads from it.
///
/// Shared by AnalyzeMorselSplit and PrepareMorselProgram — the dist/
/// layer's correctness requires the planned and executed unit sequences
/// to coincide, so the stored-vs-materialized decision has exactly one
/// implementation. Segment-backed pivots additionally align morsels to
/// whole segments (LCM with the block alignment) so a prunable segment
/// maps to whole execution units and a skipped unit never faults its
/// segments, and they size morsels from mean on-disk row bytes — what a
/// morsel actually faults in — instead of the in-memory estimate.
struct PivotBacking {
  const StoredRelation* store = nullptr;  // non-null: segment-backed
  const ColumnarRelation* rel = nullptr;  // non-null: materialized
  int64_t rows = 0;
  LayoutPtr layout;
  int64_t row_bytes = 0;
  int64_t align = 1;
};

Result<PivotBacking> ResolvePivotBacking(const PlanPtr& plan,
                                         const std::string& pivot,
                                         ColumnarCatalog* catalog) {
  PivotBacking b;
  b.align = BlockAlignFor(plan, pivot);
  GUS_ASSIGN_OR_RETURN(b.store, catalog->Stored(pivot));
  if (b.store != nullptr) {
    b.rows = b.store->num_rows();
    b.layout = b.store->layout_ptr();
    b.row_bytes = b.store->OnDiskRowBytes();
    constexpr int64_t kMaxAlign = int64_t{1} << 40;
    const int64_t seg = b.store->segment_rows();
    const int64_t g = std::gcd(b.align, seg);
    if (b.align / g <= kMaxAlign / seg) b.align = b.align / g * seg;
  } else {
    GUS_ASSIGN_OR_RETURN(b.rel, catalog->Get(pivot));
    b.rows = b.rel->num_rows();
    b.layout = b.rel->layout_ptr();
    b.row_bytes = RowBytes(b.rel->layout());
  }
  return b;
}

// ---- Program compilation ---------------------------------------------------

/// \brief The prepared morsel execution: shared state built once, then one
/// pipeline instantiation per morsel.
struct MorselProgram {
  const ColumnarRelation* pivot_rel = nullptr;   // materialized pivot
  const StoredRelation* pivot_store = nullptr;   // segment-backed pivot
  SegmentCache* store_cache = nullptr;           // non-null iff pivot_store
  std::string pivot_name;
  int64_t pivot_rows = 0;
  LayoutPtr pivot_layout;
  ProgramPtr root;
  LayoutPtr out_layout;
  int64_t morsel_rows = kDefaultMorselRows;
  int64_t batch_rows = kDefaultBatchRows;
  ExecMode mode = ExecMode::kSampled;
  std::vector<ResolvedPivotSampler> samplers;
  /// Per-unit skip mask from the SegmentPruner (empty = nothing skipped):
  /// unit m is provably empty, so run_morsel folds its sink untouched.
  std::vector<char> unit_skip;
  /// The pivot columns the morsel pipelines read (PivotColumnsRead); a
  /// segment-backed pivot faults only these pages plus the lineage.
  std::vector<char> pivot_cols;

  int64_t num_morsels() const {
    return MorselCount(pivot_rows, morsel_rows);
  }

  Result<std::unique_ptr<BatchSource>> MakeMorselPipeline(int64_t m,
                                                          Rng* rng) const;
};

/// \brief Compiles the plan subtree containing the pivot into a program
/// node, consuming `rng` in exactly the row engine's execution order:
/// children before parents, left subtrees fully before right ones,
/// non-pivot subtrees materialized at their plan position, and
/// seed-decoupled samplers drawing their one seed where the row engine's
/// sampler would run.
///
/// That ordering is what makes plans free of plain-Bernoulli samplers
/// reproduce the serial engines bit for bit: the whole Rng consumption
/// sequence coincides.
Result<ProgramPtr> CompileNode(const PlanPtr& plan, ColumnarCatalog* catalog,
                               Rng* rng, ExecMode mode,
                               const ExecOptions& options,
                               MorselProgram* prog) {
  switch (plan->op()) {
    case PlanOp::kScan: {
      if (plan->relation() != prog->pivot_name) {
        return Status::Internal(
            "morsel program compiler reached a non-pivot scan");
      }
      auto node = std::make_unique<MorselProgramNode>();
      node->kind = MorselProgramNode::Kind::kScanSlice;
      node->layout = prog->pivot_layout;
      return node;
    }
    case PlanOp::kSelect: {
      GUS_ASSIGN_OR_RETURN(
          ProgramPtr child,
          CompileNode(plan->child(), catalog, rng, mode, options, prog));
      // Static resolution errors surface here, not on a worker.
      GUS_ASSIGN_OR_RETURN(ExprPtr bound,
                           plan->predicate()->Bind(child->layout->schema));
      auto node = std::make_unique<MorselProgramNode>();
      node->kind = MorselProgramNode::Kind::kSelect;
      node->node = plan.get();
      ExprColumnFootprint(bound, child->layout->schema.num_columns(),
                          &node->footprint);
      node->layout = child->layout;
      node->child = std::move(child);
      return node;
    }
    case PlanOp::kSample: {
      const SamplingSpec& spec = plan->spec();
      if (mode == ExecMode::kExact &&
          spec.method != SamplingMethod::kBlockBernoulli) {
        // Samplers are no-ops in exact mode.
        return CompileNode(plan->child(), catalog, rng, mode, options, prog);
      }
      GUS_ASSIGN_OR_RETURN(
          ProgramPtr child,
          CompileNode(plan->child(), catalog, rng, mode, options, prog));
      GUS_RETURN_NOT_OK(spec.Validate());
      auto node = std::make_unique<MorselProgramNode>();
      node->node = plan.get();
      node->layout = child->layout;
      switch (spec.method) {
        case SamplingMethod::kBernoulli:
          node->kind = MorselProgramNode::Kind::kStreamSample;
          break;
        case SamplingMethod::kLineageBernoulli: {
          const auto& ls = child->layout->lineage_schema;
          if (std::find(ls.begin(), ls.end(), spec.lineage_relation) ==
              ls.end()) {
            return Status::KeyError("relation '" + spec.lineage_relation +
                                    "' not in the input's lineage schema");
          }
          node->kind = MorselProgramNode::Kind::kStreamSample;
          break;
        }
        case SamplingMethod::kWithoutReplacement:
        case SamplingMethod::kWithReplacementDistinct: {
          // Adjacent to the pivot scan (classification guarantees it):
          // resolve the exact global keep-set now, from one seed draw —
          // the same draw DecideSampling makes in the serial engines.
          const int64_t population = prog->pivot_rows;
          if (spec.population != population) {
            return Status::InvalidArgument(
                spec.method == SamplingMethod::kWithoutReplacement
                    ? "WOR spec population does not match the input "
                      "cardinality"
                    : "WR spec population does not match the input "
                      "cardinality");
          }
          const uint64_t seed = rng->Next();
          std::vector<int64_t> keep;
          if (spec.method == SamplingMethod::kWithoutReplacement) {
            GUS_ASSIGN_OR_RETURN(
                keep, DecoupledWorKeepIndices(population, spec.n, seed));
          } else {
            GUS_ASSIGN_OR_RETURN(keep, DecoupledWrDistinctKeepIndices(
                                           population, spec.n, seed));
          }
          ResolvedPivotSampler resolved;
          resolved.method = static_cast<uint8_t>(spec.method);
          resolved.seed = seed;
          resolved.fingerprint = FingerprintKeepSet(seed, keep);
          prog->samplers.push_back(resolved);
          node->kind = MorselProgramNode::Kind::kKeepSlice;
          node->keep = std::make_shared<const std::vector<int64_t>>(
              std::move(keep));
          break;
        }
        case SamplingMethod::kBlockBernoulli: {
          if (child->layout->lineage_arity() != 1) {
            return Status::InvalidArgument(
                "block lineage applies to base (single-lineage) relations");
          }
          node->block_size = spec.block_size;
          if (mode == ExecMode::kExact) {
            node->kind = MorselProgramNode::Kind::kBlockRekey;
            break;
          }
          const uint64_t seed = rng->Next();
          ResolvedPivotSampler resolved;
          resolved.method = static_cast<uint8_t>(spec.method);
          resolved.seed = seed;
          resolved.fingerprint =
              FingerprintBlockSampler(seed, spec.block_size, spec.p);
          prog->samplers.push_back(resolved);
          node->kind = MorselProgramNode::Kind::kBlockSample;
          node->sampler_seed = seed;
          node->p = spec.p;
          break;
        }
      }
      node->child = std::move(child);
      return node;
    }
    case PlanOp::kJoin:
    case PlanOp::kProduct: {
      const bool pivot_left =
          ContainsRelation(PivotRelations(plan->left(), mode),
                           prog->pivot_name);
      if (!pivot_left && !ContainsRelation(PivotRelations(plan->right(), mode),
                                           prog->pivot_name)) {
        return Status::Internal(
            "morsel program compiler lost track of the pivot");
      }
      // Row-engine execution order: the left subtree runs (and consumes
      // the Rng) fully before the right one.
      ProgramPtr child;
      ColumnarRelation other_mat;
      if (pivot_left) {
        GUS_ASSIGN_OR_RETURN(
            child, CompileNode(plan->left(), catalog, rng, mode, options,
                               prog));
        GUS_ASSIGN_OR_RETURN(other_mat,
                             ExecutePlanColumnar(plan->right(), catalog, rng,
                                                 mode, options.batch_rows));
      } else {
        GUS_ASSIGN_OR_RETURN(other_mat,
                             ExecutePlanColumnar(plan->left(), catalog, rng,
                                                 mode, options.batch_rows));
        GUS_ASSIGN_OR_RETURN(
            child, CompileNode(plan->right(), catalog, rng, mode, options,
                               prog));
      }
      auto node = std::make_unique<MorselProgramNode>();
      const BatchLayout& pivot_side = *child->layout;
      const BatchLayout& other_side = other_mat.layout();
      if (plan->op() == PlanOp::kJoin) {
        auto build = std::make_shared<SharedJoinBuild>();
        build->build_mat = std::move(other_mat);
        const std::string& pivot_key =
            pivot_left ? plan->left_key() : plan->right_key();
        const std::string& build_key =
            pivot_left ? plan->right_key() : plan->left_key();
        GUS_ASSIGN_OR_RETURN(build->probe_key,
                             pivot_side.schema.IndexOf(pivot_key));
        GUS_ASSIGN_OR_RETURN(
            build->build_key,
            build->build_mat.layout().schema.IndexOf(build_key));
        build->pivot_is_left = pivot_left;
        GUS_ASSIGN_OR_RETURN(
            build->out_layout,
            pivot_left
                ? ConcatBatchLayouts(pivot_side, build->build_mat.layout())
                : ConcatBatchLayouts(build->build_mat.layout(), pivot_side));
        const ColumnData& key =
            build->build_mat.data().column(build->build_key);
        // Partition-parallel build: per-worker region inserts merged
        // without rehashing, byte-identical at every thread count.
        GUS_RETURN_NOT_OK(build->table.BuildFrom(
            key, build->build_mat.num_rows(), options.num_threads));
        node->kind = MorselProgramNode::Kind::kJoinProbe;
        node->layout = build->out_layout;
        node->join = std::move(build);
      } else {
        auto side = std::make_shared<SharedProductSide>();
        side->other_mat = std::move(other_mat);
        side->pivot_is_left = pivot_left;
        GUS_ASSIGN_OR_RETURN(
            side->out_layout,
            pivot_left ? ConcatBatchLayouts(pivot_side, other_side)
                       : ConcatBatchLayouts(other_side, pivot_side));
        node->kind = MorselProgramNode::Kind::kProduct;
        node->layout = side->out_layout;
        node->product = std::move(side);
      }
      node->child = std::move(child);
      return node;
    }
    case PlanOp::kUnion: {
      GUS_ASSIGN_OR_RETURN(
          ProgramPtr left,
          CompileNode(plan->left(), catalog, rng, mode, options, prog));
      GUS_ASSIGN_OR_RETURN(
          ProgramPtr right,
          CompileNode(plan->right(), catalog, rng, mode, options, prog));
      if (mode == ExecMode::kSampled) {
        if (!(left->layout->schema == right->layout->schema)) {
          return Status::InvalidArgument(
              "union inputs must share a column schema");
        }
        if (left->layout->lineage_schema != right->layout->lineage_schema) {
          return Status::InvalidArgument(
              "union inputs must share a lineage schema (samples of the "
              "same expression, paper Prop. 7)");
        }
      }
      auto node = std::make_unique<MorselProgramNode>();
      node->kind = MorselProgramNode::Kind::kUnion;
      node->layout = left->layout;
      node->child = std::move(left);
      node->right = std::move(right);
      return node;
    }
  }
  return Status::Internal("unexpected morsel path step");
}

Result<std::unique_ptr<BatchSource>> InstantiateNode(
    const MorselProgramNode& n, const MorselProgram& prog, int64_t begin,
    int64_t len, Rng* rng) {
  switch (n.kind) {
    case MorselProgramNode::Kind::kScanSlice:
      if (prog.pivot_store != nullptr) {
        return MakeStoredScanSource(prog.pivot_store, prog.store_cache,
                                    &prog.pivot_cols, prog.batch_rows, begin,
                                    len);
      }
      return MakeScanSource(prog.pivot_rel, prog.batch_rows, begin, len);
    case MorselProgramNode::Kind::kKeepSlice: {
      // The kept rows inside this slice: keep is globally sorted, so the
      // slice's sub-range is found with two binary searches.
      const std::vector<int64_t>& keep = *n.keep;
      const int64_t lo =
          std::lower_bound(keep.begin(), keep.end(), begin) - keep.begin();
      const int64_t hi =
          std::lower_bound(keep.begin(), keep.end(), begin + len) -
          keep.begin();
      if (prog.pivot_store != nullptr) {
        return std::unique_ptr<BatchSource>(new StoredKeepSliceSource(
            prog.pivot_store, prog.store_cache, &prog.pivot_cols, n.keep, lo,
            hi - lo, prog.batch_rows));
      }
      return std::unique_ptr<BatchSource>(new SelectionListSource(
          prog.pivot_rel, n.keep, lo, hi - lo, prog.batch_rows));
    }
    case MorselProgramNode::Kind::kBlockSample:
      if (prog.pivot_store != nullptr) {
        return std::unique_ptr<BatchSource>(new StoredBlockSampleSource(
            prog.pivot_store, prog.store_cache, begin, begin + len,
            n.sampler_seed, n.p, n.block_size, prog.batch_rows));
      }
      return std::unique_ptr<BatchSource>(
          new BlockSampleSource(prog.pivot_rel, begin, begin + len,
                                n.sampler_seed, n.p, n.block_size,
                                prog.batch_rows));
    case MorselProgramNode::Kind::kBlockRekey: {
      GUS_ASSIGN_OR_RETURN(std::unique_ptr<BatchSource> child,
                           InstantiateNode(*n.child, prog, begin, len, rng));
      return MakeBlockRekeySource(std::move(child), n.block_size, begin);
    }
    case MorselProgramNode::Kind::kSelect: {
      GUS_ASSIGN_OR_RETURN(std::unique_ptr<BatchSource> child,
                           InstantiateNode(*n.child, prog, begin, len, rng));
      return MakeSelectSource(std::move(child), n.node->predicate());
    }
    case MorselProgramNode::Kind::kStreamSample: {
      GUS_ASSIGN_OR_RETURN(std::unique_ptr<BatchSource> child,
                           InstantiateNode(*n.child, prog, begin, len, rng));
      return MakeSampleSource(std::move(child), n.node->spec(), rng,
                              prog.batch_rows, n.stream_ok);
    }
    case MorselProgramNode::Kind::kJoinProbe: {
      GUS_ASSIGN_OR_RETURN(std::unique_ptr<BatchSource> child,
                           InstantiateNode(*n.child, prog, begin, len, rng));
      return std::unique_ptr<BatchSource>(
          new SharedJoinProbeSource(std::move(child), n.join,
                                    prog.batch_rows));
    }
    case MorselProgramNode::Kind::kProduct: {
      GUS_ASSIGN_OR_RETURN(std::unique_ptr<BatchSource> child,
                           InstantiateNode(*n.child, prog, begin, len, rng));
      return std::unique_ptr<BatchSource>(
          new SharedProductSource(std::move(child), n.product,
                                  prog.batch_rows));
    }
    case MorselProgramNode::Kind::kUnion: {
      // Both branches run over the same pivot slice; the left branch
      // instantiates (and, per morsel, drains) first, mirroring the row
      // engine's left-before-right execution.
      GUS_ASSIGN_OR_RETURN(std::unique_ptr<BatchSource> left,
                           InstantiateNode(*n.child, prog, begin, len, rng));
      GUS_ASSIGN_OR_RETURN(std::unique_ptr<BatchSource> right,
                           InstantiateNode(*n.right, prog, begin, len, rng));
      return MakeUnionSource(std::move(left), std::move(right),
                             prog.batch_rows, prog.mode);
    }
  }
  return Status::Internal("unexpected morsel program node");
}

Result<std::unique_ptr<BatchSource>> MorselProgram::MakeMorselPipeline(
    int64_t m, Rng* rng) const {
  const int64_t begin = m * morsel_rows;
  const int64_t len = std::min(morsel_rows, pivot_rows - begin);
  return InstantiateNode(*root, *this, begin, len, rng);
}

// ---- Prune-plan extraction -------------------------------------------------

/// One alternative under construction, carrying extraction-only state:
/// the mapping from the node's output columns back to pivot columns, and
/// whether the pivot's lineage ids still equal global row ids (falsified
/// by a block re-key below).
struct AltBuild {
  PruneAlternative alt;
  std::vector<int> colmap;
  bool lineage_rowids = true;
};

/// \brief Distills the compiled pivot path into prune alternatives (see
/// store/pruner.h): walks the program tree bottom-up, forking at unions,
/// and records per path the select conjuncts, resolved keep-sets, block
/// samplers and lineage-Bernoulli keeps that every surviving row must
/// pass. Anything it cannot express contributes nothing — the pruner only
/// gets weaker, never unsound.
void CollectPruneAlts(const MorselProgramNode& n, const MorselProgram& prog,
                      std::vector<AltBuild>* out) {
  switch (n.kind) {
    case MorselProgramNode::Kind::kScanSlice: {
      AltBuild base;
      const int ncols = prog.pivot_layout->schema.num_columns();
      base.colmap.resize(static_cast<size_t>(ncols));
      for (int c = 0; c < ncols; ++c) base.colmap[static_cast<size_t>(c)] = c;
      out->push_back(std::move(base));
      return;
    }
    case MorselProgramNode::Kind::kKeepSlice: {
      CollectPruneAlts(*n.child, prog, out);
      for (AltBuild& a : *out) a.alt.keep_lists.push_back(n.keep);
      return;
    }
    case MorselProgramNode::Kind::kBlockSample: {
      CollectPruneAlts(*n.child, prog, out);
      for (AltBuild& a : *out) {
        a.alt.block_samplers.push_back({n.sampler_seed, n.p, n.block_size});
        a.lineage_rowids = false;  // lineage re-keys to block ids
      }
      return;
    }
    case MorselProgramNode::Kind::kBlockRekey: {
      CollectPruneAlts(*n.child, prog, out);
      for (AltBuild& a : *out) a.lineage_rowids = false;
      return;
    }
    case MorselProgramNode::Kind::kSelect: {
      CollectPruneAlts(*n.child, prog, out);
      for (AltBuild& a : *out) {
        ExtractColumnConstraints(n.node->predicate(), n.layout->schema,
                                 a.colmap, &a.alt.constraints);
      }
      return;
    }
    case MorselProgramNode::Kind::kStreamSample: {
      CollectPruneAlts(*n.child, prog, out);
      const SamplingSpec& spec = n.node->spec();
      if (spec.method == SamplingMethod::kLineageBernoulli &&
          spec.lineage_relation == prog.pivot_name) {
        for (AltBuild& a : *out) {
          if (a.lineage_rowids) {
            a.alt.lineage_bernoullis.push_back({spec.seed, spec.p});
          }
        }
      }
      // Plain Bernoulli keeps depend on the morsel stream, not the rows —
      // no constraint, and skipping stays sound because a skipped unit's
      // forked stream is never consumed by anyone.
      return;
    }
    case MorselProgramNode::Kind::kJoinProbe:
    case MorselProgramNode::Kind::kProduct: {
      CollectPruneAlts(*n.child, prog, out);
      const bool pivot_left = n.kind == MorselProgramNode::Kind::kJoinProbe
                                  ? n.join->pivot_is_left
                                  : n.product->pivot_is_left;
      const int out_cols = n.layout->schema.num_columns();
      for (AltBuild& a : *out) {
        const std::vector<int> inner = std::move(a.colmap);
        const int inner_cols = static_cast<int>(inner.size());
        a.colmap.assign(static_cast<size_t>(out_cols), -1);
        const int at = pivot_left ? 0 : out_cols - inner_cols;
        for (int c = 0; c < inner_cols; ++c) {
          a.colmap[static_cast<size_t>(at + c)] =
              inner[static_cast<size_t>(c)];
        }
      }
      return;
    }
    case MorselProgramNode::Kind::kUnion: {
      // Each branch is its own alternative path: a segment prunes only
      // when every branch excludes it (the pruner intersects).
      CollectPruneAlts(*n.child, prog, out);
      CollectPruneAlts(*n.right, prog, out);
      return;
    }
  }
}

PrunePlan BuildPrunePlan(const MorselProgram& prog) {
  std::vector<AltBuild> alts;
  CollectPruneAlts(*prog.root, prog, &alts);
  PrunePlan plan;
  plan.alternatives.reserve(alts.size());
  for (AltBuild& a : alts) plan.alternatives.push_back(std::move(a.alt));
  return plan;
}

// ---- Column projection -----------------------------------------------------

/// \brief Adds the pivot columns node `n`'s pipeline reads to `cols`;
/// false when some node gathers or materializes whole rows.
///
/// Selects read their predicate's footprint; keep slices and fused
/// samplers only compose selections. Breaker samplers, block sampling and
/// re-keying, join probes, products and unions copy every column (and
/// past a join the layout is no longer the pivot's).
bool AddPathReads(const MorselProgramNode& n, std::vector<char>* cols) {
  switch (n.kind) {
    case MorselProgramNode::Kind::kScanSlice:
      return true;
    case MorselProgramNode::Kind::kKeepSlice:
      return AddPathReads(*n.child, cols);
    case MorselProgramNode::Kind::kSelect:
      for (size_t c = 0; c < cols->size(); ++c) (*cols)[c] |= n.footprint[c];
      return AddPathReads(*n.child, cols);
    case MorselProgramNode::Kind::kStreamSample:
      // MakeSampleSource fuses lineage Bernoulli always, plain Bernoulli
      // when stream_ok; otherwise it is a breaker.
      if (n.stream_ok ||
          n.node->spec().method == SamplingMethod::kLineageBernoulli) {
        return AddPathReads(*n.child, cols);
      }
      return false;
    case MorselProgramNode::Kind::kBlockSample:
    case MorselProgramNode::Kind::kBlockRekey:
    case MorselProgramNode::Kind::kJoinProbe:
    case MorselProgramNode::Kind::kProduct:
    case MorselProgramNode::Kind::kUnion:
      return false;
  }
  return false;
}

/// \brief The pivot columns the morsel pipelines read, given the columns
/// the sink declared (BatchSink::columns_read; nullptr = every column):
/// the sink's plus every pivot-path predicate's, or every column when a
/// node on the path needs whole rows.
std::vector<char> PivotColumnsRead(const MorselProgram& prog,
                                   const std::vector<char>* sink_reads) {
  std::vector<char> all(
      static_cast<size_t>(prog.pivot_layout->schema.num_columns()), 1);
  if (sink_reads == nullptr) return all;
  // A projectable path keeps the pivot layout up to the sink.
  std::vector<char> cols = *sink_reads;
  if (!AddPathReads(*prog.root, &cols)) return all;
  GUS_CHECK(cols.size() == all.size());
  return cols;
}

/// \brief Builds the shared morsel-program state: resolves the pivot
/// backing (segment store or materialized relation), executes every
/// non-pivot subtree serially with `rng`, binds predicates, resolves
/// fixed-size sampler keep-sets, pre-builds join hash tables
/// (partition-parallel), and — for segment-backed pivots — runs the
/// SegmentPruner to mark provably-empty units.
Result<MorselProgram> PrepareMorselProgram(const PlanPtr& plan,
                                           const std::string& pivot,
                                           ColumnarCatalog* catalog, Rng* rng,
                                           ExecMode mode,
                                           const ExecOptions& options) {
  MorselProgram prog;
  prog.batch_rows = options.batch_rows;
  prog.mode = mode;
  prog.pivot_name = pivot;
  GUS_ASSIGN_OR_RETURN(PivotBacking backing,
                       ResolvePivotBacking(plan, pivot, catalog));
  prog.pivot_rel = backing.rel;
  prog.pivot_store = backing.store;
  prog.store_cache =
      backing.store != nullptr ? catalog->segment_cache() : nullptr;
  prog.pivot_rows = backing.rows;
  prog.pivot_layout = backing.layout;
  prog.morsel_rows =
      ResolveMorselRows(prog.pivot_rows, backing.row_bytes,
                        PlanCostWeight(plan), options, backing.align);
  GUS_ASSIGN_OR_RETURN(prog.root,
                       CompileNode(plan, catalog, rng, mode, options, &prog));
  AssignStreamOk(prog.root.get());
  prog.out_layout = prog.root->layout;
  if (prog.pivot_store != nullptr && options.prune_segments) {
    const PrunePlan prune = BuildPrunePlan(prog);
    const std::vector<char> excluded =
        ComputeSegmentExclusion(*prog.pivot_store, prune);
    if (std::find(excluded.begin(), excluded.end(), char{1}) !=
        excluded.end()) {
      prog.unit_skip = ComputeUnitSkipMask(*prog.pivot_store, excluded,
                                           prog.morsel_rows);
    }
  }
  return prog;
}

// ---- Profiling helpers -----------------------------------------------------

using StatsClock = std::chrono::steady_clock;

double MsBetween(StatsClock::time_point a, StatsClock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Pass-through sink counting emitted rows for ExecStats (bytes derive
/// from the layout's row width once, not per batch).
class CountingSink final : public BatchSink {
 public:
  CountingSink(BatchSink* inner, int64_t* rows) : inner_(inner), rows_(rows) {}

  Status Consume(const ColumnBatch& batch) override {
    *rows_ += batch.num_rows();
    return inner_->Consume(batch);
  }
  bool wants_views() const override { return inner_->wants_views(); }
  const std::vector<char>* columns_read() const override {
    return inner_->columns_read();
  }
  Status ConsumeView(const SelView& view) override {
    *rows_ += view.num_rows();
    return inner_->ConsumeView(view);
  }

 private:
  BatchSink* inner_;
  int64_t* rows_;
};

}  // namespace

bool PlanIsPartitionable(const PlanPtr& plan, ExecMode mode) {
  return !PivotRelations(plan, mode).empty();
}

Result<MorselSplit> AnalyzeMorselSplit(const PlanPtr& plan,
                                       ColumnarCatalog* catalog, ExecMode mode,
                                       const ExecOptions& options) {
  GUS_RETURN_NOT_OK(options.Validate());
  const std::vector<std::string> cands = PivotRelations(plan, mode);
  MorselSplit split;
  if (cands.empty()) return split;  // one serial fallback unit
  GUS_ASSIGN_OR_RETURN(split.pivot_relation,
                       ChoosePivotRelation(cands, catalog));
  GUS_ASSIGN_OR_RETURN(PivotBacking backing,
                       ResolvePivotBacking(plan, split.pivot_relation,
                                           catalog));
  split.partitionable = true;
  split.pivot_rows = backing.rows;
  split.block_align = backing.align;
  split.morsel_rows =
      ResolveMorselRows(split.pivot_rows, backing.row_bytes,
                        PlanCostWeight(plan), options, split.block_align);
  split.num_units = MorselCount(split.pivot_rows, split.morsel_rows);
  return split;
}

Status ParallelExecuteUnitRangeToSink(
    const PlanPtr& plan, ColumnarCatalog* catalog, Rng* rng, ExecMode mode,
    const ExecOptions& options, int64_t unit_begin, int64_t unit_end,
    const MorselSinkFactory& make_sink,
    std::unique_ptr<MergeableBatchSink>* out, uint64_t* stream_base_out,
    std::vector<ResolvedPivotSampler>* samplers_out) {
  GUS_RETURN_NOT_OK(options.Validate());
  // Profile plumbing. Collection stays off (null stats, no counting
  // wrappers, no timers read per batch) unless the caller passed
  // options.stats or the GUS_PROFILE environment variable asked for dumps.
  ExecStats env_stats;
  ExecStats* stats = options.stats;
  if (stats == nullptr && ProfileEnvEnabled()) stats = &env_stats;
  if (stats != nullptr) stats->Reset();
  const StatsClock::time_point t_start = StatsClock::now();
  const auto emit_profile = [&] {
    if (stats != nullptr && ProfileEnvEnabled()) {
      std::fputs(stats->ToString().c_str(), stderr);
    }
  };
  // Segment-store accounting: counter deltas around this execution (the
  // cache is shared, so only deltas are attributable to this query).
  SegmentCache* const seg_cache = catalog->segment_cache();
  SegmentCacheCounters cache_before;
  if (stats != nullptr && seg_cache != nullptr) {
    cache_before = seg_cache->counters();
  }
  const auto snap_store_stats = [&] {
    if (stats == nullptr || seg_cache == nullptr) return;
    const SegmentCacheCounters after = seg_cache->counters();
    stats->segments_faulted = after.faults - cache_before.faults;
    stats->store_bytes_read = after.bytes_read - cache_before.bytes_read;
  };

  if (stream_base_out != nullptr) *stream_base_out = 0;
  if (samplers_out != nullptr) samplers_out->clear();
  const std::vector<std::string> cands = PivotRelations(plan, mode);
  if (cands.empty()) {
    // Serial fallback — one execution unit (index 0), run iff the range
    // contains it. The pipeline is compiled either way so static errors
    // and the output layout never depend on the shard's range.
    GUS_ASSIGN_OR_RETURN(
        std::unique_ptr<BatchSource> pipeline,
        CompileBatchPipeline(plan, catalog, rng, mode, options.batch_rows));
    GUS_ASSIGN_OR_RETURN(std::unique_ptr<MergeableBatchSink> sink,
                         make_sink(*pipeline->layout()));
    if (stats != nullptr) {
      stats->serial_fallback = true;
      stats->workers = 1;
      stats->sinks_created = 1;
      stats->prepare_ms = MsBetween(t_start, StatsClock::now());
    }
    if (unit_begin <= 0 && unit_end > 0) {
      if (stats != nullptr) {
        const StatsClock::time_point t_run = StatsClock::now();
        int64_t rows = 0;
        CountingSink counter(sink.get(), &rows);
        GUS_RETURN_NOT_OK(PumpToSink(pipeline.get(), &counter));
        stats->morsels = 1;
        stats->rows_emitted = rows;
        stats->bytes_moved = rows * RowBytes(*pipeline->layout());
        stats->parallel_ms = MsBetween(t_run, StatsClock::now());
      } else {
        GUS_RETURN_NOT_OK(PumpToSink(pipeline.get(), sink.get()));
      }
    }
    if (stats != nullptr) {
      snap_store_stats();
      stats->total_ms = MsBetween(t_start, StatsClock::now());
      emit_profile();
    }
    *out = std::move(sink);
    return Status::OK();
  }

  GUS_ASSIGN_OR_RETURN(const std::string pivot,
                       ChoosePivotRelation(cands, catalog));
  GUS_ASSIGN_OR_RETURN(
      MorselProgram program,
      PrepareMorselProgram(plan, pivot, catalog, rng, mode, options));
  if (samplers_out != nullptr) *samplers_out = program.samplers;
  // One draw seeds every morsel stream; consumed after the serial prepare
  // phase (non-pivot subtrees + pivot sampler seeds) so the whole
  // consumption order is a pure function of (plan, seed) — and therefore
  // identical in every shard worker running this plan.
  const uint64_t stream_base = rng->Next();
  if (stream_base_out != nullptr) *stream_base_out = stream_base;

  // The first sink declares the columns it reads, fixing the pivot
  // footprint once per query; it then serves the first morsel.
  GUS_ASSIGN_OR_RETURN(std::unique_ptr<MergeableBatchSink> first_sink,
                       make_sink(*program.out_layout));
  if (program.pivot_store != nullptr) {
    program.pivot_cols = PivotColumnsRead(program, first_sink->columns_read());
  }

  const int64_t num_morsels = program.num_morsels();
  unit_begin = std::clamp<int64_t>(unit_begin, 0, num_morsels);
  unit_end = std::clamp<int64_t>(unit_end, unit_begin, num_morsels);
  if (unit_begin >= unit_end) {
    *out = std::move(first_sink);
    if (stats != nullptr) {
      stats->sinks_created = 1;
      snap_store_stats();
      stats->prepare_ms = MsBetween(t_start, StatsClock::now());
      stats->total_ms = stats->prepare_ms;
      emit_profile();
    }
    return Status::OK();
  }

  const int64_t range_units = unit_end - unit_begin;
  const int workers = static_cast<int>(
      std::min<int64_t>(std::max(1, options.num_threads), range_units));
  const int64_t out_row_bytes =
      stats != nullptr ? RowBytes(*program.out_layout) : 0;
  if (stats != nullptr) {
    stats->pivot_rows = program.pivot_rows;
    stats->morsels = range_units;
    stats->morsel_rows = program.morsel_rows;
    stats->workers = workers;
    stats->worker_morsels.assign(workers, 0);
    stats->prepare_ms = MsBetween(t_start, StatsClock::now());
  }

  // Ordered fold: per-morsel sinks merge in strictly ascending morsel
  // index, regardless of completion order, so the result never depends on
  // scheduling or worker count. The fold itself runs *outside* the mutex
  // (merges can be large — a materializing sink copies whole partitions);
  // `merging` guarantees a single folder at a time, so `merged` needs no
  // lock of its own and the fold order stays strictly sequential. Sinks
  // whose Recycle() succeeds after being absorbed go back to `arena` and
  // serve later morsels, replacing a per-morsel factory call with a reset.
  std::mutex mu;
  std::map<int64_t, std::unique_ptr<MergeableBatchSink>> pending;
  int64_t next_merge = unit_begin;
  bool merging = false;
  std::unique_ptr<MergeableBatchSink> merged;
  Status error;
  std::vector<std::unique_ptr<MergeableBatchSink>> arena;
  int64_t sinks_created = 1;  // first_sink
  int64_t sinks_recycled = 0;
  double fold_ms = 0.0;
  std::atomic<int64_t> rows_emitted{0};

  const auto run_morsel = [&](int worker, int64_t m) {
    {
      std::lock_guard<std::mutex> lock(mu);
      if (!error.ok()) return;
    }
    Rng morsel_rng = Rng::ForkStream(stream_base, static_cast<uint64_t>(m));
    // Pruned unit: fold its sink untouched — byte-identical to "executed
    // and emitted nothing", which the exclusion proof guarantees; the
    // unit's forked stream is simply never consumed.
    const bool skip_unit =
        !program.unit_skip.empty() &&
        program.unit_skip[static_cast<size_t>(m)] != 0;
    if (stats != nullptr && !skip_unit) {
      // Distinct slot per worker; published by the pool's completion sync.
      // A pruned unit costs nothing, so it is not counted as work.
      stats->worker_morsels[worker] += 1;
    }
    Status status;
    std::unique_ptr<MergeableBatchSink> sink;
    do {
      {
        std::lock_guard<std::mutex> lock(mu);
        if (first_sink != nullptr) {
          sink = std::move(first_sink);
        } else if (!arena.empty()) {
          sink = std::move(arena.back());
          arena.pop_back();
          ++sinks_recycled;
        } else {
          ++sinks_created;
        }
      }
      if (sink == nullptr) {
        auto sink_or = make_sink(*program.out_layout);
        if (!sink_or.ok()) {
          status = sink_or.status();
          break;
        }
        sink = std::move(sink_or).ValueOrDie();
      }
      if (skip_unit) break;
      auto pipeline_or = program.MakeMorselPipeline(m, &morsel_rng);
      if (!pipeline_or.ok()) {
        status = pipeline_or.status();
        break;
      }
      std::unique_ptr<BatchSource> pipeline =
          std::move(pipeline_or).ValueOrDie();
      if (stats != nullptr) {
        int64_t rows = 0;
        CountingSink counter(sink.get(), &rows);
        status = PumpToSink(pipeline.get(), &counter);
        rows_emitted.fetch_add(rows, std::memory_order_relaxed);
      } else {
        status = PumpToSink(pipeline.get(), sink.get());
      }
    } while (false);

    {
      std::lock_guard<std::mutex> lock(mu);
      if (!error.ok()) return;
      if (!status.ok()) {
        error = status;
        return;
      }
      pending.emplace(m, std::move(sink));
      if (merging) return;  // the active folder will pick this sink up
      merging = true;
    }
    std::vector<std::unique_ptr<MergeableBatchSink>> ready;
    std::vector<std::unique_ptr<MergeableBatchSink>> recycled;
    while (true) {
      ready.clear();
      {
        std::lock_guard<std::mutex> lock(mu);
        auto it = pending.find(next_merge);
        while (it != pending.end()) {
          ready.push_back(std::move(it->second));
          pending.erase(it);
          it = pending.find(++next_merge);
        }
        if (ready.empty() || !error.ok()) {
          merging = false;
          return;
        }
      }
      const StatsClock::time_point t_fold = StatsClock::now();
      Status fold_error;
      recycled.clear();
      for (std::unique_ptr<MergeableBatchSink>& next : ready) {
        if (merged == nullptr) {
          merged = std::move(next);
          continue;
        }
        Status st = merged->MergeFrom(next.get());
        if (!st.ok()) {
          fold_error = st;
          break;
        }
        if (next->Recycle()) recycled.push_back(std::move(next));
      }
      {
        std::lock_guard<std::mutex> lock(mu);
        fold_ms += MsBetween(t_fold, StatsClock::now());
        for (std::unique_ptr<MergeableBatchSink>& s : recycled) {
          arena.push_back(std::move(s));
        }
        if (!fold_error.ok()) {
          error = fold_error;
          merging = false;
          return;
        }
      }
    }
  };

  const ThreadPool::Placement placement =
      options.placement == MorselPlacement::kRangeBound
          ? ThreadPool::Placement::kRangeBound
          : ThreadPool::Placement::kDynamic;
  PoolLease lease(workers);
  const StatsClock::time_point t_par = StatsClock::now();
  lease->ParallelForChunked(range_units, /*chunk=*/1, workers, placement,
                            [&](int worker, int64_t b, int64_t e) {
                              for (int64_t i = b; i < e; ++i) {
                                run_morsel(worker, unit_begin + i);
                              }
                            });

  if (stats != nullptr) {
    stats->parallel_ms = MsBetween(t_par, StatsClock::now());
    stats->sink_fold_ms = fold_ms;
    stats->rows_emitted = rows_emitted.load(std::memory_order_relaxed);
    stats->bytes_moved = stats->rows_emitted * out_row_bytes;
    stats->sinks_created = sinks_created;
    stats->sinks_recycled = sinks_recycled;
    stats->pool_wakeups = lease.wakeups_during();
    stats->pool_threads_spawned = lease.spawned_during();
    snap_store_stats();
    if (program.pivot_store != nullptr) {
      stats->segments_total = SegmentsInUnitRange(
          *program.pivot_store, program.morsel_rows, unit_begin, unit_end);
      stats->segments_skipped = SkippedSegmentsInUnitRange(
          *program.pivot_store, program.unit_skip, program.morsel_rows,
          unit_begin, unit_end);
    }
    stats->total_ms = MsBetween(t_start, StatsClock::now());
    emit_profile();
  }

  GUS_RETURN_NOT_OK(error);
  GUS_CHECK(merged != nullptr);
  *out = std::move(merged);
  return Status::OK();
}

Status ParallelExecutePlanToSink(const PlanPtr& plan, ColumnarCatalog* catalog,
                                 Rng* rng, ExecMode mode,
                                 const ExecOptions& options,
                                 const MorselSinkFactory& make_sink,
                                 std::unique_ptr<MergeableBatchSink>* out) {
  return ParallelExecuteUnitRangeToSink(
      plan, catalog, rng, mode, options, 0,
      std::numeric_limits<int64_t>::max(), make_sink, out);
}

}  // namespace gus
