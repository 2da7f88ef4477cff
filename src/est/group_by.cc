#include "est/group_by.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <unordered_map>
#include <utility>

#include "est/unbiased.h"
#include "est/variance.h"
#include "est/wire.h"
#include "est/ys.h"
#include "kernels/key_hash.h"
#include "kernels/simd/simd_dispatch.h"
#include "plan/vector_eval.h"

namespace gus {

namespace {

/// \brief Every group's full Theorem-1 treatment, shared by the
/// relation-based and streaming paths so their numbers agree bit for bit.
///
/// `flat` holds the groups' rows one after another: group k (key keys[k])
/// is rows [begin[k], begin[k+1]); estimates come out in that order. One
/// lattice walk, with the group as a dimension present in every partition,
/// yields every group's y_S exactly as a walk over that group's rows alone
/// would; the Theorem-1 constants are computed once for all groups.
Result<std::vector<GroupEstimate>> EstimateGroups(
    const GusParams& gus, const std::vector<const Value*>& keys,
    const SampleView& flat, const std::vector<int64_t>& begin,
    double confidence_level, BoundKind kind) {
  std::vector<GroupEstimate> out;
  if (keys.empty()) return out;
  if (gus.a() <= 0.0) return Status::InvalidArgument("estimator needs a > 0");
  GUS_ASSIGN_OR_RETURN(const std::vector<std::vector<double>> y,
                       ComputeYsLattice(flat.lineage, {flat.f.data()},
                                        flat.num_rows(), {{0, 0}}, begin));
  const std::vector<double>& Y = y[0];
  // The Theorem-1 constants, and every check the per-group chain would
  // make (each independent of the group), once.
  const UnbiasingPlan unbias(gus);
  GUS_RETURN_NOT_OK(unbias.status());
  const VarianceWeights weights(gus);
  GUS_RETURN_NOT_OK(weights.status());
  GUS_ASSIGN_OR_RETURN(const double k_sigma,
                       IntervalMultiplier(confidence_level, kind));
  const size_t subsets = gus.schema().num_subsets();
  std::vector<double> y_hat(subsets);
  out.reserve(keys.size());
  for (size_t k = 0; k < keys.size(); ++k) {
    GroupEstimate ge;
    ge.key = *keys[k];
    ge.sample_rows = begin[k + 1] - begin[k];
    double sum = 0.0;
    for (int64_t i = begin[k]; i < begin[k + 1]; ++i) sum += flat.f[i];
    ge.estimate = sum / gus.a();
    unbias.Apply(Y.data() + k * subsets, y_hat.data());
    ge.variance = std::max(0.0, weights.Variance(y_hat.data()));
    ge.stddev = std::sqrt(ge.variance);
    // MakeInterval's arithmetic; the variance is already clamped.
    ge.interval = {ge.estimate - k_sigma * ge.stddev,
                   ge.estimate + k_sigma * ge.stddev, confidence_level, kind};
    out.push_back(std::move(ge));
  }
  return out;
}

/// \brief Deterministic output order: by key (numeric-aware enough for
/// tests and display). Returns indexes into `keys` in output order.
///
/// Callers lay their groups out in this order, so estimates come out
/// sorted without being moved. The order (ties included) is the one
/// std::sort gives the keys in the order passed: numeric keys that are
/// pairwise distinct as doubles — the usual case — have exactly one sorted
/// order, which an LSD radix sort on order-preserving bit patterns finds in
/// linear time; string keys, NaN, or two keys equal as doubles go through
/// std::sort, whose comparisons alone decide the ties. On ~12.6k customer
/// keys std::sort nearly doubles the grouped Finish (BM_GroupedFinish:
/// 2.2 ms with radix, 4.1 ms without).
std::vector<size_t> KeyOrder(const std::vector<const Value*>& keys) {
  const size_t n = keys.size();
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  bool radix = true;
  std::vector<uint64_t> bits(n);
  for (size_t i = 0; i < n && radix; ++i) {
    radix = keys[i]->is_numeric() && !std::isnan(keys[i]->ToDouble());
    if (radix) {
      // Flip so unsigned order is double order (negatives reversed).
      const uint64_t b = std::bit_cast<uint64_t>(keys[i]->ToDouble());
      bits[i] = (b >> 63) != 0 ? ~b : b | (uint64_t{1} << 63);
    }
  }
  if (radix && n > 0) {
    constexpr int kDigitBits = 11;
    constexpr size_t kBuckets = size_t{1} << kDigitBits;
    std::vector<size_t> scratch(n);
    std::vector<size_t> count(kBuckets);
    for (int shift = 0; shift < 64; shift += kDigitBits) {
      std::fill(count.begin(), count.end(), 0);
      for (size_t i : order) ++count[(bits[i] >> shift) & (kBuckets - 1)];
      if (count[(bits[order[0]] >> shift) & (kBuckets - 1)] == n) continue;
      size_t sum = 0;
      for (size_t& c : count) sum += std::exchange(c, sum);
      for (size_t i : order) {
        scratch[count[(bits[i] >> shift) & (kBuckets - 1)]++] = i;
      }
      order.swap(scratch);
    }
    for (size_t k = 1; k < n && radix; ++k) {
      radix = keys[order[k - 1]]->ToDouble() != keys[order[k]]->ToDouble();
    }
    if (radix) return order;
    for (size_t i = 0; i < n; ++i) order[i] = i;
  }
  std::sort(order.begin(), order.end(), [&keys](size_t a, size_t b) {
    const Value& ka = *keys[a];
    const Value& kb = *keys[b];
    if (ka.is_numeric() && kb.is_numeric()) {
      return ka.ToDouble() < kb.ToDouble();
    }
    return ka.ToString() < kb.ToString();
  });
  return order;
}

/// \brief Each group's rows, groups in `order`: rows_of[begin[k] ..
/// begin[k+1]) are the rows of group order[k] (row_group[i] is row i's
/// group), in row order. A stable counting sort.
void RowsByGroup(const std::vector<uint32_t>& row_group, size_t num_groups,
                 const std::vector<uint32_t>& order,
                 std::vector<int64_t>* begin, std::vector<int64_t>* rows_of) {
  std::vector<int64_t> size(num_groups, 0);
  for (uint32_t g : row_group) ++size[g];
  std::vector<int64_t> next(num_groups);
  begin->assign(1, 0);
  begin->reserve(order.size() + 1);
  for (uint32_t g : order) {
    next[g] = begin->back();
    begin->push_back(begin->back() + size[g]);
  }
  rows_of->resize(row_group.size());
  for (size_t i = 0; i < row_group.size(); ++i) {
    (*rows_of)[static_cast<size_t>(next[row_group[i]]++)] =
        static_cast<int64_t>(i);
  }
}

/// \brief Every group's estimate from rows stored flat: row i belongs to
/// group row_group[i] (key keys[g]) with value f[i] and lineage[d][i].
///
/// `index_order` lists the group numbers in their key index's iteration
/// order, the order ties between keys are broken in. The groups' rows are
/// laid out one after another in output (key) order for EstimateGroups.
Result<std::vector<GroupEstimate>> EstimateFlatGroups(
    const GusParams& gus, const std::vector<Value>& keys,
    const std::vector<uint32_t>& index_order,
    const std::vector<uint32_t>& row_group, const std::vector<double>& f,
    const std::vector<std::vector<uint64_t>>& lineage,
    double confidence_level, BoundKind kind) {
  std::vector<const Value*> index_keys;
  index_keys.reserve(index_order.size());
  for (uint32_t g : index_order) index_keys.push_back(&keys[g]);
  std::vector<uint32_t> order;
  std::vector<const Value*> sorted_keys;
  order.reserve(index_order.size());
  sorted_keys.reserve(index_order.size());
  for (size_t k : KeyOrder(index_keys)) {
    order.push_back(index_order[k]);
    sorted_keys.push_back(index_keys[k]);
  }
  std::vector<int64_t> begin, rows_of;
  RowsByGroup(row_group, keys.size(), order, &begin, &rows_of);
  SampleView flat;
  flat.schema = gus.schema();
  flat.f.resize(rows_of.size());
  for (size_t i = 0; i < rows_of.size(); ++i) flat.f[i] = f[rows_of[i]];
  flat.lineage.resize(lineage.size());
  for (size_t d = 0; d < lineage.size(); ++d) {
    flat.lineage[d].resize(rows_of.size());
    for (size_t i = 0; i < rows_of.size(); ++i) {
      flat.lineage[d][i] = lineage[d][rows_of[i]];
    }
  }
  return EstimateGroups(gus, sorted_keys, flat, begin, confidence_level, kind);
}

}  // namespace

Result<std::vector<GroupEstimate>> GroupedSumEstimate(
    const GusParams& gus, const Relation& rel, const ExprPtr& f_expr,
    const std::string& key_column, double confidence_level, BoundKind kind) {
  GUS_ASSIGN_OR_RETURN(SampleView view,
                       SampleView::FromRelation(rel, f_expr, gus.schema()));
  GUS_ASSIGN_OR_RETURN(int key_idx, rel.schema().IndexOf(key_column));

  // Number the groups by key hash (exact keys kept for output). Hash
  // partitioning follows KeyEquals semantics: numerically equal keys of
  // mixed int64/float64 type hash together and deliberately form one group
  // (consistent with how joins match keys); a typed key column never mixes
  // types unless the input was malformed to begin with.
  std::unordered_map<uint64_t, uint32_t> index;
  std::vector<Value> keys;
  std::vector<uint32_t> row_group;
  row_group.reserve(static_cast<size_t>(rel.num_rows()));
  for (int64_t i = 0; i < rel.num_rows(); ++i) {
    const Value& key = rel.row(i)[key_idx];
    const auto [it, inserted] =
        index.try_emplace(key.Hash(), static_cast<uint32_t>(keys.size()));
    if (inserted) {
      keys.push_back(key);
    } else if (!keys[it->second].KeyEquals(key)) {
      // Refuse to silently fuse distinct keys on a 64-bit hash collision.
      return Status::Internal("group-by key hash collision between '" +
                              keys[it->second].ToString() + "' and '" +
                              key.ToString() + "'");
    }
    row_group.push_back(it->second);
  }
  std::vector<uint32_t> index_order;
  index_order.reserve(keys.size());
  for (const auto& entry : index) index_order.push_back(entry.second);
  return EstimateFlatGroups(gus, keys, index_order, row_group, view.f,
                            view.lineage, confidence_level, kind);
}

Result<GroupedSumBuilder> GroupedSumBuilder::Make(const BatchLayout& layout,
                                                  const ExprPtr& f_expr,
                                                  const std::string& key_column,
                                                  const LineageSchema& schema) {
  GroupedSumBuilder builder;
  GUS_ASSIGN_OR_RETURN(builder.source_,
                       MapAnalysisDims(layout.lineage_schema, schema));
  GUS_ASSIGN_OR_RETURN(builder.bound_, f_expr->Bind(layout.schema));
  GUS_ASSIGN_OR_RETURN(builder.key_idx_, layout.schema.IndexOf(key_column));
  builder.schema_ = schema;
  builder.lineage_.assign(static_cast<size_t>(schema.arity()), {});
  ExprColumnFootprint(builder.bound_, layout.schema.num_columns(),
                      &builder.footprint_);
  return builder;
}

namespace {

/// Typed key test of a group against row `row` of the key column — the
/// exact Value::KeyEquals relation without constructing a Value (same-type
/// is the only shape a live builder sees: a key column's type is fixed by
/// the layout; the mismatch fallback keeps the semantics total).
bool GroupKeyEqualsAt(const Value& key, const ColumnData& col, int64_t row) {
  switch (col.type) {
    case ValueType::kInt64:
      if (key.type() == ValueType::kInt64) return key.AsInt64() == col.i64[row];
      break;
    case ValueType::kFloat64:
      if (key.type() == ValueType::kFloat64) {
        return key.AsFloat64() == col.f64[row];
      }
      break;
    case ValueType::kString:
      if (key.type() == ValueType::kString) {
        return key.AsString() == col.StringAt(row);
      }
      break;
  }
  return key.KeyEquals(col.ValueAt(row));
}

}  // namespace

Status GroupedSumBuilder::AccumulateRows(const ColumnBatch& data,
                                         const int64_t* rows, int64_t len) {
  const ColumnData& key_col = data.column(key_idx_);
  hash_scratch_.resize(static_cast<size_t>(len));
  switch (key_col.type) {
    case ValueType::kInt64:
      simd::HashI64KeysGather(key_col.i64.data(), rows, len,
                              hash_scratch_.data());
      break;
    case ValueType::kFloat64:
      for (int64_t k = 0; k < len; ++k) {
        hash_scratch_[k] = HashFloat64Key(key_col.f64[rows[k]]);
      }
      break;
    case ValueType::kString:
      if (key_col.dict != key_dict_) {
        key_dict_ = key_col.dict;
        key_dict_hashes_ = DictKeyHashes(key_col);
      }
      simd::HashDictCodesGather(key_dict_hashes_.data(),
                                key_col.codes.data(), rows, len,
                                hash_scratch_.data());
      break;
  }
  const int n = static_cast<int>(source_.size());
  const int arity = data.lineage_arity();
  const uint64_t* lineage = data.lineage().data();
  // Run cache: grouped streams are frequently key-clustered, and equal
  // hash within one builder means equal group (collisions are refused on
  // insert) — but each row is still key-checked below, exactly as the
  // per-row path did.
  uint64_t last_hash = 0;
  uint32_t group = 0;
  bool have_group = false;
  for (int64_t k = 0; k < len; ++k) {
    const int64_t row = rows[k];
    const uint64_t h = hash_scratch_[k];
    bool is_new = false;
    if (!have_group || h != last_hash) {
      const auto [it, inserted] =
          index_.try_emplace(h, static_cast<uint32_t>(keys_.size()));
      if (inserted) keys_.push_back(key_col.ValueAt(row));
      group = it->second;
      last_hash = h;
      have_group = true;
      is_new = inserted;
    }
    if (!is_new && !GroupKeyEqualsAt(keys_[group], key_col, row)) {
      // Refuse to silently fuse distinct keys on a 64-bit hash collision.
      return Status::Internal("group-by key hash collision between '" +
                              keys_[group].ToString() + "' and '" +
                              key_col.ValueAt(row).ToString() + "'");
    }
    row_group_.push_back(group);
    f_.push_back(f_scratch_[k]);
    const uint64_t* lrow = lineage + static_cast<size_t>(row) * arity;
    for (int d = 0; d < n; ++d) lineage_[d].push_back(lrow[source_[d]]);
  }
  return Status::OK();
}

Status GroupedSumBuilder::Consume(const ColumnBatch& batch) {
  if (bound_ == nullptr) {
    return Status::InvalidArgument(
        "deserialized GroupedSumBuilder state is merge/finish-only (the "
        "bound aggregate expression does not travel on the wire)");
  }
  f_scratch_.clear();
  GUS_RETURN_NOT_OK(EvalExprBatchToDoubles(
      bound_, batch, "aggregate expression must be numeric", &f_scratch_));
  const int64_t n = batch.num_rows();
  rows_scratch_.resize(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) rows_scratch_[i] = i;
  return AccumulateRows(batch, rows_scratch_.data(), n);
}

Status GroupedSumBuilder::ConsumeView(const SelView& view) {
  if (bound_ == nullptr) {
    return Status::InvalidArgument(
        "deserialized GroupedSumBuilder state is merge/finish-only (the "
        "bound aggregate expression does not travel on the wire)");
  }
  const int64_t len = view.num_rows();
  if (len == 0) return Status::OK();
  const ColumnBatch& data = *view.data;
  const int64_t* rows = view.sel;
  if (view.contiguous()) {
    rows_scratch_.resize(static_cast<size_t>(len));
    for (int64_t i = 0; i < len; ++i) rows_scratch_[i] = view.begin + i;
    rows = rows_scratch_.data();
  }
  f_scratch_.clear();
  if (view.whole_batch()) {
    GUS_RETURN_NOT_OK(EvalExprBatchToDoubles(
        bound_, data, "aggregate expression must be numeric", &f_scratch_));
  } else {
    // Only the f expression's columns are gathered (keys and lineage are
    // read through the selection directly).
    if (eval_scratch_.layout_ptr() != data.layout_ptr()) {
      eval_scratch_.ResetLayout(data.layout_ptr());
    } else {
      eval_scratch_.Clear();
    }
    eval_scratch_.GatherColumnsFrom(data, rows, len, footprint_);
    GUS_RETURN_NOT_OK(EvalExprBatchToDoubles(
        bound_, eval_scratch_, "aggregate expression must be numeric",
        &f_scratch_));
  }
  return AccumulateRows(data, rows, len);
}

Status GroupedSumBuilder::Merge(GroupedSumBuilder&& other) {
  if (source_ != other.source_ || key_idx_ != other.key_idx_ ||
      !(schema_ == other.schema_)) {
    return Status::InvalidArgument(
        "cannot merge GroupedSumBuilders over different layouts");
  }
  // Other's groups join in other's index order; each of its rows then
  // follows this builder's rows, so every group's rows concatenate in
  // partition order.
  std::vector<uint32_t> remap(other.keys_.size());
  for (const auto& [h, g] : other.index_) {
    const auto [it, inserted] =
        index_.try_emplace(h, static_cast<uint32_t>(keys_.size()));
    if (inserted) {
      keys_.push_back(std::move(other.keys_[g]));
    } else if (!keys_[it->second].KeyEquals(other.keys_[g])) {
      return Status::Internal("group-by key hash collision between '" +
                              keys_[it->second].ToString() + "' and '" +
                              other.keys_[g].ToString() + "'");
    }
    remap[g] = it->second;
  }
  for (uint32_t g : other.row_group_) row_group_.push_back(remap[g]);
  f_.insert(f_.end(), other.f_.begin(), other.f_.end());
  for (size_t d = 0; d < lineage_.size(); ++d) {
    lineage_[d].insert(lineage_[d].end(), other.lineage_[d].begin(),
                       other.lineage_[d].end());
  }
  return Status::OK();
}

namespace {

/// Canonical serialization order over group keys: a total order so equal
/// logical state always produces equal bytes. Numerics sort before strings
/// (by promoted value, then type tag for int64-vs-float64 ties beyond
/// 2^53); strings sort lexicographically; the key hash is a final
/// tiebreak. Distinct-by-KeyEquals keys never compare equal here.
bool CanonicalKeyLess(const Value& a, const Value& b) {
  const bool an = a.is_numeric(), bn = b.is_numeric();
  if (an != bn) return an;
  if (an) {
    const double da = a.ToDouble(), db = b.ToDouble();
    if (da != db) return da < db;
    const int ta = static_cast<int>(a.type()), tb = static_cast<int>(b.type());
    if (ta != tb) return ta < tb;
  } else {
    if (a.AsString() != b.AsString()) return a.AsString() < b.AsString();
  }
  return a.Hash() < b.Hash();
}

/// Key wire tags (docs/WIRE_FORMAT.md, GRUP section).
constexpr uint8_t kKeyInt64 = 0;
constexpr uint8_t kKeyFloat64 = 1;
constexpr uint8_t kKeyString = 2;

}  // namespace

std::string GroupedSumBuilder::SerializeState() const {
  WireWriter w;
  w.PutU32(static_cast<uint32_t>(schema_.arity()));
  for (const std::string& rel : schema_.relations()) w.PutString(rel);
  EncodeSourceMap(source_, &w);
  w.PutI32(key_idx_);

  std::vector<uint32_t> ordered(keys_.size());
  for (uint32_t g = 0; g < ordered.size(); ++g) ordered[g] = g;
  std::sort(ordered.begin(), ordered.end(), [this](uint32_t a, uint32_t b) {
    return CanonicalKeyLess(keys_[a], keys_[b]);
  });
  std::vector<int64_t> begin, rows_of;
  RowsByGroup(row_group_, keys_.size(), ordered, &begin, &rows_of);

  // String keys are dictionary-coded: distinct strings once, in
  // first-use (canonical) order; groups then reference codes. Codes are
  // local to this payload — the decoder resolves them back to strings, so
  // two shards assigning the same code to different strings merge
  // correctly by content.
  std::unordered_map<std::string, uint32_t> dict_codes;
  std::vector<const std::string*> dict;
  for (uint32_t g : ordered) {
    if (keys_[g].type() != ValueType::kString) continue;
    const std::string& s = keys_[g].AsString();
    if (dict_codes.emplace(s, static_cast<uint32_t>(dict.size())).second) {
      dict.push_back(&s);
    }
  }
  w.PutU32(static_cast<uint32_t>(dict.size()));
  for (const std::string* s : dict) w.PutString(*s);

  w.PutU64(ordered.size());
  for (size_t k = 0; k < ordered.size(); ++k) {
    const Value& key = keys_[ordered[k]];
    switch (key.type()) {
      case ValueType::kInt64:
        w.PutU8(kKeyInt64);
        w.PutI64(key.AsInt64());
        break;
      case ValueType::kFloat64:
        w.PutU8(kKeyFloat64);
        w.PutDouble(key.AsFloat64());
        break;
      case ValueType::kString:
        w.PutU8(kKeyString);
        w.PutU32(dict_codes.at(key.AsString()));
        break;
    }
    // Groups share the builder's analysis schema, so only the row data
    // travels (no per-group schema repeat).
    const int64_t* rows = rows_of.data() + begin[k];
    const int64_t count = begin[k + 1] - begin[k];
    w.PutU64(static_cast<uint64_t>(count));
    for (int d = 0; d < schema_.arity(); ++d) {
      for (int64_t i = 0; i < count; ++i) w.PutU64(lineage_[d][rows[i]]);
    }
    for (int64_t i = 0; i < count; ++i) w.PutDouble(f_[rows[i]]);
  }
  return w.Take();
}

Result<GroupedSumBuilder> GroupedSumBuilder::DeserializeState(
    std::string_view payload) {
  WireReader r(payload);
  GroupedSumBuilder builder;
  uint32_t arity = 0;
  GUS_RETURN_NOT_OK(r.ReadU32(&arity));
  if (arity > LineageSchema::kMaxLineageArity) {
    return Status::InvalidArgument("wire GroupedSumBuilder arity out of range");
  }
  std::vector<std::string> rels(arity);
  for (auto& rel : rels) GUS_RETURN_NOT_OK(r.ReadString(&rel));
  GUS_ASSIGN_OR_RETURN(builder.schema_, LineageSchema::Make(std::move(rels)));
  builder.lineage_.assign(arity, {});
  GUS_RETURN_NOT_OK(DecodeSourceMap(&r, &builder.source_));
  if (builder.source_.size() != arity) {
    return Status::InvalidArgument(
        "wire GroupedSumBuilder source map does not match the schema");
  }
  GUS_RETURN_NOT_OK(r.ReadI32(&builder.key_idx_));

  uint32_t dict_size = 0;
  GUS_RETURN_NOT_OK(r.ReadU32(&dict_size));
  if (dict_size > r.remaining()) {
    return Status::InvalidArgument("truncated wire GroupedSumBuilder "
                                   "dictionary");
  }
  std::vector<std::string> dict(dict_size);
  for (auto& s : dict) GUS_RETURN_NOT_OK(r.ReadString(&s));

  uint64_t group_count = 0;
  GUS_RETURN_NOT_OK(r.ReadU64(&group_count));
  if (group_count > r.remaining()) {
    return Status::InvalidArgument("truncated wire GroupedSumBuilder groups");
  }
  for (uint64_t g = 0; g < group_count; ++g) {
    uint8_t key_type = 0;
    GUS_RETURN_NOT_OK(r.ReadU8(&key_type));
    Value key;
    switch (key_type) {
      case kKeyInt64: {
        int64_t v = 0;
        GUS_RETURN_NOT_OK(r.ReadI64(&v));
        key = Value(v);
        break;
      }
      case kKeyFloat64: {
        double v = 0.0;
        GUS_RETURN_NOT_OK(r.ReadDouble(&v));
        key = Value(v);
        break;
      }
      case kKeyString: {
        uint32_t code = 0;
        GUS_RETURN_NOT_OK(r.ReadU32(&code));
        if (code >= dict.size()) {
          return Status::InvalidArgument(
              "wire GroupedSumBuilder key references a dictionary code "
              "outside the payload's dictionary");
        }
        key = Value(dict[code]);
        break;
      }
      default:
        return Status::InvalidArgument(
            "wire GroupedSumBuilder has an unknown key type tag");
    }
    const uint32_t group = static_cast<uint32_t>(builder.keys_.size());
    if (!builder.index_.try_emplace(key.Hash(), group).second) {
      return Status::InvalidArgument(
          "wire GroupedSumBuilder repeats a group key");
    }
    builder.keys_.push_back(std::move(key));
    uint64_t rows = 0;
    GUS_RETURN_NOT_OK(r.ReadU64(&rows));
    if (rows > r.remaining() / 8) {
      return Status::InvalidArgument(
          "truncated wire GroupedSumBuilder group rows");
    }
    builder.row_group_.insert(builder.row_group_.end(), rows, group);
    for (uint32_t d = 0; d < arity; ++d) {
      std::vector<uint64_t>& column = builder.lineage_[d];
      const size_t base = column.size();
      column.resize(base + rows);
      for (uint64_t i = 0; i < rows; ++i) {
        GUS_RETURN_NOT_OK(r.ReadU64(&column[base + i]));
      }
    }
    const size_t base = builder.f_.size();
    builder.f_.resize(base + rows);
    for (uint64_t i = 0; i < rows; ++i) {
      GUS_RETURN_NOT_OK(r.ReadDouble(&builder.f_[base + i]));
    }
  }
  GUS_RETURN_NOT_OK(r.ExpectEnd());
  return builder;
}

Result<std::vector<GroupEstimate>> GroupedSumBuilder::Finish(
    const GusParams& gus, double confidence_level, BoundKind kind) const {
  if (!(gus.schema() == schema_)) {
    return Status::InvalidArgument(
        "GusParams schema does not match the builder's analysis schema");
  }
  std::vector<uint32_t> index_order;
  index_order.reserve(keys_.size());
  for (const auto& entry : index_) index_order.push_back(entry.second);
  return EstimateFlatGroups(gus, keys_, index_order, row_group_, f_, lineage_,
                            confidence_level, kind);
}

}  // namespace gus
