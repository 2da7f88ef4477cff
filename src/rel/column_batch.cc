#include "rel/column_batch.h"

#include <algorithm>

#include "kernels/simd/simd_dispatch.h"
#include "util/hash.h"

namespace gus {

namespace {

/// Amortized reserve: geometric growth even when callers append in many
/// small batches, so repeated AppendRangeFrom/GatherFrom stay O(n) total.
template <typename T>
void GrowFor(std::vector<T>* v, size_t additional) {
  const size_t need = v->size() + additional;
  if (need > v->capacity()) v->reserve(std::max(need, v->capacity() * 2));
}

/// \brief Code translation table from `src`'s dictionary into `dst`'s,
/// interning misses.
///
/// Unifying dictionaries once per append is O(|src dict|) string work
/// instead of O(rows); the bulk copy then remaps integer codes.
std::vector<uint32_t> BuildDictRemap(StringDict* dst, const StringDict& src) {
  std::vector<uint32_t> remap;
  remap.reserve(src.values.size());
  for (const std::string& s : src.values) remap.push_back(dst->Intern(s));
  return remap;
}

}  // namespace

void ColumnData::Clear() {
  i64.clear();
  f64.clear();
  codes.clear();
  // The dictionary is kept: batches are reused across pipeline pulls and
  // almost always refill from the same source.
}

void ColumnData::Reserve(int64_t n) {
  switch (type) {
    case ValueType::kInt64: i64.reserve(n); break;
    case ValueType::kFloat64: f64.reserve(n); break;
    case ValueType::kString: codes.reserve(n); break;
  }
}

Value ColumnData::ValueAt(int64_t i) const {
  switch (type) {
    case ValueType::kInt64: return Value(i64[i]);
    case ValueType::kFloat64: return Value(f64[i]);
    case ValueType::kString: return Value(dict->values[codes[i]]);
  }
  GUS_CHECK(false && "unhandled ValueType");
  return Value();
}

Status ColumnData::AppendValue(const Value& v) {
  if (v.type() != type) {
    return Status::TypeError(std::string("column of type ") +
                             ValueTypeName(type) + " cannot hold a " +
                             ValueTypeName(v.type()) + " value");
  }
  switch (type) {
    case ValueType::kInt64:
      i64.push_back(v.AsInt64());
      break;
    case ValueType::kFloat64:
      f64.push_back(v.AsFloat64());
      break;
    case ValueType::kString:
      if (dict == nullptr) dict = std::make_shared<StringDict>();
      codes.push_back(dict->Intern(v.AsString()));
      break;
  }
  return Status::OK();
}

void ColumnData::AppendFrom(const ColumnData& src, int64_t row) {
  GUS_DCHECK(src.type == type);
  switch (type) {
    case ValueType::kInt64:
      i64.push_back(src.i64[row]);
      break;
    case ValueType::kFloat64:
      f64.push_back(src.f64[row]);
      break;
    case ValueType::kString:
      if (dict == nullptr || codes.empty()) {
        dict = src.dict;  // adopt: no rows yet, any previous dict is moot
      }
      if (dict == src.dict) {
        codes.push_back(src.codes[row]);
      } else {
        codes.push_back(dict->Intern(src.StringAt(row)));
      }
      break;
  }
}

void ColumnBatch::ResetLayout(LayoutPtr layout) {
  layout_ = std::move(layout);
  columns_.clear();
  columns_.resize(layout_->schema.num_columns());
  for (int c = 0; c < layout_->schema.num_columns(); ++c) {
    columns_[c].type = layout_->schema.column(c).type;
  }
  lineage_.clear();
  num_rows_ = 0;
}

Row ColumnBatch::RowAt(int64_t i) const {
  Row row;
  row.reserve(columns_.size());
  for (const ColumnData& col : columns_) row.push_back(col.ValueAt(i));
  return row;
}

LineageRow ColumnBatch::LineageRowAt(int64_t i) const {
  const int arity = layout_->lineage_arity();
  const auto* base = lineage_.data() + static_cast<size_t>(i) * arity;
  return LineageRow(base, base + arity);
}

void ColumnBatch::Clear() {
  for (ColumnData& col : columns_) col.Clear();
  lineage_.clear();
  num_rows_ = 0;
}

void ColumnBatch::Reserve(int64_t n) {
  for (ColumnData& col : columns_) col.Reserve(n);
  lineage_.reserve(static_cast<size_t>(n) * layout_->lineage_arity());
}

void ColumnBatch::AppendRangeFrom(const ColumnBatch& src, int64_t begin,
                                  int64_t len,
                                  const std::vector<char>* cols) {
  GUS_DCHECK(src.num_columns() == num_columns());
  GUS_DCHECK(src.lineage_arity() == lineage_arity());
  GUS_DCHECK(cols == nullptr || cols->size() == columns_.size());
  if (len <= 0) return;
  for (size_t c = 0; c < columns_.size(); ++c) {
    if (cols != nullptr && !(*cols)[c]) continue;
    ColumnData& dst = columns_[c];
    const ColumnData& from = src.columns_[c];
    switch (dst.type) {
      case ValueType::kInt64:
        dst.i64.insert(dst.i64.end(), from.i64.begin() + begin,
                       from.i64.begin() + begin + len);
        break;
      case ValueType::kFloat64:
        dst.f64.insert(dst.f64.end(), from.f64.begin() + begin,
                       from.f64.begin() + begin + len);
        break;
      case ValueType::kString:
        if (dst.dict == nullptr || dst.codes.empty()) dst.dict = from.dict;
        if (dst.dict == from.dict) {
          dst.codes.insert(dst.codes.end(), from.codes.begin() + begin,
                           from.codes.begin() + begin + len);
        } else {
          // Concatenating relations with distinct dictionaries (e.g.
          // per-partition results merging): unify the dictionaries once,
          // then bulk-remap the integer codes.
          const std::vector<uint32_t> remap =
              BuildDictRemap(dst.dict.get(), *from.dict);
          GrowFor(&dst.codes, static_cast<size_t>(len));
          for (int64_t i = 0; i < len; ++i) {
            dst.codes.push_back(remap[from.codes[begin + i]]);
          }
        }
        break;
    }
  }
  const int arity = lineage_arity();
  lineage_.insert(lineage_.end(),
                  src.lineage_.begin() + static_cast<size_t>(begin) * arity,
                  src.lineage_.begin() +
                      static_cast<size_t>(begin + len) * arity);
  num_rows_ += len;
}

namespace {

void GatherColumn(ColumnData* dst, const ColumnData& from, const int64_t* sel,
                  int64_t len) {
  switch (dst->type) {
    case ValueType::kInt64: {
      const size_t base = dst->i64.size();
      GrowFor(&dst->i64, static_cast<size_t>(len));
      dst->i64.resize(base + static_cast<size_t>(len));
      simd::GatherI64(from.i64.data(), sel, len, dst->i64.data() + base);
      break;
    }
    case ValueType::kFloat64: {
      const size_t base = dst->f64.size();
      GrowFor(&dst->f64, static_cast<size_t>(len));
      dst->f64.resize(base + static_cast<size_t>(len));
      simd::GatherF64(from.f64.data(), sel, len, dst->f64.data() + base);
      break;
    }
    case ValueType::kString:
      if (dst->dict == nullptr || dst->codes.empty()) dst->dict = from.dict;
      GrowFor(&dst->codes, static_cast<size_t>(len));
      if (dst->dict == from.dict) {
        const size_t base = dst->codes.size();
        dst->codes.resize(base + static_cast<size_t>(len));
        simd::GatherU32(from.codes.data(), sel, len,
                        dst->codes.data() + base);
      } else {
        for (const int64_t* p = sel; p != sel + len; ++p) {
          dst->codes.push_back(dst->dict->Intern(from.StringAt(*p)));
        }
      }
      break;
  }
}

/// Gathers `len` lineage rows of `src` (arity uint64s each) to the end of
/// `dst`. Arity 1 runs as one flat gather kernel; wider lineage copies
/// row by row.
void GatherLineage(std::vector<uint64_t>* dst,
                   const std::vector<uint64_t>& src, int arity,
                   const int64_t* sel, int64_t len) {
  GrowFor(dst, static_cast<size_t>(len) * arity);
  if (arity == 1) {
    const size_t base = dst->size();
    dst->resize(base + static_cast<size_t>(len));
    simd::GatherU64(src.data(), sel, len, dst->data() + base);
    return;
  }
  for (const int64_t* p = sel; p != sel + len; ++p) {
    const auto* base = src.data() + static_cast<size_t>(*p) * arity;
    dst->insert(dst->end(), base, base + arity);
  }
}

}  // namespace

void ColumnBatch::GatherFrom(const ColumnBatch& src, const int64_t* sel,
                             int64_t len, const std::vector<char>* cols) {
  GUS_DCHECK(src.num_columns() == num_columns());
  GUS_DCHECK(src.lineage_arity() == lineage_arity());
  GUS_DCHECK(cols == nullptr || cols->size() == columns_.size());
  for (size_t c = 0; c < columns_.size(); ++c) {
    if (cols != nullptr && !(*cols)[c]) continue;
    GatherColumn(&columns_[c], src.columns_[c], sel, len);
  }
  GatherLineage(&lineage_, src.lineage_, lineage_arity(), sel, len);
  num_rows_ += len;
}

void ColumnBatch::AppendView(const SelView& view,
                             const std::vector<char>* cols) {
  if (view.contiguous()) {
    AppendRangeFrom(*view.data, view.begin, view.len, cols);
  } else {
    GatherFrom(*view.data, view.sel, view.sel_len, cols);
  }
}

void ColumnBatch::GatherColumnsFrom(const ColumnBatch& src, const int64_t* sel,
                                    int64_t len,
                                    const std::vector<char>& cols) {
  GUS_DCHECK(src.num_columns() == num_columns());
  GUS_DCHECK(cols.size() == columns_.size());
  for (size_t c = 0; c < columns_.size(); ++c) {
    if (cols[c]) GatherColumn(&columns_[c], src.columns_[c], sel, len);
  }
  num_rows_ += len;
}

void ColumnBatch::AppendConcatRowFrom(const ColumnBatch& left, int64_t li,
                                      const ColumnBatch& right, int64_t ri) {
  const int nl = left.num_columns();
  GUS_DCHECK(num_columns() == nl + right.num_columns());
  for (int c = 0; c < nl; ++c) {
    columns_[c].AppendFrom(left.columns_[c], li);
  }
  for (int c = 0; c < right.num_columns(); ++c) {
    columns_[nl + c].AppendFrom(right.columns_[c], ri);
  }
  const int la = left.lineage_arity();
  const auto* lbase = left.lineage_.data() + static_cast<size_t>(li) * la;
  lineage_.insert(lineage_.end(), lbase, lbase + la);
  const int ra = right.lineage_arity();
  const auto* rbase = right.lineage_.data() + static_cast<size_t>(ri) * ra;
  lineage_.insert(lineage_.end(), rbase, rbase + ra);
  ++num_rows_;
}

void ColumnBatch::AppendConcatGather(const ColumnBatch& left,
                                     const int64_t* li,
                                     const ColumnBatch& right,
                                     const int64_t* ri, int64_t len) {
  if (len <= 0) return;
  const int nl = left.num_columns();
  GUS_DCHECK(num_columns() == nl + right.num_columns());
  for (int c = 0; c < nl; ++c) {
    GatherColumn(&columns_[c], left.columns_[c], li, len);
  }
  for (int c = 0; c < right.num_columns(); ++c) {
    GatherColumn(&columns_[nl + c], right.columns_[c], ri, len);
  }
  // Lineage rows interleave per output row: left dims then right dims.
  const int la = left.lineage_arity();
  const int ra = right.lineage_arity();
  const size_t base = lineage_.size();
  GrowFor(&lineage_, static_cast<size_t>(len) * (la + ra));
  lineage_.resize(base + static_cast<size_t>(len) * (la + ra));
  uint64_t* out = lineage_.data() + base;
  const uint64_t* lsrc = left.lineage_.data();
  const uint64_t* rsrc = right.lineage_.data();
  for (int64_t k = 0; k < len; ++k) {
    const uint64_t* lrow = lsrc + static_cast<size_t>(li[k]) * la;
    for (int d = 0; d < la; ++d) *out++ = lrow[d];
    const uint64_t* rrow = rsrc + static_cast<size_t>(ri[k]) * ra;
    for (int d = 0; d < ra; ++d) *out++ = rrow[d];
  }
  num_rows_ += len;
}

Status BatchSink::ConsumeView(const SelView& view) {
  if (view.num_rows() == 0) return Status::OK();
  if (view.whole_batch()) return Consume(*view.data);
  ColumnBatch scratch(view.data->layout_ptr());
  scratch.AppendView(view, columns_read());
  return Consume(scratch);
}

Result<ColumnarRelation> ColumnarRelation::FromRelation(const Relation& rel) {
  auto layout = std::make_shared<BatchLayout>();
  layout->schema = rel.schema();
  layout->lineage_schema = rel.lineage_schema();
  ColumnarRelation out{LayoutPtr(layout)};
  ColumnBatch* data = out.mutable_data();
  data->Reserve(rel.num_rows());
  const int num_cols = rel.schema().num_columns();
  const int arity = layout->lineage_arity();
  for (int64_t i = 0; i < rel.num_rows(); ++i) {
    const Row& row = rel.row(i);
    for (int c = 0; c < num_cols; ++c) {
      Status st = data->mutable_column(c)->AppendValue(row[c]);
      if (!st.ok()) {
        return Status::TypeError("column '" + rel.schema().column(c).name +
                                 "': " + st.message());
      }
    }
    const LineageRow& lin = rel.lineage(i);
    GUS_CHECK(static_cast<int>(lin.size()) == arity);
    data->mutable_lineage()->insert(data->mutable_lineage()->end(),
                                    lin.begin(), lin.end());
  }
  data->SetNumRows(rel.num_rows());
  return out;
}

Relation ColumnarRelation::ToRelation() const {
  Relation rel(schema(), lineage_schema());
  rel.Reserve(num_rows());
  for (int64_t i = 0; i < num_rows(); ++i) {
    rel.AppendRow(data_.RowAt(i), data_.LineageRowAt(i));
  }
  return rel;
}

void ColumnarRelation::EmitSlice(int64_t begin, int64_t len,
                                 ColumnBatch* out) const {
  if (out->layout_ptr() != layout_ptr()) out->ResetLayout(layout_ptr());
  out->Clear();
  out->AppendRangeFrom(data_, begin, len);
}

namespace {

uint64_t HashStringContent(uint64_t h, const std::string& s) {
  return HashBytes(HashCombine(h, s.size()), s.data(), s.size());
}

}  // namespace

uint64_t ContentFingerprint(const std::string& name, const ColumnBatch& data) {
  uint64_t h = Mix64(0x46505247ULL);  // "GRPF"
  h = HashStringContent(h, name);
  const Schema& schema = data.schema();
  h = HashCombine(h, static_cast<uint64_t>(schema.num_columns()));
  for (int c = 0; c < schema.num_columns(); ++c) {
    h = HashStringContent(h, schema.column(c).name);
    h = HashCombine(h, static_cast<uint64_t>(schema.column(c).type));
  }
  for (const std::string& dim : data.lineage_schema()) {
    h = HashStringContent(h, dim);
  }
  const int64_t rows = data.num_rows();
  h = HashCombine(h, static_cast<uint64_t>(rows));
  for (int c = 0; c < data.num_columns(); ++c) {
    const ColumnData& col = data.column(c);
    switch (col.type) {
      case ValueType::kInt64:
        for (int64_t i = 0; i < rows; ++i) {
          h = HashCombine(h, static_cast<uint64_t>(col.i64[i]));
        }
        break;
      case ValueType::kFloat64:
        for (int64_t i = 0; i < rows; ++i) {
          uint64_t bits = 0;
          __builtin_memcpy(&bits, &col.f64[i], sizeof(bits));
          h = HashCombine(h, bits);
        }
        break;
      case ValueType::kString:
        for (int64_t i = 0; i < rows; ++i) {
          h = HashStringContent(h, col.StringAt(i));
        }
        break;
    }
  }
  for (const uint64_t id : data.lineage()) h = HashCombine(h, id);
  return h;
}

}  // namespace gus
