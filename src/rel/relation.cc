#include "rel/relation.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "rel/column_batch.h"
#include "util/logging.h"

namespace gus {

Relation::Relation(const Relation& other) {
  std::lock_guard<std::mutex> lock(other.memo_mu_);
  CopyFrom(other);
}

Relation& Relation::operator=(const Relation& other) {
  if (this == &other) return *this;
  std::scoped_lock lock(memo_mu_, other.memo_mu_);
  CopyFrom(other);
  return *this;
}

Relation::Relation(Relation&& other) noexcept {
  std::lock_guard<std::mutex> lock(other.memo_mu_);
  MoveFrom(std::move(other));
}

Relation& Relation::operator=(Relation&& other) noexcept {
  if (this == &other) return *this;
  std::scoped_lock lock(memo_mu_, other.memo_mu_);
  MoveFrom(std::move(other));
  return *this;
}

void Relation::CopyFrom(const Relation& other) {
  schema_ = other.schema_;
  lineage_schema_ = other.lineage_schema_;
  rows_ = other.rows_;
  lineage_ = other.lineage_;
  memo_ = other.memo_;
}

void Relation::MoveFrom(Relation&& other) {
  schema_ = other.schema_;
  lineage_schema_ = other.lineage_schema_;
  rows_ = std::move(other.rows_);
  lineage_ = std::move(other.lineage_);
  memo_ = std::move(other.memo_);
  other.rows_.clear();
  other.lineage_.clear();
  other.memo_.reset();
}

void Relation::AppendRow(Row row, LineageRow lineage) {
  GUS_CHECK(static_cast<int>(row.size()) == schema_.num_columns() &&
            "row arity must match the column schema");
  GUS_CHECK(lineage.size() == lineage_schema_.size() &&
            "lineage arity must match the lineage schema");
  rows_.push_back(std::move(row));
  lineage_.push_back(std::move(lineage));
  memo_.reset();
}

Status Relation::AppendRowChecked(Row row, LineageRow lineage) {
  if (static_cast<int>(row.size()) != schema_.num_columns()) {
    return Status::InvalidArgument(
        "row arity " + std::to_string(row.size()) +
        " does not match the column schema arity " +
        std::to_string(schema_.num_columns()));
  }
  if (lineage.size() != lineage_schema_.size()) {
    return Status::InvalidArgument(
        "lineage arity " + std::to_string(lineage.size()) +
        " does not match the lineage schema arity " +
        std::to_string(lineage_schema_.size()));
  }
  rows_.push_back(std::move(row));
  lineage_.push_back(std::move(lineage));
  memo_.reset();
  return Status::OK();
}

Result<std::shared_ptr<const ColumnarRelation>> Relation::Columnar() const {
  std::lock_guard<std::mutex> lock(memo_mu_);
  if (!memo_.has_value()) {
    Result<ColumnarRelation> converted = ColumnarRelation::FromRelation(*this);
    if (converted.ok()) {
      memo_.emplace(ColumnarMemo{std::make_shared<const ColumnarRelation>(
                                     std::move(converted).ValueOrDie()),
                                 {}});
    } else {
      memo_.emplace(ColumnarMemo{converted.status(), {}});
    }
  }
  return memo_->form;
}

uint64_t Relation::Fingerprint(const std::string& name,
                               const ColumnarRelation& form) const {
  std::lock_guard<std::mutex> lock(memo_mu_);
  const bool current =
      memo_.has_value() && memo_->form.ok() && memo_->form->get() == &form;
  if (!current) return ContentFingerprint(name, form.data());
  auto [it, inserted] = memo_->fingerprints.try_emplace(name, 0);
  if (inserted) it->second = ContentFingerprint(name, form.data());
  return it->second;
}

Relation Relation::MakeBase(const std::string& name, Schema schema,
                            std::vector<Row> rows) {
  Relation rel(std::move(schema), {name});
  rel.Reserve(static_cast<int64_t>(rows.size()));
  uint64_t id = 0;
  for (auto& row : rows) {
    rel.AppendRow(std::move(row), {id++});
  }
  return rel;
}

Relation Relation::MakeBaseWithIds(const std::string& name, Schema schema,
                                   std::vector<Row> rows,
                                   std::vector<uint64_t> ids) {
  GUS_CHECK(rows.size() == ids.size());
  Relation rel(std::move(schema), {name});
  rel.Reserve(static_cast<int64_t>(rows.size()));
  for (size_t i = 0; i < rows.size(); ++i) {
    rel.AppendRow(std::move(rows[i]), {ids[i]});
  }
  return rel;
}

bool Relation::LineageDisjoint(const Relation& a, const Relation& b) {
  for (const auto& name : a.lineage_schema()) {
    if (std::find(b.lineage_schema().begin(), b.lineage_schema().end(),
                  name) != b.lineage_schema().end()) {
      return false;
    }
  }
  return true;
}

std::string Relation::ToString(int64_t max_rows) const {
  std::ostringstream out;
  out << "Relation" << schema_.ToString() << " lineage[";
  for (size_t i = 0; i < lineage_schema_.size(); ++i) {
    if (i) out << ",";
    out << lineage_schema_[i];
  }
  out << "] rows=" << num_rows() << "\n";
  const int64_t shown = std::min<int64_t>(max_rows, num_rows());
  for (int64_t r = 0; r < shown; ++r) {
    out << "  ";
    for (size_t c = 0; c < rows_[r].size(); ++c) {
      if (c) out << " | ";
      out << rows_[r][c].ToString();
    }
    out << "   <";
    for (size_t l = 0; l < lineage_[r].size(); ++l) {
      if (l) out << ",";
      out << lineage_[r][l];
    }
    out << ">\n";
  }
  if (shown < num_rows()) out << "  ... (" << num_rows() - shown << " more)\n";
  return out.str();
}

}  // namespace gus
