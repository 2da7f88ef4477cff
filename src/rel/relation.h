// In-memory relations with row-level lineage.
//
// Lineage is the paper's central bookkeeping device (Section 4.2): the
// identity of each base-relation tuple is carried through every operator so
// that the GUS pairwise probabilities — which are defined on lineage
// agreement, not content agreement — can be evaluated on result tuples.
//
// A Relation holds:
//   * a column Schema and row data,
//   * a lineage schema: the ordered list of base-relation names contributing
//     to each row,
//   * per-row lineage: one 64-bit id per lineage-schema entry.
//
// Base relations have a single-entry lineage schema (themselves) and lineage
// id = row position (or block id for block-sampled relations — lineage is on
// sampling units, not content).
//
// A Relation also memoizes its columnar form (rel/column_batch.h) and the
// content fingerprints of that form, so the columnar engines convert a base
// relation once per content rather than once per query (see Columnar()).

#ifndef GUS_REL_RELATION_H_
#define GUS_REL_RELATION_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "rel/schema.h"
#include "rel/value.h"
#include "util/hash.h"
#include "util/status.h"

namespace gus {

class ColumnarRelation;  // rel/column_batch.h

/// Per-row lineage: one base-tuple id per lineage-schema entry.
using LineageRow = std::vector<uint64_t>;

/// \brief Order-sensitive hash of one row's lineage ids.
///
/// Shared by the row and columnar engines (union dedup keys on it), so the
/// two must keep using the identical function.
inline uint64_t HashLineageRow(const uint64_t* ids, size_t n) {
  uint64_t h = 0x6a09e667f3bcc908ULL;
  for (size_t i = 0; i < n; ++i) h = HashCombine(h, ids[i]);
  return h;
}

/// \brief A table with schema, rows, and lineage.
class Relation {
 public:
  Relation() = default;
  Relation(Schema schema, std::vector<std::string> lineage_schema)
      : schema_(std::move(schema)),
        lineage_schema_(std::move(lineage_schema)) {}

  /// Copies share the source's converted columnar form (it is immutable).
  Relation(const Relation& other);
  Relation& operator=(const Relation& other);
  /// A moved-from relation keeps its schemas and is left with no rows (and
  /// no columnar form), so it can still be appended to and converted.
  Relation(Relation&& other) noexcept;
  Relation& operator=(Relation&& other) noexcept;

  const Schema& schema() const { return schema_; }

  /// Ordered base-relation names whose tuple ids each row carries.
  const std::vector<std::string>& lineage_schema() const {
    return lineage_schema_;
  }

  int64_t num_rows() const { return static_cast<int64_t>(rows_.size()); }
  const Row& row(int64_t i) const { return rows_[i]; }
  const LineageRow& lineage(int64_t i) const { return lineage_[i]; }
  const std::vector<Row>& rows() const { return rows_; }
  const std::vector<LineageRow>& lineages() const { return lineage_; }

  /// \brief Appends a row with its lineage.
  ///
  /// Arities must match the column and lineage schemas; a mismatch is a
  /// programming error and aborts via GUS_CHECK (per the Status-model
  /// convention: user input errors surface as Status, invariant violations
  /// check). Callers holding unvalidated data use AppendRowChecked.
  void AppendRow(Row row, LineageRow lineage);

  /// Status-returning variant for unvalidated input: fails with
  /// InvalidArgument instead of aborting on an arity mismatch.
  Status AppendRowChecked(Row row, LineageRow lineage);

  /// \brief The columnar form of this relation, converted on first use.
  ///
  /// Calls ColumnarRelation::FromRelation once and keeps the result — the
  /// form, or its TypeError — until the next AppendRow/AppendRowChecked
  /// drops it. Every caller until then shares the one immutable form, and
  /// a caller's shared_ptr stays valid after the relation changes. Safe to
  /// call from many threads at once: concurrent first calls convert once.
  Result<std::shared_ptr<const ColumnarRelation>> Columnar() const;

  /// \brief ContentFingerprint(name, form.data()) (rel/column_batch.h).
  ///
  /// Memoized per `name` alongside the columnar form while `form` is the
  /// one Columnar() currently returns; a form from before a mutation is
  /// hashed but not memoized.
  uint64_t Fingerprint(const std::string& name,
                       const ColumnarRelation& form) const;

  void Reserve(int64_t n) {
    rows_.reserve(n);
    lineage_.reserve(n);
  }

  /// \brief Builds a base relation: lineage schema = {name}, lineage id =
  /// row index.
  static Relation MakeBase(const std::string& name, Schema schema,
                           std::vector<Row> rows);

  /// \brief Base relation with caller-supplied lineage ids (e.g. block ids
  /// for block sampling, or primary-key-derived ids).
  static Relation MakeBaseWithIds(const std::string& name, Schema schema,
                                  std::vector<Row> rows,
                                  std::vector<uint64_t> ids);

  /// True if the two relations' lineage schemas share no base relation.
  static bool LineageDisjoint(const Relation& a, const Relation& b);

  std::string ToString(int64_t max_rows = 10) const;

 private:
  struct ColumnarMemo {
    Result<std::shared_ptr<const ColumnarRelation>> form;
    std::map<std::string, uint64_t> fingerprints;
  };

  void CopyFrom(const Relation& other);
  void MoveFrom(Relation&& other);

  Schema schema_;
  std::vector<std::string> lineage_schema_;
  std::vector<Row> rows_;
  std::vector<LineageRow> lineage_;
  // Written only under memo_mu_ by const methods; mutators drop it.
  mutable std::mutex memo_mu_;
  mutable std::optional<ColumnarMemo> memo_;
};

}  // namespace gus

#endif  // GUS_REL_RELATION_H_
