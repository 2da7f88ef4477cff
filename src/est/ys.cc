#include "est/ys.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <numeric>
#include <string>

#include "util/hash.h"

namespace gus {

namespace {

/// Dense number of a row's cell within one partition of the rows.
using CellId = uint32_t;
constexpr CellId kNoCell = std::numeric_limits<CellId>::max();
static_assert(kMaxYsRows < kNoCell, "every cell number must fit below kNoCell");

/// \brief A partition of the rows into cells numbered 0, 1, ... in
/// first-occurrence order: row i lies in cell ids[i], or — ids == nullptr —
/// in a cell of its own (cell i). `runs`: every cell is known to be one
/// contiguous range of rows.
struct Partition {
  const CellId* ids = nullptr;
  CellId count = 0;
  bool runs = false;

  CellId cell(int64_t i) const {
    return ids == nullptr ? static_cast<CellId>(i) : ids[i];
  }
};

/// \brief Exact dense coding of 64-bit keys as 0, 1, 2, ... in
/// first-occurrence order.
///
/// Open addressing with linear probing on the full key (no sentinel key:
/// 0 and UINT64_MAX are ordinary keys); the table holds at least 1.5 times
/// as many slots as the bound on distinct keys, so it is at most 2/3 full.
class DenseCoder {
 public:
  /// Codes key_at(i) for i < rows into out[i] and returns the number of
  /// distinct keys, which must not exceed `max_distinct`.
  template <typename KeyAt>
  CellId Code(int64_t rows, int64_t max_distinct, KeyAt key_at,
              CellId* out) {
    const size_t capacity = std::bit_ceil(static_cast<size_t>(
        std::max<int64_t>(8, max_distinct + max_distinct / 2)));
    slots_.assign(capacity, Slot{});
    const size_t slot_mask = capacity - 1;
    CellId count = 0;
    for (int64_t i = 0; i < rows; ++i) {
      const uint64_t key = key_at(i);
      size_t at = static_cast<size_t>(Mix64(key)) & slot_mask;
      while (slots_[at].cell != kNoCell && slots_[at].key != key) {
        at = (at + 1) & slot_mask;
      }
      if (slots_[at].cell == kNoCell) slots_[at] = {key, count++};
      out[i] = slots_[at].cell;
    }
    return count;
  }

 private:
  struct Slot {
    uint64_t key = 0;
    CellId cell = kNoCell;
  };
  std::vector<Slot> slots_;
};

/// \brief The subset lattice over a view's lineage, walked depth first.
///
/// A child of subset S is S ∪ {d} with d above S's highest bit, so every
/// subset is visited once and only the partitions on the current path
/// (at most n + 1) are alive. A child's partition is the meet of S's
/// partition p and column d:
///   - when p's cells are contiguous row ranges (the root's are) and d's
///     ids ascend within each, the runs of equal ids, read off in one pass
///     (ids arriving in scan order need no coding);
///   - otherwise, with c the column's dense coding: p itself when c is
///     constant within every cell of p (the child's y tables are p's,
///     copied; an all-distinct p has its whole subtree copied at once);
///     c itself when p is constant within every cell of c (so a
///     foreign-key chain costs at most one coding per column, in any
///     dimension order); else the dense coding of the exact
///     (p cell, c code) pairs.
/// Either way cells stay in first-occurrence order, so each fold is the
/// one a direct grouping of the S-projection performs.
class YsLattice {
 public:
  /// `all_subsets`: tables hold every S (index k * 2^n + S); otherwise one
  /// mask (index k), see One. The inputs are valid (CheckInputs).
  YsLattice(const std::vector<std::vector<uint64_t>>& lineage,
            const std::vector<const double*>& columns, int64_t rows,
            const std::vector<YsTerm>& terms,
            const std::vector<int64_t>& group_begin, bool all_subsets)
      : lineage_(lineage),
        columns_(columns),
        rows_(rows),
        terms_(terms),
        n_(static_cast<int>(lineage.size())),
        group_begin_(group_begin),
        stride_(all_subsets ? size_t{1} << lineage.size() : 1) {
    if (group_begin_.empty()) group_begin_ = {0, rows_};
    used_.assign(columns_.size(), false);
    for (const YsTerm& term : terms_) {
      used_[static_cast<size_t>(term.lhs)] = true;
      used_[static_cast<size_t>(term.rhs)] = true;
    }
    codes_.resize(static_cast<size_t>(n_));
    code_counts_.assign(static_cast<size_t>(n_), kNoCell);
    levels_.resize(static_cast<size_t>(n_) + 1);
    sums_.resize(columns_.size());
    tables_.assign(terms_.size(), std::vector<double>(num_groups() * stride_));
  }

  /// Every subset's tables.
  std::vector<std::vector<double>> All() && {
    const Partition root = Root();
    Fold(0, root);
    Visit(0, 0, root, 0);
    return std::move(tables_);
  }

  /// The tables of `mask` alone: refines along its bits in increasing
  /// order, exactly as the walk reaches it.
  std::vector<std::vector<double>> One(SubsetMask mask) && {
    Partition p = Root();
    int level = 0;
    for (int d = 0; d < n_ && p.count != rows_; ++d) {
      if (mask & (SubsetMask{1} << d)) p = Meet(p, d, ++level);
    }
    Fold(mask, p);
    return std::move(tables_);
  }

 private:
  size_t num_groups() const { return group_begin_.size() - 1; }

  double& At(size_t term, size_t group, SubsetMask s) {
    return tables_[term][group * stride_ + (stride_ == 1 ? 0 : s)];
  }

  /// The group partition: one cell per non-empty group.
  Partition Root() {
    root_ids_.resize(static_cast<size_t>(rows_));
    CellId cells = 0;
    for (size_t k = 0; k < num_groups(); ++k) {
      if (group_begin_[k] == group_begin_[k + 1]) continue;
      for (int64_t i = group_begin_[k]; i < group_begin_[k + 1]; ++i) {
        root_ids_[static_cast<size_t>(i)] = cells;
      }
      ++cells;
    }
    return {root_ids_.data(), cells, /*runs=*/true};
  }

  /// Column d's dense coding, computed on first use.
  Partition Column(int d) {
    const size_t at = static_cast<size_t>(d);
    if (code_counts_[at] == kNoCell) {
      codes_[at].resize(static_cast<size_t>(rows_));
      const uint64_t* ids = lineage_[at].data();
      code_counts_[at] = coder_.Code(
          rows_, rows_, [ids](int64_t i) { return ids[i]; },
          codes_[at].data());
    }
    return {codes_[at].data(), code_counts_[at]};
  }

  /// True when every cell of `fine` lies within one cell of `coarse`.
  bool Refines(Partition fine, Partition coarse) {
    if (coarse.count <= 1) return true;
    seen_.assign(fine.count, kNoCell);
    for (int64_t i = 0; i < rows_; ++i) {
      CellId& seen = seen_[fine.cell(i)];
      const CellId c = coarse.cell(i);
      if (seen == kNoCell) {
        seen = c;
      } else if (seen != c) {
        return false;
      }
    }
    return true;
  }

  /// The meet of `p` with column d; a newly coded partition lives in the
  /// buffer of `level`, p in a lower one.
  Partition Meet(Partition p, int d, int level) {
    std::vector<CellId>& out = levels_[static_cast<size_t>(level)];
    out.resize(static_cast<size_t>(rows_));
    if (p.runs) {
      // Runs of p whose ids ascend (ids arriving in scan order within each
      // cell): the meet's cells are the runs of equal ids within p's runs,
      // numbered as they start — no coding needed. Join lineage mostly
      // arrives this way: coding it instead makes BM_AllYsFkChain take
      // 2.2x as long.
      const uint64_t* ids = lineage_[static_cast<size_t>(d)].data();
      CellId cell = 0;
      int64_t i = 0;
      for (; i < rows_; ++i) {
        if (i > 0) {
          if (p.cell(i) != p.cell(i - 1)) {
            ++cell;
          } else if (ids[i] < ids[i - 1]) {
            break;
          } else if (ids[i] != ids[i - 1]) {
            ++cell;
          }
        }
        out[static_cast<size_t>(i)] = cell;
      }
      if (i == rows_) {
        const CellId count = rows_ == 0 ? 0 : cell + 1;
        if (count == rows_) return {nullptr, count, /*runs=*/true};
        if (count == p.count) return p;
        return {out.data(), count, /*runs=*/true};
      }
    }
    const Partition c = Column(d);
    if (c.count == rows_) return {nullptr, c.count, /*runs=*/true};
    if (Refines(p, c)) return p;
    if (Refines(c, p)) return c;
    const CellId count = coder_.Code(
        rows_,
        std::min<int64_t>(rows_, static_cast<int64_t>(p.count) * c.count),
        [p, c](int64_t i) {
          return (static_cast<uint64_t>(p.cell(i)) << 32) | c.cell(i);
        },
        out.data());
    return {out.data(), count};
  }

  /// Folds every term's table entry for subset `s` over partition `p`:
  /// per-cell sums in row order, each group's cells in cell order. The
  /// empty subset has exactly one cell per group and stores its product
  /// directly (sum f)(sum g); every other fold starts from 0.0.
  void Fold(SubsetMask s, Partition p) {
    for (size_t col = 0; col < columns_.size(); ++col) {
      if (!used_[col]) continue;
      std::vector<double>& sums = sums_[col];
      sums.assign(p.count, 0.0);
      const double* values = columns_[col];
      for (int64_t i = 0; i < rows_; ++i) sums[p.cell(i)] += values[i];
    }
    // Groups are contiguous row ranges and cells are numbered in
    // first-occurrence order, so group k owns the cells [lo_k, hi_k).
    const size_t groups = num_groups();
    lo_.resize(groups);
    hi_.resize(groups);
    CellId next = p.count;
    for (size_t k = groups; k-- > 0;) {
      hi_[k] = next;
      if (group_begin_[k] < group_begin_[k + 1]) {
        next = p.cell(group_begin_[k]);
      }
      lo_[k] = next;
    }
    for (size_t t = 0; t < terms_.size(); ++t) {
      const std::vector<double>& a = sums_[static_cast<size_t>(terms_[t].lhs)];
      const std::vector<double>& b = sums_[static_cast<size_t>(terms_[t].rhs)];
      for (size_t k = 0; k < groups; ++k) {
        double y = 0.0;
        if (s == 0) {
          if (lo_[k] < hi_[k]) y = a[lo_[k]] * b[lo_[k]];
        } else {
          for (CellId cell = lo_[k]; cell < hi_[k]; ++cell) {
            y += a[cell] * b[cell];
          }
        }
        At(t, k, s) = y;
      }
    }
  }

  /// y_to = y_from for a subset with the same partition. The + 0.0 is the
  /// 0.0 a fold starts from: it only matters when copying the empty
  /// subset's direct product, turning a -0.0 into the fold's +0.0.
  void Copy(SubsetMask from, SubsetMask to) {
    for (size_t t = 0; t < terms_.size(); ++t) {
      for (size_t k = 0; k < num_groups(); ++k) {
        At(t, k, to) = At(t, k, from) + 0.0;
      }
    }
  }

  /// Visits the children of `s` (whose tables are folded) from dimension
  /// `next` on; `p` is s's partition, living in the buffer of `level`
  /// (s's size) or below.
  void Visit(SubsetMask s, int next, Partition p, int level) {
    if (p.count == rows_) {
      // All-distinct cells: every superset has the same partition.
      const SubsetMask above = FullMask(n_) & ~FullMask(next);
      for (SubsetIterator it(above); !it.done(); it.Next()) {
        if (it.mask() != 0) Copy(s, s | it.mask());
      }
      return;
    }
    for (int d = next; d < n_; ++d) {
      const SubsetMask child = s | (SubsetMask{1} << d);
      const Partition q = Meet(p, d, level + 1);
      if (q.ids == p.ids && q.count == p.count) {
        Copy(s, child);
      } else {
        Fold(child, q);
      }
      Visit(child, d + 1, q, level + 1);
    }
  }

  const std::vector<std::vector<uint64_t>>& lineage_;
  const std::vector<const double*>& columns_;
  const int64_t rows_;
  const std::vector<YsTerm>& terms_;
  const int n_;
  std::vector<int64_t> group_begin_;
  const size_t stride_;
  std::vector<bool> used_;
  std::vector<std::vector<CellId>> codes_;
  std::vector<CellId> code_counts_;
  std::vector<std::vector<CellId>> levels_;
  std::vector<CellId> root_ids_;
  std::vector<CellId> seen_;
  std::vector<std::vector<double>> sums_;
  std::vector<CellId> lo_, hi_;
  DenseCoder coder_;
  std::vector<std::vector<double>> tables_;
};

/// The preconditions of YsLattice, as an error for the caller.
Status CheckInputs(const std::vector<std::vector<uint64_t>>& lineage,
                   const std::vector<const double*>& columns, int64_t rows,
                   const std::vector<YsTerm>& terms,
                   const std::vector<int64_t>& group_begin) {
  if (rows < 0 || rows > kMaxYsRows) {
    return Status::InvalidArgument("y_S views hold at most " +
                                   std::to_string(kMaxYsRows) + " rows, not " +
                                   std::to_string(rows));
  }
  for (const std::vector<uint64_t>& ids : lineage) {
    if (static_cast<int64_t>(ids.size()) != rows) {
      return Status::InvalidArgument("lineage columns must hold every row");
    }
  }
  for (const YsTerm& term : terms) {
    if (term.lhs < 0 || term.rhs < 0 ||
        static_cast<size_t>(std::max(term.lhs, term.rhs)) >= columns.size()) {
      return Status::InvalidArgument("y_S term names a missing column");
    }
  }
  if (!group_begin.empty() &&
      (group_begin.front() != 0 || group_begin.back() != rows ||
       !std::is_sorted(group_begin.begin(), group_begin.end()))) {
    return Status::InvalidArgument(
        "group offsets must ascend from 0 to the row count");
  }
  return Status::OK();
}

}  // namespace

Result<std::vector<std::vector<double>>> ComputeYsLattice(
    const std::vector<std::vector<uint64_t>>& lineage,
    const std::vector<const double*>& columns, int64_t rows,
    const std::vector<YsTerm>& terms, const std::vector<int64_t>& group_begin) {
  GUS_RETURN_NOT_OK(CheckInputs(lineage, columns, rows, terms, group_begin));
  return YsLattice(lineage, columns, rows, terms, group_begin,
                   /*all_subsets=*/true)
      .All();
}

Result<double> ComputeYS(const SampleView& view, SubsetMask mask) {
  GUS_RETURN_NOT_OK(
      CheckInputs(view.lineage, {view.f.data()}, view.num_rows(), {}, {}));
  return YsLattice(view.lineage, {view.f.data()}, view.num_rows(), {{0, 0}},
                   {}, /*all_subsets=*/false)
      .One(mask)[0][0];
}

Result<double> ComputeYSBilinear(const SampleView& view,
                                 const std::vector<double>& g,
                                 SubsetMask mask) {
  if (static_cast<int64_t>(g.size()) != view.num_rows()) {
    return Status::InvalidArgument("g must align with the sample view");
  }
  GUS_RETURN_NOT_OK(
      CheckInputs(view.lineage, {view.f.data()}, view.num_rows(), {}, {}));
  return YsLattice(view.lineage, {view.f.data(), g.data()}, view.num_rows(),
                   {{0, 1}}, {}, /*all_subsets=*/false)
      .One(mask)[0][0];
}

Result<std::vector<double>> ComputeAllYS(const SampleView& view) {
  GUS_ASSIGN_OR_RETURN(
      std::vector<std::vector<double>> y,
      ComputeYsLattice(view.lineage, {view.f.data()}, view.num_rows(),
                       {{0, 0}}));
  return std::move(y[0]);
}

Result<std::vector<double>> ComputeAllYSBilinear(
    const SampleView& view, const std::vector<double>& g) {
  if (static_cast<int64_t>(g.size()) != view.num_rows()) {
    return Status::InvalidArgument("g must align with the sample view");
  }
  GUS_ASSIGN_OR_RETURN(
      std::vector<std::vector<double>> y,
      ComputeYsLattice(view.lineage, {view.f.data(), g.data()},
                       view.num_rows(), {{0, 1}}));
  return std::move(y[0]);
}

double ComputeYSSorted(const SampleView& view, SubsetMask mask) {
  if (mask == 0) {
    const double s = view.SumF();
    return s * s;
  }
  std::vector<int64_t> idx(view.num_rows());
  std::iota(idx.begin(), idx.end(), int64_t{0});
  auto key_less = [&](int64_t a, int64_t b) {
    for (int d = 0; d < view.schema.arity(); ++d) {
      if (mask & (SubsetMask{1} << d)) {
        if (view.lineage[d][a] != view.lineage[d][b]) {
          return view.lineage[d][a] < view.lineage[d][b];
        }
      }
    }
    return false;
  };
  auto key_equal = [&](int64_t a, int64_t b) {
    return !key_less(a, b) && !key_less(b, a);
  };
  std::sort(idx.begin(), idx.end(), key_less);
  double y = 0.0;
  double group = 0.0;
  for (size_t i = 0; i < idx.size(); ++i) {
    if (i > 0 && !key_equal(idx[i - 1], idx[i])) {
      y += group * group;
      group = 0.0;
    }
    group += view.f[idx[i]];
  }
  if (!idx.empty()) y += group * group;
  return y;
}

}  // namespace gus
