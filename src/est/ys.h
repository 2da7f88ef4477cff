// Computation of the y_S data statistics of Theorem 1:
//
//   y_S = sum over groups of rows agreeing on the S-projection of their
//         lineage of (sum of f within the group)^2
//
// computed either over the full data (exact analysis) or over a sample
// (the Y_S inputs of the unbiased estimator, Section 6.3).
//
// Generalized to the bilinear form y_S^{f,g} = sum over groups of
// (sum f)(sum g), which the AVG delta-method extension needs for the
// covariance between the SUM and COUNT estimators; y_S = y_S^{f,f}.
//
// Every function here groups through one lattice walk. Each lineage column
// is dense-coded at most once (exact 64-bit ids, first-occurrence order);
// the walk derives each subset's groups from a parent subset's groups by
// refinement with one more column: the parent's groups are reused as they
// are when that column is constant within each of them, ids ascending
// within contiguous parent groups are read as runs, and otherwise the
// (parent group, code) pairs are dense-coded. Groups are the exact
// agreement classes of the projected lineage, numbered in first-occurrence
// order over the view's rows; per-group sums accumulate in row order and
// fold in group order. So every value is a deterministic function of the
// view (its row order included).
//
// Cells are numbered in 32 bits, so a view holds at most kMaxYsRows rows;
// a larger one is rejected with InvalidArgument.

#ifndef GUS_EST_YS_H_
#define GUS_EST_YS_H_

#include <cstdint>
#include <vector>

#include "est/sample_view.h"
#include "util/bits.h"
#include "util/status.h"

namespace gus {

/// The most rows a view may hold (2^32 - 2).
inline constexpr int64_t kMaxYsRows = int64_t{0xFFFFFFFF} - 1;

/// y_S for a single agreement mask.
Result<double> ComputeYS(const SampleView& view, SubsetMask mask);

/// Bilinear y_S^{f,g}; `g` must have the same length as view.f. Same
/// grouping and fold order as ComputeYS, so ComputeYSBilinear(view,
/// view.f, mask) equals ComputeYS(view, mask) bit for bit.
Result<double> ComputeYSBilinear(const SampleView& view,
                                 const std::vector<double>& g,
                                 SubsetMask mask);

/// All 2^n statistics, indexed by mask; bit-identical to ComputeYS per mask.
Result<std::vector<double>> ComputeAllYS(const SampleView& view);

/// All 2^n bilinear statistics.
Result<std::vector<double>> ComputeAllYSBilinear(const SampleView& view,
                                                 const std::vector<double>& g);

/// One bilinear table to fold: y^{columns[lhs], columns[rhs]}.
struct YsTerm {
  int lhs = 0;
  int rhs = 0;
};

/// \brief The lattice walk behind every function above: several y tables
/// over one set of partitions.
///
/// `lineage` holds the id columns (dimension d is mask bit d) and
/// `columns` the value columns, all `rows` long; table t of the result is
/// y^{columns[terms[t].lhs], columns[terms[t].rhs]}. Tables over the same
/// lineage (AVG's y^{ff}, y^{fg}, y^{gg}) thus share one walk.
///
/// `group_begin`, when not empty, lays the rows out as groups one after
/// another — group k is rows [group_begin[k], group_begin[k+1]), with
/// front 0 and back `rows` — and the group is a dimension present in every
/// partition: table t holds group k's y_S at [k * 2^n + S], equal bit for
/// bit to the table of group k's rows alone. Empty: one group of all rows.
///
/// Fails with InvalidArgument for more than kMaxYsRows rows, a lineage
/// column of another length, a term naming a missing column, or group
/// offsets that do not ascend from 0 to `rows`.
Result<std::vector<std::vector<double>>> ComputeYsLattice(
    const std::vector<std::vector<uint64_t>>& lineage,
    const std::vector<const double*>& columns, int64_t rows,
    const std::vector<YsTerm>& terms,
    const std::vector<int64_t>& group_begin = {});

/// \brief Sort-based alternative for a single mask (the A2 ablation).
///
/// Sorts row indexes by the projected lineage key instead of coding it;
/// the same groups folded in key order, so results agree with ComputeYS
/// up to rounding, at different constant factors — the A2 ablation bench
/// compares the two.
double ComputeYSSorted(const SampleView& view, SubsetMask mask);

}  // namespace gus

#endif  // GUS_EST_YS_H_
