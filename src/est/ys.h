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

#ifndef GUS_EST_YS_H_
#define GUS_EST_YS_H_

#include <vector>

#include "est/sample_view.h"
#include "util/bits.h"
#include "util/status.h"

namespace gus {

/// \brief y_S for a single agreement mask (hash grouping).
///
/// Groups are folded in first-occurrence order over the view's rows, so
/// the value is a deterministic function of the view (its row order
/// included), independent of hash-table layout.
double ComputeYS(const SampleView& view, SubsetMask mask);

/// Bilinear y_S^{f,g}; `g` must have the same length as view.f. Same
/// grouping and fold order as ComputeYS, so ComputeYSBilinear(view,
/// view.f, mask) equals ComputeYS(view, mask) bit for bit.
Result<double> ComputeYSBilinear(const SampleView& view,
                                 const std::vector<double>& g,
                                 SubsetMask mask);

/// All 2^n statistics, indexed by mask (hash grouping).
std::vector<double> ComputeAllYS(const SampleView& view);

/// All 2^n bilinear statistics.
Result<std::vector<double>> ComputeAllYSBilinear(const SampleView& view,
                                                 const std::vector<double>& g);

/// \brief Sort-based alternative for a single mask.
///
/// Sorts row indexes by the projected lineage key instead of hashing;
/// the same groups folded in key order, so results agree with ComputeYS
/// up to rounding, at different constant factors — the A2 ablation bench
/// compares the two.
double ComputeYSSorted(const SampleView& view, SubsetMask mask);

}  // namespace gus

#endif  // GUS_EST_YS_H_
