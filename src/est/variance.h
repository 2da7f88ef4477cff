// Theorem 1: moments of the GUS sampling estimator.
//
//   X = (1/a) * sum_{t in sample} f(t)
//   E[X] = A (the true aggregate)
//   Var[X] = sum_S (c_S / a^2) y_S  −  y_∅
//
// VarianceFromY evaluates the formula given a y-table — the *true* y values
// for the exact (oracle) variance, or the unbiased Ŷ estimates for the
// sample-based variance estimate.

#ifndef GUS_EST_VARIANCE_H_
#define GUS_EST_VARIANCE_H_

#include <vector>

#include "algebra/gus_params.h"
#include "est/sample_view.h"
#include "util/status.h"

namespace gus {

/// The point estimate X = SumF / a.
Result<double> PointEstimate(const GusParams& gus, const SampleView& sample);

/// Var[X] from a y-table (true y or estimated Ŷ), Theorem 1. A wrapper
/// over VarianceWeights.
Result<double> VarianceFromY(const GusParams& gus,
                             const std::vector<double>& y);

/// \brief Theorem 1's weights c_S / a^2, computed once per GusParams and
/// applied to any number of y tables (one per GROUP BY group) with the
/// same arithmetic, in the same order, as VarianceFromY.
class VarianceWeights {
 public:
  explicit VarianceWeights(const GusParams& gus);

  /// The failure VarianceFromY reports when a <= 0; OK otherwise.
  const Status& status() const { return status_; }

  /// Var[X] from the 2^n-entry table at `y`. Requires status().ok().
  double Variance(const double* y) const;

 private:
  Status status_;
  std::vector<double> weights_;  // c_S / a^2 by mask
};

/// \brief Oracle variance: evaluates Theorem 1 on the *full data*
/// (exact y values). Used by tests and experiments as ground truth for the
/// estimator's sampling distribution.
Result<double> ExactVariance(const GusParams& gus, const SampleView& full_data);

}  // namespace gus

#endif  // GUS_EST_VARIANCE_H_
