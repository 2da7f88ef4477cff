// Confidence intervals and quantiles over (estimate, variance) pairs —
// paper Section 6.4.
//
// Two families:
//   * optimistic — normal approximation (the estimator is a sum of many
//     loosely-coupled terms; CLT-like behaviour),
//   * pessimistic — Chebyshev, distribution-free, the paper's factor-2
//     wider alternative (4.47 sigma at 95%).

#ifndef GUS_EST_CONFIDENCE_H_
#define GUS_EST_CONFIDENCE_H_

#include <string>

#include "util/status.h"

namespace gus {

enum class BoundKind { kNormal, kChebyshev };

/// \brief A two-sided confidence interval.
struct ConfidenceInterval {
  double lo = 0.0;
  double hi = 0.0;
  double level = 0.0;
  BoundKind kind = BoundKind::kNormal;

  double width() const { return hi - lo; }
  bool Contains(double x) const { return x >= lo && x <= hi; }
  std::string ToString() const;
};

/// Two-sided interval at `level` (e.g. 0.95).
Result<ConfidenceInterval> MakeInterval(double estimate, double variance,
                                        double level, BoundKind kind);

/// The k of MakeInterval's estimate ± k·sqrt(variance), for callers that
/// make many intervals at one level (one per GROUP BY group).
Result<double> IntervalMultiplier(double level, BoundKind kind);

/// \brief The QUANTILE(aggregate, q) of the paper's APPROX view: the value v
/// with P[true answer < v] ≈ q under the estimator's distribution.
///
/// Normal: v = µ̂ + z_q·σ̂. Chebyshev (Cantelli, one-sided): v = µ̂ ± k·σ̂
/// with k = sqrt(1/min(q,1−q) − 1).
Result<double> EstimateQuantile(double estimate, double variance, double q,
                                BoundKind kind = BoundKind::kNormal);

}  // namespace gus

#endif  // GUS_EST_CONFIDENCE_H_
