#include "est/confidence.h"

#include <cmath>
#include <sstream>

#include "util/stats.h"

namespace gus {

std::string ConfidenceInterval::ToString() const {
  std::ostringstream out;
  out << "[" << lo << ", " << hi << "] @" << level * 100.0 << "% ("
      << (kind == BoundKind::kNormal ? "normal" : "Chebyshev") << ")";
  return out.str();
}

Result<double> IntervalMultiplier(double level, BoundKind kind) {
  if (!(level > 0.0 && level < 1.0)) {
    return Status::InvalidArgument("confidence level must be in (0,1)");
  }
  return kind == BoundKind::kNormal ? NormalQuantile(0.5 + level / 2.0)
                                    : ChebyshevMultiplier(level);
}

Result<ConfidenceInterval> MakeInterval(double estimate, double variance,
                                        double level, BoundKind kind) {
  GUS_ASSIGN_OR_RETURN(const double k, IntervalMultiplier(level, kind));
  if (variance < 0.0) {
    // Sample-estimated variances can go slightly negative; clamp tiny
    // negatives, reject clearly invalid input.
    if (variance < -1e-6 * std::max(1.0, estimate * estimate)) {
      return Status::InvalidArgument("variance must be non-negative");
    }
    variance = 0.0;
  }
  const double sigma = std::sqrt(variance);
  ConfidenceInterval ci;
  ci.lo = estimate - k * sigma;
  ci.hi = estimate + k * sigma;
  ci.level = level;
  ci.kind = kind;
  return ci;
}

Result<double> EstimateQuantile(double estimate, double variance, double q,
                                BoundKind kind) {
  if (!(q > 0.0 && q < 1.0)) {
    return Status::InvalidArgument("quantile must be in (0,1)");
  }
  if (variance < 0.0) variance = 0.0;
  const double sigma = std::sqrt(variance);
  if (kind == BoundKind::kNormal) {
    return estimate + NormalQuantile(q) * sigma;
  }
  const double tail = std::min(q, 1.0 - q);
  const double k = CantelliMultiplier(tail);
  return q < 0.5 ? estimate - k * sigma : estimate + k * sigma;
}

}  // namespace gus
