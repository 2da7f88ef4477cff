#include "est/variance.h"

#include "est/ys.h"
#include "util/logging.h"

namespace gus {

Result<double> PointEstimate(const GusParams& gus, const SampleView& sample) {
  if (gus.a() <= 0.0) {
    return Status::InvalidArgument("estimator needs a > 0");
  }
  if (sample.schema != gus.schema()) {
    return Status::InvalidArgument("sample view / GUS schema mismatch");
  }
  return sample.SumF() / gus.a();
}

VarianceWeights::VarianceWeights(const GusParams& gus)
    : weights_(gus.AllCFast()) {
  if (gus.a() <= 0.0) {
    status_ = Status::InvalidArgument("variance needs a > 0");
  }
  const double a2 = gus.a() * gus.a();
  for (double& w : weights_) w /= a2;
}

double VarianceWeights::Variance(const double* y) const {
  GUS_DCHECK(status_.ok());
  double var = -y[0];  // − y_∅
  for (size_t m = 0; m < weights_.size(); ++m) var += weights_[m] * y[m];
  return var;
}

Result<double> VarianceFromY(const GusParams& gus,
                             const std::vector<double>& y) {
  if (y.size() != gus.schema().num_subsets()) {
    return Status::InvalidArgument("y table must have 2^n entries");
  }
  const VarianceWeights weights(gus);
  GUS_RETURN_NOT_OK(weights.status());
  return weights.Variance(y.data());
}

Result<double> ExactVariance(const GusParams& gus,
                             const SampleView& full_data) {
  if (full_data.schema != gus.schema()) {
    return Status::InvalidArgument("full data / GUS schema mismatch");
  }
  GUS_ASSIGN_OR_RETURN(const std::vector<double> y, ComputeAllYS(full_data));
  return VarianceFromY(gus, y);
}

}  // namespace gus
