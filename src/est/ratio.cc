#include "est/ratio.h"

#include <cmath>
#include <sstream>

#include "est/unbiased.h"
#include "est/variance.h"
#include "est/ys.h"

namespace gus {

std::string RatioReport::ToString() const {
  std::ostringstream out;
  out << "ratio=" << estimate << " stddev=" << stddev << " ci="
      << interval.ToString();
  return out.str();
}

Result<RatioReport> RatioEstimate(const GusParams& gus, const SampleView& view,
                                  const std::vector<double>& g,
                                  double confidence_level, BoundKind kind) {
  if (view.schema != gus.schema()) {
    return Status::InvalidArgument("sample view / GUS schema mismatch");
  }
  if (static_cast<int64_t>(g.size()) != view.num_rows()) {
    return Status::InvalidArgument("g must align with the sample view");
  }
  if (gus.a() <= 0.0) return Status::InvalidArgument("estimator needs a > 0");

  RatioReport report;
  double sum_g = 0.0;
  for (double v : g) sum_g += v;
  report.numerator = view.SumF() / gus.a();
  report.denominator = sum_g / gus.a();
  if (report.denominator == 0.0) {
    return Status::InvalidArgument(
        "estimated denominator is zero; the ratio is undefined");
  }
  report.estimate = report.numerator / report.denominator;

  // Unbiased estimates of the three quadratic-form tables, folded over one
  // set of lineage partitions.
  GUS_ASSIGN_OR_RETURN(const std::vector<std::vector<double>> y,
                       ComputeYsLattice(view.lineage, {view.f.data(), g.data()},
                                        view.num_rows(),
                                        {{0, 0}, {0, 1}, {1, 1}}));
  const UnbiasingPlan unbias(gus);
  GUS_RETURN_NOT_OK(unbias.status());
  std::vector<std::vector<double>> y_hat(3, std::vector<double>(y[0].size()));
  for (size_t t = 0; t < 3; ++t) unbias.Apply(y[t].data(), y_hat[t].data());
  const VarianceWeights weights(gus);
  GUS_RETURN_NOT_OK(weights.status());
  report.numerator_variance = weights.Variance(y_hat[0].data());
  report.covariance = weights.Variance(y_hat[1].data());
  report.denominator_variance = weights.Variance(y_hat[2].data());

  // Delta method around (µ_f, µ_g) evaluated at the estimates.
  const double r = report.estimate;
  const double mg2 = report.denominator * report.denominator;
  double var = (report.numerator_variance - 2.0 * r * report.covariance +
                r * r * report.denominator_variance) /
               mg2;
  report.variance = std::max(0.0, var);
  report.stddev = std::sqrt(report.variance);
  GUS_ASSIGN_OR_RETURN(report.interval,
                       MakeInterval(report.estimate, report.variance,
                                    confidence_level, kind));
  return report;
}

Result<RatioReport> AvgEstimate(const GusParams& gus, const SampleView& view,
                                double confidence_level, BoundKind kind) {
  const std::vector<double> ones(static_cast<size_t>(view.num_rows()), 1.0);
  return RatioEstimate(gus, view, ones, confidence_level, kind);
}

Result<CountReport> CountEstimate(const GusParams& gus,
                                  const SampleView& view,
                                  double confidence_level, BoundKind kind) {
  if (view.schema != gus.schema()) {
    return Status::InvalidArgument("sample view / GUS schema mismatch");
  }
  if (gus.a() <= 0.0) return Status::InvalidArgument("estimator needs a > 0");
  // COUNT is SUM with f == 1 (the paper's reduction), over the view's own
  // lineage columns.
  const std::vector<double> ones(static_cast<size_t>(view.num_rows()), 1.0);

  CountReport report;
  report.estimate = static_cast<double>(view.num_rows()) / gus.a();
  GUS_ASSIGN_OR_RETURN(const std::vector<std::vector<double>> y,
                       ComputeYsLattice(view.lineage, {ones.data()},
                                        view.num_rows(), {{0, 0}}));
  GUS_ASSIGN_OR_RETURN(std::vector<double> y_hat,
                       UnbiasedYEstimates(gus, y[0]));
  GUS_ASSIGN_OR_RETURN(double var, VarianceFromY(gus, y_hat));
  report.variance = std::max(0.0, var);
  report.stddev = std::sqrt(report.variance);
  GUS_ASSIGN_OR_RETURN(report.interval,
                       MakeInterval(report.estimate, report.variance,
                                    confidence_level, kind));
  return report;
}

}  // namespace gus
