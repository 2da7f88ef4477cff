#include "est/unbiased.h"

#include <algorithm>

#include "util/logging.h"

namespace gus {

double UnbiasingCoefficient(const GusParams& gus, SubsetMask s, SubsetMask u) {
  GUS_DCHECK((s & ~u) == 0);
  const SubsetMask extra = u & ~s;
  double d = 0.0;
  for (SubsetIterator it(extra); !it.done(); it.Next()) {
    // V = S ∪ W for W ⊆ U \ S, sign (−1)^{|U\S| − |W|}.
    d += ParitySign(extra & ~it.mask()) * gus.b(s | it.mask());
  }
  return d;
}

UnbiasingPlan::UnbiasingPlan(const GusParams& gus) {
  const size_t count = gus.schema().num_subsets();
  const SubsetMask full = gus.schema().full_mask();

  // Order masks by decreasing popcount so every Ŷ_{S∪T} needed by the
  // recursion is already available.
  std::vector<SubsetMask> order(count);
  for (SubsetMask m = 0; m < count; ++m) order[m] = m;
  std::sort(order.begin(), order.end(), [](SubsetMask a, SubsetMask b) {
    const int pa = PopCount(a), pb = PopCount(b);
    return pa != pb ? pa > pb : a < b;
  });

  steps_.reserve(count);
  for (SubsetMask s : order) {
    const double b_s = gus.b(s);
    if (b_s <= 0.0) {
      status_ = Status::InvalidArgument(
          "b_" + gus.schema().MaskToString(s) +
          " = 0: y_S is not estimable from this sampling design");
      return;
    }
    Step step{s, b_s, term_u_.size(), 0};
    const SubsetMask complement = full & ~s;
    for (SubsetIterator it(complement); !it.done(); it.Next()) {
      if (it.mask() == 0) continue;
      term_u_.push_back(s | it.mask());
      term_d_.push_back(UnbiasingCoefficient(gus, s, s | it.mask()));
    }
    step.end_term = term_u_.size();
    steps_.push_back(step);
  }
}

void UnbiasingPlan::Apply(const double* Y, double* y_hat) const {
  GUS_DCHECK(status_.ok());
  for (const Step& step : steps_) {
    double rhs = Y[step.s];
    for (size_t t = step.first_term; t < step.end_term; ++t) {
      rhs -= term_d_[t] * y_hat[term_u_[t]];
    }
    y_hat[step.s] = rhs / step.b_s;
  }
}

Result<std::vector<double>> UnbiasedYEstimates(const GusParams& gus,
                                               const std::vector<double>& Y) {
  if (Y.size() != gus.schema().num_subsets()) {
    return Status::InvalidArgument("Y table must have 2^n entries");
  }
  const UnbiasingPlan plan(gus);
  GUS_RETURN_NOT_OK(plan.status());
  std::vector<double> y_hat(Y.size(), 0.0);
  plan.Apply(Y.data(), y_hat.data());
  return y_hat;
}

}  // namespace gus
