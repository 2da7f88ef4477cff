// Unbiased estimation of the y_S data statistics from a GUS sample
// (paper Section 6.3).
//
// With Y_S the y-statistic computed directly on the sample,
//
//   E[Y_S] = sum_{T ⊆ S^C} d_{S, S∪T} · y_{S∪T},
//   d_{S,U} = sum_{S ⊆ V ⊆ U} (−1)^{|U|−|V|} b_V,     d_{S,S} = b_S,
//
// which inverts into the top-down recursion (decreasing |S|):
//
//   Ŷ_S = ( Y_S − sum_{T ⊆ S^C, T ≠ ∅} d_{S,S∪T} · Ŷ_{S∪T} ) / b_S.
//
// (See the DESIGN.md erratum note: the arXiv text's c_{S,T} differs by a
// global sign that cancels; this form is Monte-Carlo validated.)

#ifndef GUS_EST_UNBIASED_H_
#define GUS_EST_UNBIASED_H_

#include <vector>

#include "algebra/gus_params.h"
#include "util/status.h"

namespace gus {

/// The coefficient d_{S,U}; requires S ⊆ U.
double UnbiasingCoefficient(const GusParams& gus, SubsetMask s, SubsetMask u);

/// \brief Runs the recursion: sample statistics Y (indexed by mask) to
/// unbiased estimates Ŷ of the full-data y statistics.
///
/// Fails if some b_S = 0 (the sampling never keeps pairs with agreement S,
/// so y_S is not estimable from this design). A wrapper over
/// UnbiasingPlan.
Result<std::vector<double>> UnbiasedYEstimates(const GusParams& gus,
                                               const std::vector<double>& Y);

/// \brief The recursion's GusParams-only parts, computed once: the
/// decreasing-popcount order of the masks and every d_{S,U} it uses.
///
/// Apply then runs the recursion on any number of Y tables (one per GROUP
/// BY group) with the same arithmetic, in the same order, as
/// UnbiasedYEstimates.
class UnbiasingPlan {
 public:
  explicit UnbiasingPlan(const GusParams& gus);

  /// The failure UnbiasedYEstimates reports when some b_S = 0; OK when
  /// the design is estimable.
  const Status& status() const { return status_; }

  /// Ŷ of the 2^n-entry table `Y` into the 2^n entries at `y_hat`.
  /// Requires status().ok().
  void Apply(const double* Y, double* y_hat) const;

 private:
  /// One mask of the order: Ŷ_s = (Y_s − Σ d_{s,u} Ŷ_u) / b_s over the
  /// terms [first_term, end_term).
  struct Step {
    SubsetMask s = 0;
    double b_s = 0.0;
    size_t first_term = 0;
    size_t end_term = 0;
  };
  Status status_;  // the first b_S = 0 in the order, if any
  std::vector<Step> steps_;
  std::vector<SubsetMask> term_u_;
  std::vector<double> term_d_;
};

}  // namespace gus

#endif  // GUS_EST_UNBIASED_H_
