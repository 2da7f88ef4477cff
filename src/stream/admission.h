// Admission control: overload protection that degrades the *sampling
// design* instead of the answer's honesty.
//
// Under overload, conventional systems silently drop work and return a
// number whose error is unknowable. Here the load shedder's adaptive keep
// probability (stream/load_shedder.h, paper Section 8) is reused as an
// admission *scale*: before an overloaded query runs, every sampling
// operator's rate is multiplied down, the SOA transform re-derives the top
// GUS for the shrunken design, and the SBox quantifies exactly what the
// shrinkage cost — the estimate stays unbiased and the CI widens honestly.
// Shedding-by-design instead of shedding-by-dropping is the same move the
// fault-tolerant gather makes for lost shards (est/partial_gather.h): the
// degradation enters the algebra, never the bookkeeping's blind spot.

#ifndef GUS_STREAM_ADMISSION_H_
#define GUS_STREAM_ADMISSION_H_

#include <cstdint>

#include "est/sbox.h"
#include "plan/columnar_executor.h"
#include "plan/executor.h"
#include "plan/plan_node.h"
#include "rel/expression.h"
#include "stream/load_shedder.h"
#include "util/random.h"
#include "util/status.h"

namespace gus {

/// \brief Admission-control tuning: how hard sampling rates shrink under
/// sustained overload.
struct AdmissionConfig {
  /// Sample rows per query the system is provisioned for; observed loads
  /// above this shrink the admission scale proportionally.
  int64_t capacity_rows = 100000;
  /// Clamp range for the admission scale (1.0 = no shrinkage).
  double min_scale = 0.01;
  double max_scale = 1.0;
  /// Exponential smoothing factor for the offered-load estimate.
  double smoothing = 0.5;
};

/// \brief Adapts an admission scale from observed per-query sample loads.
///
/// A thin policy layer over BernoulliLoadShedder: the shedder's adaptive
/// keep probability *is* the admission scale, applied to query sampling
/// rates (ScalePlanSamplingRates) rather than to an arriving tuple stream.
/// Not thread-safe; one controller per admission queue.
class AdmissionController {
 public:
  explicit AdmissionController(const AdmissionConfig& config);

  /// Scale to apply to the next query's sampling rates, in
  /// [min_scale, max_scale].
  double scale() const { return shedder_.keep_probability(); }

  /// \brief Reports one query's *offered* load — the sample rows its
  /// design would admit at scale 1.0 (e.g. rows observed under a scaled
  /// run divided by the scale that ran).
  ///
  /// Smooths the load estimate and adapts the scale so the expected
  /// admitted rows of the next query match capacity_rows.
  void ObserveQuery(int64_t offered_rows);

 private:
  BernoulliLoadShedder shedder_;
};

/// \brief Rebuilds `plan` with every sampling operator's rate multiplied
/// by `scale` in (0, 1]: Bernoulli-family specs (plain, block, lineage)
/// scale p (clamped to 1.0); fixed-size specs (WOR, WR-distinct) scale n
/// (floored at 1 row).
///
/// Relational content, seeds, and structure are untouched, so the scaled
/// plan is the same query under a sparser design — re-running SoaTransform
/// on it yields the GUS parameters that keep its estimate unbiased.
/// scale == 1.0 returns `plan` unchanged (shared, not copied).
Result<PlanPtr> ScalePlanSamplingRates(const PlanPtr& plan, double scale);

/// \brief An admitted (possibly rate-shrunken) estimation run.
struct AdmittedEstimate {
  SboxReport report;
  /// Scale that was applied to the sampling rates.
  double scale = 1.0;
  /// The plan as executed (== the input plan when scale == 1.0).
  PlanPtr admitted_plan;
};

/// \brief Runs `plan` at admission scale `scale`: shrinks the sampling
/// rates, re-derives the top GUS via SoaTransform, and estimates through
/// EstimatePlanParallel on the engine `exec.engine` names (set
/// kMorselParallel for the parallel streaming engine; the default
/// kRowAtATime runs the row oracle and needs a catalog with a row form).
///
/// The report is exactly the shrunken design's honest analysis — unbiased
/// estimate, CI widened by however much the admission control cost.
/// Callers holding an AdmissionController pass controller.scale() here and
/// ObserveQuery(report.sample_rows / scale) afterwards.
Result<AdmittedEstimate> AdmitAndEstimate(
    const PlanPtr& plan, ColumnarCatalog* catalog, Rng* rng,
    const ExprPtr& f_expr, const SboxOptions& options, ExecMode mode,
    const ExecOptions& exec, double scale);

}  // namespace gus

#endif  // GUS_STREAM_ADMISSION_H_
