// Tests for the load-shedding module (Section 8 streaming application)
// and its plan-level twin, admission control (stream/admission.h).

#include <gtest/gtest.h>

#include <cmath>

#include "plan/columnar_executor.h"
#include "rel/operators.h"
#include "stream/admission.h"
#include "stream/load_shedder.h"
#include "test_util.h"
#include "util/stats.h"

namespace gus {
namespace {

using ::gus::testing::MakeSingleTable;
using ::gus::testing::MakeTinyJoin;

TEST(LoadShedderTest, StartsWideOpen) {
  BernoulliLoadShedder shedder(ShedderConfig{});
  EXPECT_DOUBLE_EQ(1.0, shedder.keep_probability());
}

TEST(LoadShedderTest, AdaptsToCapacity) {
  ShedderConfig config;
  config.capacity_per_window = 100;
  config.smoothing = 1.0;  // react immediately
  BernoulliLoadShedder shedder(config);
  shedder.ObserveWindow(1000);
  EXPECT_NEAR(0.1, shedder.keep_probability(), 1e-12);
  shedder.ObserveWindow(200);
  EXPECT_NEAR(0.5, shedder.keep_probability(), 1e-12);
  shedder.ObserveWindow(50);  // under capacity: no shedding
  EXPECT_DOUBLE_EQ(1.0, shedder.keep_probability());
}

TEST(LoadShedderTest, SmoothingDampsReaction) {
  ShedderConfig config;
  config.capacity_per_window = 100;
  config.smoothing = 0.5;
  BernoulliLoadShedder shedder(config);
  shedder.ObserveWindow(1000);   // seeds the estimate at 1000
  shedder.ObserveWindow(100);    // smoothed: 550
  EXPECT_NEAR(100.0 / 550.0, shedder.keep_probability(), 1e-12);
}

TEST(LoadShedderTest, ClampsToRange) {
  ShedderConfig config;
  config.capacity_per_window = 1;
  config.min_p = 0.01;
  config.smoothing = 1.0;
  BernoulliLoadShedder shedder(config);
  shedder.ObserveWindow(1000000);
  EXPECT_DOUBLE_EQ(0.01, shedder.keep_probability());
}

TEST(ShedWindowTest, KeepsExpectedFractionAndEstimatesSum) {
  Relation window = MakeSingleTable(2000, "W");
  Rng rng(1);
  ASSERT_OK_AND_ASSIGN(WindowEstimate est,
                       ShedAndEstimateWindow(window, 0.25, Col("v"), &rng));
  const double truth = 2000.0 * 2001.0 / 2.0;
  EXPECT_NEAR(0.25 * 2000, est.kept_rows, 120);
  EXPECT_NEAR(truth, est.estimate, 5.0 * est.stddev + 1e-9);
  EXPECT_TRUE(est.interval.Contains(est.estimate));
}

TEST(ShedWindowTest, NoSheddingIsExact) {
  Relation window = MakeSingleTable(100, "W");
  Rng rng(2);
  ASSERT_OK_AND_ASSIGN(WindowEstimate est,
                       ShedAndEstimateWindow(window, 1.0, Col("v"), &rng));
  EXPECT_DOUBLE_EQ(5050.0, est.estimate);
  EXPECT_NEAR(0.0, est.stddev, 1e-9);
  EXPECT_EQ(100, est.kept_rows);
}

TEST(ShedWindowTest, CoverageOverWindows) {
  Relation window = MakeSingleTable(500, "W");
  const double truth = 500.0 * 501.0 / 2.0;
  Rng rng(3);
  CoverageCounter coverage;
  for (int w = 0; w < 3000; ++w) {
    ASSERT_OK_AND_ASSIGN(WindowEstimate est,
                         ShedAndEstimateWindow(window, 0.2, Col("v"), &rng));
    coverage.Add(est.interval.Contains(truth));
  }
  EXPECT_GT(coverage.fraction(), 0.92);
  EXPECT_LT(coverage.fraction(), 0.98);
}

TEST(ShedWindowTest, RejectsDerivedRelations) {
  auto data = MakeTinyJoin(3, 2);
  ASSERT_OK_AND_ASSIGN(Relation joined,
                       HashJoin(data.fact, data.dim, "fk", "pk"));
  Rng rng(4);
  EXPECT_STATUS_CODE(
      kInvalidArgument,
      ShedAndEstimateWindow(joined, 0.5, Col("v"), &rng).status());
}

TEST(JoinedWindowsTest, EstimatesJoinSum) {
  auto data = MakeTinyJoin(/*num_dim=*/20, /*fanout=*/5);
  // Exact join SUM(v*w).
  ASSERT_OK_AND_ASSIGN(Relation joined,
                       HashJoin(data.fact, data.dim, "fk", "pk"));
  ASSERT_OK_AND_ASSIGN(double truth,
                       AggregateSum(joined, Mul(Col("v"), Col("w"))));
  Rng rng(5);
  MeanVar estimates;
  CoverageCounter coverage;
  for (int w = 0; w < 3000; ++w) {
    ASSERT_OK_AND_ASSIGN(
        WindowEstimate est,
        ShedAndEstimateJoinedWindows(data.fact, 0.6, data.dim, 0.7, "fk",
                                     "pk", Mul(Col("v"), Col("w")), &rng));
    estimates.Add(est.estimate);
    coverage.Add(est.interval.Contains(truth));
  }
  // Unbiased across windows; joint coverage near nominal.
  EXPECT_NEAR(truth, estimates.mean(),
              4.0 * estimates.stddev_sample() / std::sqrt(3000.0));
  EXPECT_GT(coverage.fraction(), 0.90);
}

TEST(JoinedWindowsTest, EffectiveProbabilityIsProduct) {
  auto data = MakeTinyJoin(5, 2);
  Rng rng(6);
  ASSERT_OK_AND_ASSIGN(
      WindowEstimate est,
      ShedAndEstimateJoinedWindows(data.fact, 0.5, data.dim, 0.4, "fk", "pk",
                                   Mul(Col("v"), Col("w")), &rng));
  EXPECT_DOUBLE_EQ(0.2, est.p);
}

// ---------------------------------------------------------------------------
// Admission control: shedding by *design* (scaled sampling rates), not by
// dropping tuples behind the estimator's back.

TEST(AdmissionTest, ControllerTracksOfferedLoad) {
  AdmissionConfig config;
  config.capacity_rows = 100;
  config.smoothing = 1.0;  // react immediately
  AdmissionController admission(config);
  EXPECT_DOUBLE_EQ(1.0, admission.scale());
  admission.ObserveQuery(1000);
  EXPECT_NEAR(0.1, admission.scale(), 1e-12);
  admission.ObserveQuery(50);  // under capacity: full-rate admission
  EXPECT_DOUBLE_EQ(1.0, admission.scale());
}

TEST(AdmissionTest, ScalesEverySamplingFamilyInPlace) {
  PlanPtr plan = PlanNode::Join(
      PlanNode::Sample(SamplingSpec::Bernoulli(0.8), PlanNode::Scan("F")),
      PlanNode::Sample(SamplingSpec::WithoutReplacement(10, 32),
                       PlanNode::Scan("D")),
      "fk", "pk");
  ASSERT_OK_AND_ASSIGN(PlanPtr scaled, ScalePlanSamplingRates(plan, 0.5));
  EXPECT_NEAR(0.4, scaled->left()->spec().p, 1e-12);
  EXPECT_EQ(5, scaled->right()->spec().n);
  EXPECT_EQ(32, scaled->right()->spec().population);
  // The original plan is untouched (a new tree is built).
  EXPECT_DOUBLE_EQ(0.8, plan->left()->spec().p);

  // Fixed-size rates floor at one draw rather than reaching zero.
  PlanPtr tiny = PlanNode::Sample(SamplingSpec::WithoutReplacement(2, 32),
                                  PlanNode::Scan("D"));
  ASSERT_OK_AND_ASSIGN(PlanPtr floored, ScalePlanSamplingRates(tiny, 0.01));
  EXPECT_EQ(1, floored->spec().n);
}

TEST(AdmissionTest, ScaleOneReturnsThePlanUnchangedAndBadScalesFail) {
  PlanPtr plan = PlanNode::Sample(SamplingSpec::Bernoulli(0.5),
                                  PlanNode::Scan("D"));
  ASSERT_OK_AND_ASSIGN(PlanPtr same, ScalePlanSamplingRates(plan, 1.0));
  EXPECT_EQ(plan.get(), same.get());
  EXPECT_STATUS_CODE(kInvalidArgument,
                     ScalePlanSamplingRates(plan, 0.0).status());
  EXPECT_STATUS_CODE(kInvalidArgument,
                     ScalePlanSamplingRates(plan, 1.5).status());
  EXPECT_STATUS_CODE(kInvalidArgument,
                     ScalePlanSamplingRates(nullptr, 0.5).status());
}

TEST(AdmissionTest, AdmittedEstimateStaysUnbiased) {
  // Shedding by design: the scaled plan is re-analyzed (SoaTransform on
  // the admitted tree), so the smaller sample still divides by its own
  // honest inclusion probabilities — the estimate stays unbiased at any
  // admission scale.
  auto data = MakeTinyJoin(64, 1);
  Catalog catalog = data.MakeCatalog();
  ColumnarCatalog columnar(&catalog);
  double truth = 0.0;
  for (int64_t i = 0; i < data.dim.num_rows(); ++i) {
    truth += data.dim.row(i)[1].ToDouble();
  }
  PlanPtr plan = PlanNode::Sample(SamplingSpec::Bernoulli(0.8),
                                  PlanNode::Scan("D"));
  SboxOptions options;
  ExecOptions exec;
  exec.engine = ExecEngine::kMorselParallel;
  exec.morsel_rows = 8;
  MeanVar estimates;
  const int kTrials = 300;
  for (int t = 0; t < kTrials; ++t) {
    Rng rng(9000 + t);
    ASSERT_OK_AND_ASSIGN(
        AdmittedEstimate admitted,
        AdmitAndEstimate(plan, &columnar, &rng, Col("w"), options,
                         ExecMode::kSampled, exec, 0.5));
    EXPECT_DOUBLE_EQ(0.5, admitted.scale);
    EXPECT_NEAR(0.4, admitted.admitted_plan->spec().p, 1e-12);
    estimates.Add(admitted.report.estimate);
  }
  EXPECT_NEAR(truth, estimates.mean(),
              5.0 * estimates.stddev_sample() / std::sqrt(1.0 * kTrials));
}

}  // namespace
}  // namespace gus
