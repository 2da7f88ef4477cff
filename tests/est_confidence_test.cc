// Tests for confidence intervals and QUANTILE computation (Section 6.4).

#include <gtest/gtest.h>

#include <cmath>

#include "est/confidence.h"
#include "test_util.h"

namespace gus {
namespace {

TEST(ConfidenceTest, NormalIntervalUsesPaperMultiplier) {
  // Section 6.4: 95% optimistic interval is µ ± 1.96 σ.
  ASSERT_OK_AND_ASSIGN(
      ConfidenceInterval ci,
      MakeInterval(100.0, 25.0, 0.95, BoundKind::kNormal));
  EXPECT_NEAR(100.0 - 1.96 * 5.0, ci.lo, 1e-3);
  EXPECT_NEAR(100.0 + 1.96 * 5.0, ci.hi, 1e-3);
  EXPECT_TRUE(ci.Contains(100.0));
  EXPECT_FALSE(ci.Contains(80.0));
}

TEST(ConfidenceTest, ChebyshevIntervalUsesPaperMultiplier) {
  // Section 6.4: 95% pessimistic interval is µ ± 4.47 σ.
  ASSERT_OK_AND_ASSIGN(
      ConfidenceInterval ci,
      MakeInterval(100.0, 25.0, 0.95, BoundKind::kChebyshev));
  EXPECT_NEAR(100.0 - 4.47 * 5.0, ci.lo, 0.05);
  EXPECT_NEAR(100.0 + 4.47 * 5.0, ci.hi, 0.05);
}

TEST(ConfidenceTest, ChebyshevIsRoughlyTwiceNormalWidth) {
  // The paper: "correct for any distribution, at the expense of a factor of
  // 2 in width".
  ASSERT_OK_AND_ASSIGN(
      ConfidenceInterval n, MakeInterval(0.0, 1.0, 0.95, BoundKind::kNormal));
  ASSERT_OK_AND_ASSIGN(
      ConfidenceInterval c,
      MakeInterval(0.0, 1.0, 0.95, BoundKind::kChebyshev));
  EXPECT_NEAR(2.28, c.width() / n.width(), 0.02);
}

TEST(ConfidenceTest, ZeroVarianceGivesPointInterval) {
  ASSERT_OK_AND_ASSIGN(
      ConfidenceInterval ci, MakeInterval(7.0, 0.0, 0.95, BoundKind::kNormal));
  EXPECT_DOUBLE_EQ(7.0, ci.lo);
  EXPECT_DOUBLE_EQ(7.0, ci.hi);
}

TEST(ConfidenceTest, TinyNegativeVarianceClamped) {
  ASSERT_OK(MakeInterval(7.0, -1e-12, 0.95, BoundKind::kNormal).status());
}

TEST(ConfidenceTest, LargeNegativeVarianceRejected) {
  EXPECT_STATUS_CODE(
      kInvalidArgument,
      MakeInterval(7.0, -1.0, 0.95, BoundKind::kNormal).status());
}

TEST(ConfidenceTest, InvalidLevelRejected) {
  EXPECT_STATUS_CODE(kInvalidArgument,
                     MakeInterval(0.0, 1.0, 0.0, BoundKind::kNormal).status());
  EXPECT_STATUS_CODE(kInvalidArgument,
                     MakeInterval(0.0, 1.0, 1.0, BoundKind::kNormal).status());
}

TEST(ConfidenceTest, IntervalMultiplierIsMakeIntervalsK) {
  for (const BoundKind kind : {BoundKind::kNormal, BoundKind::kChebyshev}) {
    for (const double level : {0.5, 0.9, 0.95, 0.999}) {
      ASSERT_OK_AND_ASSIGN(double k, IntervalMultiplier(level, kind));
      ASSERT_OK_AND_ASSIGN(ConfidenceInterval ci,
                           MakeInterval(0.0, 1.0, level, kind));
      EXPECT_EQ(ci.hi, k);
    }
  }
  EXPECT_STATUS_CODE(kInvalidArgument,
                     IntervalMultiplier(1.0, BoundKind::kChebyshev).status());
}

TEST(ConfidenceTest, WiderLevelWiderInterval) {
  ASSERT_OK_AND_ASSIGN(
      ConfidenceInterval c90, MakeInterval(0.0, 4.0, 0.90, BoundKind::kNormal));
  ASSERT_OK_AND_ASSIGN(
      ConfidenceInterval c99, MakeInterval(0.0, 4.0, 0.99, BoundKind::kNormal));
  EXPECT_LT(c90.width(), c99.width());
}

TEST(QuantileTest, IntroApproxViewSemantics) {
  // The paper's CREATE VIEW APPROX(lo, hi) with QUANTILE(..., 0.05) and
  // QUANTILE(..., 0.95): lo < estimate < hi, symmetric for normal.
  const double mu = 1000.0, var = 100.0;
  ASSERT_OK_AND_ASSIGN(double lo, EstimateQuantile(mu, var, 0.05));
  ASSERT_OK_AND_ASSIGN(double hi, EstimateQuantile(mu, var, 0.95));
  EXPECT_LT(lo, mu);
  EXPECT_GT(hi, mu);
  EXPECT_NEAR(mu - lo, hi - mu, 1e-9);
  EXPECT_NEAR(1.6449 * 10.0, hi - mu, 0.01);
}

TEST(QuantileTest, MedianIsEstimate) {
  ASSERT_OK_AND_ASSIGN(double med, EstimateQuantile(55.0, 9.0, 0.5));
  EXPECT_NEAR(55.0, med, 1e-9);
}

TEST(QuantileTest, ChebyshevQuantileIsWider) {
  ASSERT_OK_AND_ASSIGN(double qn,
                       EstimateQuantile(0.0, 1.0, 0.95, BoundKind::kNormal));
  ASSERT_OK_AND_ASSIGN(
      double qc, EstimateQuantile(0.0, 1.0, 0.95, BoundKind::kChebyshev));
  EXPECT_GT(qc, qn);
  EXPECT_NEAR(std::sqrt(19.0), qc, 1e-9);  // Cantelli at 5% tail
}

TEST(QuantileTest, InvalidQRejected) {
  EXPECT_STATUS_CODE(kInvalidArgument,
                     EstimateQuantile(0.0, 1.0, 0.0).status());
  EXPECT_STATUS_CODE(kInvalidArgument,
                     EstimateQuantile(0.0, 1.0, 1.0).status());
}

TEST(ConfidenceTest, ToStringMentionsKindAndLevel) {
  ASSERT_OK_AND_ASSIGN(
      ConfidenceInterval ci, MakeInterval(1.0, 1.0, 0.95, BoundKind::kNormal));
  const std::string s = ci.ToString();
  EXPECT_NE(std::string::npos, s.find("95"));
  EXPECT_NE(std::string::npos, s.find("normal"));
}

}  // namespace
}  // namespace gus
