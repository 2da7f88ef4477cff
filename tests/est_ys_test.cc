// Tests for the y_S statistics: hand-computed values, agreement between the
// hash and sort implementations, bilinear generalization.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "est/ys.h"
#include "test_util.h"
#include "util/random.h"

namespace gus {
namespace {

/// A small hand-checkable view over lineage schema {A, B}:
///   rows: (a=0,b=0,f=1), (a=0,b=1,f=2), (a=1,b=0,f=3), (a=1,b=1,f=4)
SampleView MakeHandView() {
  SampleView v;
  v.schema = LineageSchema::Make({"A", "B"}).ValueOrDie();
  v.lineage = {{0, 0, 1, 1}, {0, 1, 0, 1}};
  v.f = {1.0, 2.0, 3.0, 4.0};
  return v;
}

TEST(YsTest, EmptyMaskIsSquaredSum) {
  SampleView v = MakeHandView();
  EXPECT_DOUBLE_EQ(100.0, ComputeYS(v, 0));  // (1+2+3+4)^2
}

TEST(YsTest, FullMaskIsSumOfSquares) {
  SampleView v = MakeHandView();
  EXPECT_DOUBLE_EQ(1.0 + 4.0 + 9.0 + 16.0, ComputeYS(v, 0b11));
}

TEST(YsTest, GroupByFirstDimension) {
  SampleView v = MakeHandView();
  // Group by A: {1+2}^2 + {3+4}^2 = 9 + 49.
  EXPECT_DOUBLE_EQ(58.0, ComputeYS(v, 0b01));
}

TEST(YsTest, GroupBySecondDimension) {
  SampleView v = MakeHandView();
  // Group by B: {1+3}^2 + {2+4}^2 = 16 + 36.
  EXPECT_DOUBLE_EQ(52.0, ComputeYS(v, 0b10));
}

TEST(YsTest, ComputeAllMatchesSingle) {
  SampleView v = MakeHandView();
  const auto all = ComputeAllYS(v);
  ASSERT_EQ(4u, all.size());
  for (SubsetMask m = 0; m < 4; ++m) {
    EXPECT_DOUBLE_EQ(ComputeYS(v, m), all[m]);
  }
}

TEST(YsTest, EmptyViewAllZero) {
  SampleView v;
  v.schema = LineageSchema::Make({"A"}).ValueOrDie();
  v.lineage = {{}};
  const auto all = ComputeAllYS(v);
  EXPECT_DOUBLE_EQ(0.0, all[0]);
  EXPECT_DOUBLE_EQ(0.0, all[1]);
}

TEST(YsTest, SortedVariantMatchesHashed) {
  // ~200k rows in block-sample style: every dimension's lineage id repeats
  // over runs of consecutive rows (a sampled block shares one id), so
  // groups hold many rows under every mask. Hash and sort grouping form
  // the same groups but fold them in different orders, hence the relative
  // tolerance.
  constexpr int kRows = 200000;
  for (int arity = 1; arity <= 3; ++arity) {
    SCOPED_TRACE("arity " + std::to_string(arity));
    Rng rng(42 + static_cast<uint64_t>(arity));
    SampleView v;
    std::vector<std::string> dims = {"A", "B", "C"};
    dims.resize(static_cast<size_t>(arity));
    v.schema = LineageSchema::Make(dims).ValueOrDie();
    v.lineage.assign(static_cast<size_t>(arity), {});
    for (int d = 0; d < arity; ++d) {
      const uint64_t blocks = uint64_t{1} << (6 + 4 * d);
      uint64_t id = 0;
      for (int i = 0; i < kRows; ++i) {
        if (i == 0 || rng.UniformInt(uint64_t{8}) == 0) {
          id = rng.UniformInt(blocks);  // start a new block run
        }
        v.lineage[static_cast<size_t>(d)].push_back(id);
      }
    }
    for (int i = 0; i < kRows; ++i) v.f.push_back(rng.Uniform(-2.0, 2.0));
    for (SubsetMask m = 0; m < v.schema.num_subsets(); ++m) {
      const double hashed = ComputeYS(v, m);
      const double sorted = ComputeYSSorted(v, m);
      EXPECT_NEAR(hashed, sorted, 1e-9 * std::abs(sorted)) << "mask " << m;
    }
  }
}

TEST(YsTest, YsMonotoneUnderRefinement) {
  // For non-negative f: coarser grouping (smaller S) merges groups, so
  // (sum)^2 grows: y_S >= y_T when S ⊆ T.
  Rng rng(43);
  SampleView v;
  v.schema = LineageSchema::Make({"A", "B"}).ValueOrDie();
  v.lineage.assign(2, {});
  for (int i = 0; i < 300; ++i) {
    v.lineage[0].push_back(rng.UniformInt(uint64_t{5}));
    v.lineage[1].push_back(rng.UniformInt(uint64_t{9}));
    v.f.push_back(rng.Uniform(0.0, 1.0));
  }
  const auto y = ComputeAllYS(v);
  EXPECT_GE(y[0b00], y[0b01]);
  EXPECT_GE(y[0b00], y[0b10]);
  EXPECT_GE(y[0b01], y[0b11]);
  EXPECT_GE(y[0b10], y[0b11]);
}

TEST(YsBilinearTest, DiagonalEqualsQuadratic) {
  // Both forms group through one helper and fold in one order, so the
  // diagonal is bit-identical, not merely close.
  SampleView v = MakeHandView();
  Rng rng(44);
  for (int i = 0; i < 1000; ++i) {
    v.lineage[0].push_back(rng.UniformInt(uint64_t{17}));
    v.lineage[1].push_back(rng.UniformInt(uint64_t{5}));
    v.f.push_back(rng.Uniform(-3.0, 3.0));
  }
  for (SubsetMask m = 0; m < 4; ++m) {
    ASSERT_OK_AND_ASSIGN(double bl, ComputeYSBilinear(v, v.f, m));
    EXPECT_EQ(ComputeYS(v, m), bl) << "mask " << m;
  }
}

TEST(YsTest, GroupsFoldInFirstOccurrenceOrder) {
  // One dimension, groups interleaved so first-occurrence order (7, 3, 9,
  // 5, 1) is neither key order nor any hash order. Group sums: 1 for the
  // first group, 2^-27 for the other four. Squares: 1 and four 2^-54.
  // Folded first-occurrence, each 2^-54 is absorbed by 1 (below half an
  // ulp), giving exactly 1; folding the small squares first would give
  // 1 + 2^-52.
  const double tiny = std::ldexp(1.0, -27);
  SampleView v;
  v.schema = LineageSchema::Make({"A"}).ValueOrDie();
  v.lineage = {{7, 3, 9, 7, 5, 1, 3}};
  v.f = {0.5, tiny / 2, tiny, 0.5, tiny, tiny, tiny / 2};
  EXPECT_EQ(1.0, ComputeYS(v, 0b1));

  // Bilinear: group products 1e17, -1e17, 1 in first-occurrence order
  // (keys 4, 8, 2). The large terms cancel first, so the fold is exactly
  // 1; key order or reverse order adds 1 to a large term first, where it
  // is lost (1e17 + 1 rounds back to 1e17), and gives 0.
  SampleView w;
  w.schema = LineageSchema::Make({"A"}).ValueOrDie();
  w.lineage = {{4, 8, 2, 4}};
  w.f = {0.5e17, -1e17, 1.0, 0.5e17};
  const std::vector<double> g = {0.5, 1.0, 1.0, 0.5};
  ASSERT_OK_AND_ASSIGN(double y, ComputeYSBilinear(w, g, 0b1));
  EXPECT_EQ(1.0, y);
}

TEST(YsBilinearTest, WithOnesGivesCountCrossTerm) {
  SampleView v = MakeHandView();
  const std::vector<double> ones(4, 1.0);
  // Mask ∅: (sum f)(sum 1) = 10 * 4.
  ASSERT_OK_AND_ASSIGN(double y0, ComputeYSBilinear(v, ones, 0));
  EXPECT_DOUBLE_EQ(40.0, y0);
  // Group by A: (3)(2) + (7)(2) = 20.
  ASSERT_OK_AND_ASSIGN(double y1, ComputeYSBilinear(v, ones, 0b01));
  EXPECT_DOUBLE_EQ(20.0, y1);
}

TEST(YsBilinearTest, LengthMismatchFails) {
  SampleView v = MakeHandView();
  EXPECT_STATUS_CODE(kInvalidArgument,
                     ComputeYSBilinear(v, {1.0}, 0).status());
}

TEST(YsBilinearTest, AllMatchesSingle) {
  SampleView v = MakeHandView();
  const std::vector<double> g = {2.0, -1.0, 0.5, 3.0};
  ASSERT_OK_AND_ASSIGN(auto all, ComputeAllYSBilinear(v, g));
  for (SubsetMask m = 0; m < 4; ++m) {
    ASSERT_OK_AND_ASSIGN(double one, ComputeYSBilinear(v, g, m));
    EXPECT_DOUBLE_EQ(one, all[m]);
  }
}

}  // namespace
}  // namespace gus
