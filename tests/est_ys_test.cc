// Tests for the y_S statistics: hand-computed values, a randomized oracle
// keyed on exact lineage tuples, agreement with the sort-based ablation,
// bilinear generalization.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
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
  EXPECT_DOUBLE_EQ(100.0, ComputeYS(v, 0).ValueOrDie());  // (1+2+3+4)^2
}

TEST(YsTest, FullMaskIsSumOfSquares) {
  SampleView v = MakeHandView();
  EXPECT_DOUBLE_EQ(1.0 + 4.0 + 9.0 + 16.0, ComputeYS(v, 0b11).ValueOrDie());
}

TEST(YsTest, GroupByFirstDimension) {
  SampleView v = MakeHandView();
  // Group by A: {1+2}^2 + {3+4}^2 = 9 + 49.
  EXPECT_DOUBLE_EQ(58.0, ComputeYS(v, 0b01).ValueOrDie());
}

TEST(YsTest, GroupBySecondDimension) {
  SampleView v = MakeHandView();
  // Group by B: {1+3}^2 + {2+4}^2 = 16 + 36.
  EXPECT_DOUBLE_EQ(52.0, ComputeYS(v, 0b10).ValueOrDie());
}

TEST(YsTest, ComputeAllMatchesSingle) {
  SampleView v = MakeHandView();
  const auto all = ComputeAllYS(v).ValueOrDie();
  ASSERT_EQ(4u, all.size());
  for (SubsetMask m = 0; m < 4; ++m) {
    EXPECT_DOUBLE_EQ(ComputeYS(v, m).ValueOrDie(), all[m]);
  }
}

TEST(YsTest, EmptyViewAllZero) {
  SampleView v;
  v.schema = LineageSchema::Make({"A"}).ValueOrDie();
  v.lineage = {{}};
  const auto all = ComputeAllYS(v).ValueOrDie();
  EXPECT_DOUBLE_EQ(0.0, all[0]);
  EXPECT_DOUBLE_EQ(0.0, all[1]);
}

/// Reference y_S^{f,g}: groups keyed on the exact projected lineage tuple,
/// numbered in first-occurrence order, with per-group sums accumulated in
/// row order and folded in group order. Mask ∅ is the one product
/// (sum f)(sum g).
double OracleYs(const SampleView& v, const std::vector<double>& g,
                SubsetMask mask) {
  if (mask == 0) {
    double sf = 0.0, sg = 0.0;
    for (int64_t i = 0; i < v.num_rows(); ++i) {
      sf += v.f[i];
      sg += g[i];
    }
    return sf * sg;
  }
  std::map<std::vector<uint64_t>, size_t> ids;
  std::vector<double> sums_f, sums_g;
  for (int64_t i = 0; i < v.num_rows(); ++i) {
    std::vector<uint64_t> key;
    for (int d = 0; d < v.schema.arity(); ++d) {
      if (mask & (SubsetMask{1} << d)) key.push_back(v.lineage[d][i]);
    }
    const auto [it, inserted] = ids.emplace(std::move(key), sums_f.size());
    if (inserted) {
      sums_f.push_back(0.0);
      sums_g.push_back(0.0);
    }
    sums_f[it->second] += v.f[i];
    sums_g[it->second] += g[i];
  }
  double y = 0.0;
  for (size_t k = 0; k < sums_f.size(); ++k) y += sums_f[k] * sums_g[k];
  return y;
}

SampleView EmptyView(int arity) {
  std::vector<std::string> dims;
  for (int d = 0; d < arity; ++d) dims.push_back("R" + std::to_string(d));
  SampleView v;
  v.schema = LineageSchema::Make(dims).ValueOrDie();
  v.lineage.assign(static_cast<size_t>(arity), {});
  return v;
}

std::vector<double> RandomValues(int64_t rows, Rng* rng) {
  std::vector<double> out;
  for (int64_t i = 0; i < rows; ++i) out.push_back(rng->Uniform(-2.0, 2.0));
  return out;
}

/// Bit pattern of a double, so comparisons also tell -0.0 from +0.0.
uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

/// Checks ComputeAllYS, ComputeAllYSBilinear, ComputeYS and
/// ComputeYSBilinear bitwise against the oracle on every mask with
/// mask % stride == 0 (and the full mask).
void ExpectMatchesOracle(const SampleView& v, Rng* rng,
                         SubsetMask stride = 1) {
  const std::vector<double> g = RandomValues(v.num_rows(), rng);
  const std::vector<double> y = ComputeAllYS(v).ValueOrDie();
  ASSERT_OK_AND_ASSIGN(std::vector<double> y_fg, ComputeAllYSBilinear(v, g));
  ASSERT_EQ(v.schema.num_subsets(), y.size());
  ASSERT_EQ(v.schema.num_subsets(), y_fg.size());
  const SubsetMask full = v.schema.full_mask();
  for (SubsetMask m = 0; m <= full; ++m) {
    if (m % stride != 0 && m != full) continue;
    const double want = OracleYs(v, v.f, m);
    const double want_fg = OracleYs(v, g, m);
    EXPECT_EQ(Bits(want), Bits(y[m])) << "mask " << m;
    EXPECT_EQ(Bits(want_fg), Bits(y_fg[m])) << "mask " << m;
    if (m % (stride * 7) == 0) {
      EXPECT_EQ(Bits(want), Bits(ComputeYS(v, m).ValueOrDie())) << "mask " << m;
      ASSERT_OK_AND_ASSIGN(double one_fg, ComputeYSBilinear(v, g, m));
      EXPECT_EQ(Bits(want_fg), Bits(one_fg)) << "mask " << m;
    }
  }
}

TEST(YsOracleTest, RandomViewsArityOneToFive) {
  Rng rng(50);
  for (int arity = 1; arity <= 5; ++arity) {
    for (int trial = 0; trial < 4; ++trial) {
      SCOPED_TRACE("arity " + std::to_string(arity) + " trial " +
                   std::to_string(trial));
      SampleView v = EmptyView(arity);
      const int64_t rows = 1 + static_cast<int64_t>(rng.UniformInt(400));
      for (int d = 0; d < arity; ++d) {
        // Domains from 1 (constant column) up to ~all-distinct.
        const uint64_t domain = uint64_t{1} << rng.UniformInt(uint64_t{10});
        for (int64_t i = 0; i < rows; ++i) {
          v.lineage[d].push_back(rng.UniformInt(domain) *
                                 0x9E3779B97F4A7C15ULL);
        }
      }
      v.f = RandomValues(rows, &rng);
      ExpectMatchesOracle(v, &rng);
    }
  }
}

TEST(YsOracleTest, BlockSharedIds) {
  // A sampled block shares one lineage id over a run of rows, so rows
  // agreeing on every dimension are still distinct tuples.
  Rng rng(51);
  SampleView v = EmptyView(3);
  for (int d = 0; d < 3; ++d) {
    uint64_t id = 0;
    for (int i = 0; i < 600; ++i) {
      if (i == 0 || rng.UniformInt(uint64_t{6}) == 0) {
        id = rng.UniformInt(uint64_t{40});
      }
      v.lineage[d].push_back(id);
    }
  }
  v.f = RandomValues(600, &rng);
  ExpectMatchesOracle(v, &rng);
}

TEST(YsOracleTest, ForeignKeyChainsInEveryDimensionOrder) {
  // l -> o -> c: every lineitem id is distinct, each order id is a
  // function of its lineitem, each customer id a function of its order.
  // Plus one column that no other column determines.
  Rng rng(52);
  constexpr int64_t kRows = 900;
  std::vector<uint64_t> l, o, c, x;
  for (int64_t i = 0; i < kRows; ++i) {
    const uint64_t order = rng.UniformInt(uint64_t{150});
    l.push_back(static_cast<uint64_t>(i) * 31 + 7);
    o.push_back(order + 1000);
    c.push_back(order % 23);
    x.push_back(rng.UniformInt(uint64_t{5}));
  }
  const std::vector<std::vector<std::vector<uint64_t>>> orders = {
      {l, o, c}, {c, o, l}, {o, l, c}, {c, x, o, l}, {x, o, c}};
  for (size_t k = 0; k < orders.size(); ++k) {
    SCOPED_TRACE("order " + std::to_string(k));
    SampleView v = EmptyView(static_cast<int>(orders[k].size()));
    v.lineage = orders[k];
    v.f = RandomValues(kRows, &rng);
    ExpectMatchesOracle(v, &rng);
  }
}

TEST(YsOracleTest, EmptyAndOneRowViews) {
  Rng rng(53);
  for (int arity = 1; arity <= 4; ++arity) {
    SampleView empty = EmptyView(arity);
    ExpectMatchesOracle(empty, &rng);
    ASSERT_OK_AND_ASSIGN(const std::vector<double> y_empty,
                         ComputeAllYS(empty));
    for (double f : y_empty) EXPECT_EQ(0.0, f);

    SampleView one = EmptyView(arity);
    for (int d = 0; d < arity; ++d) one.lineage[d].push_back(uint64_t(d));
    one.f = {-1.5};
    ExpectMatchesOracle(one, &rng);
    ASSERT_OK_AND_ASSIGN(const std::vector<double> y_one, ComputeAllYS(one));
    for (double y : y_one) EXPECT_EQ(2.25, y);

    // f = 0, g = -1: the empty mask's direct product (+0.0)(-1) is -0.0;
    // every other fold starts from +0.0 and so ends at +0.0.
    SampleView zero = one;
    zero.f = {0.0};
    ASSERT_OK_AND_ASSIGN(std::vector<double> y, ComputeAllYSBilinear(
                                                    zero, {-1.0}));
    EXPECT_TRUE(std::signbit(y[0]));
    for (size_t m = 1; m < y.size(); ++m) {
      EXPECT_FALSE(std::signbit(y[m])) << "mask " << m;
    }
  }
}

TEST(YsOracleTest, ExtremeIds) {
  // 0 and UINT64_MAX are ordinary ids, not empty-slot markers.
  constexpr uint64_t kMax = std::numeric_limits<uint64_t>::max();
  Rng rng(54);
  const uint64_t domain[] = {0, kMax, 1, kMax - 1};
  SampleView v = EmptyView(2);
  for (int i = 0; i < 200; ++i) {
    v.lineage[0].push_back(domain[rng.UniformInt(uint64_t{4})]);
    v.lineage[1].push_back(domain[rng.UniformInt(uint64_t{2})]);
  }
  v.f = RandomValues(200, &rng);
  ExpectMatchesOracle(v, &rng);

  SampleView w = EmptyView(1);
  w.lineage = {{kMax, 0, kMax, 0, kMax}};
  w.f = {1.0, 2.0, 3.0, 4.0, 5.0};
  EXPECT_EQ(9.0 * 9.0 + 6.0 * 6.0, ComputeAllYS(w).ValueOrDie()[1]);
}

TEST(YsOracleTest, ArityTwentyWithFewRows) {
  Rng rng(55);
  SampleView v = EmptyView(LineageSchema::kMaxLineageArity);
  constexpr int kRows = 6;
  for (int d = 0; d < LineageSchema::kMaxLineageArity; ++d) {
    for (int i = 0; i < kRows; ++i) {
      switch (d % 4) {
        case 0: v.lineage[d].push_back(7); break;  // constant
        case 1: v.lineage[d].push_back(static_cast<uint64_t>(i)); break;
        case 2: v.lineage[d].push_back(static_cast<uint64_t>(i / 2)); break;
        default: v.lineage[d].push_back(rng.UniformInt(uint64_t{3})); break;
      }
    }
  }
  v.f = RandomValues(kRows, &rng);
  ExpectMatchesOracle(v, &rng, /*stride=*/97);
}

TEST(YsLatticeTest, GroupedTablesEqualEachGroupAlone) {
  // Groups laid out one after another, some empty: every group's tables
  // (quadratic, bilinear and the g-quadratic, from one walk) must equal
  // the tables of that group's rows alone, bit for bit. Column 0 is
  // constant within each group but not across groups, so the grouped walk
  // reuses partitions a global walk could not.
  Rng rng(56);
  for (int arity = 1; arity <= 3; ++arity) {
    SCOPED_TRACE("arity " + std::to_string(arity));
    SampleView flat = EmptyView(arity);
    std::vector<double> g;
    std::vector<int64_t> begin = {0};
    std::vector<SampleView> alone;
    std::vector<std::vector<double>> alone_g;
    for (int k = 0; k < 30; ++k) {
      SampleView group = EmptyView(arity);
      const int64_t rows = static_cast<int64_t>(rng.UniformInt(uint64_t{9}));
      for (int64_t i = 0; i < rows; ++i) {
        for (int d = 0; d < arity; ++d) {
          group.lineage[d].push_back(d == 0 ? static_cast<uint64_t>(k)
                                            : rng.UniformInt(uint64_t{4}));
        }
      }
      group.f = RandomValues(rows, &rng);
      alone_g.push_back(RandomValues(rows, &rng));
      for (int d = 0; d < arity; ++d) {
        flat.lineage[d].insert(flat.lineage[d].end(),
                               group.lineage[d].begin(),
                               group.lineage[d].end());
      }
      flat.f.insert(flat.f.end(), group.f.begin(), group.f.end());
      g.insert(g.end(), alone_g.back().begin(), alone_g.back().end());
      begin.push_back(flat.num_rows());
      alone.push_back(std::move(group));
    }
    ASSERT_OK_AND_ASSIGN(
        const std::vector<std::vector<double>> tables,
        ComputeYsLattice(flat.lineage, {flat.f.data(), g.data()},
                         flat.num_rows(), {{0, 0}, {0, 1}, {1, 1}}, begin));
    ASSERT_EQ(3u, tables.size());
    const size_t subsets = flat.schema.num_subsets();
    for (size_t k = 0; k < alone.size(); ++k) {
      SampleView g_view = alone[k];
      g_view.f = alone_g[k];
      const std::vector<double> y_ff = ComputeAllYS(alone[k]).ValueOrDie();
      ASSERT_OK_AND_ASSIGN(std::vector<double> y_fg,
                           ComputeAllYSBilinear(alone[k], alone_g[k]));
      const std::vector<double> y_gg = ComputeAllYS(g_view).ValueOrDie();
      for (size_t m = 0; m < subsets; ++m) {
        EXPECT_EQ(y_ff[m], tables[0][k * subsets + m]) << k << "/" << m;
        EXPECT_EQ(y_fg[m], tables[1][k * subsets + m]) << k << "/" << m;
        EXPECT_EQ(y_gg[m], tables[2][k * subsets + m]) << k << "/" << m;
      }
    }
  }
}

TEST(YsLatticeTest, RejectsInvalidInputs) {
  const double f[] = {1.0, 2.0};
  // More rows than 32-bit cell numbers cover: an error, checked before any
  // row is read.
  EXPECT_STATUS_CODE(
      kInvalidArgument,
      ComputeYsLattice({}, {f}, kMaxYsRows + 1, {{0, 0}}).status());
  EXPECT_STATUS_CODE(kInvalidArgument,
                     ComputeYsLattice({}, {f}, -1, {{0, 0}}).status());
  // A lineage column shorter than the view.
  EXPECT_STATUS_CODE(kInvalidArgument,
                     ComputeYsLattice({{7}}, {f}, 2, {{0, 0}}).status());
  // A term naming a missing value column.
  EXPECT_STATUS_CODE(kInvalidArgument,
                     ComputeYsLattice({{7, 8}}, {f}, 2, {{0, 1}}).status());
  // Group offsets that stop short of the rows, or descend.
  EXPECT_STATUS_CODE(kInvalidArgument,
                     ComputeYsLattice({{7, 8}}, {f}, 2, {{0, 0}}, {0, 1})
                         .status());
  EXPECT_STATUS_CODE(
      kInvalidArgument,
      ComputeYsLattice({{7, 8}}, {f}, 2, {{0, 0}}, {0, 2, 1, 2}).status());
  ASSERT_OK_AND_ASSIGN(
      const std::vector<std::vector<double>> y,
      ComputeYsLattice({{7, 8}}, {f}, 2, {{0, 0}}, {0, 1, 1, 2}));
  // Groups {row 0}, {}, {row 1}; per group: y_{} and y_{A}.
  EXPECT_EQ((std::vector<double>{1.0, 1.0, 0.0, 0.0, 4.0, 4.0}), y[0]);
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
      const double hashed = ComputeYS(v, m).ValueOrDie();
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
  const auto y = ComputeAllYS(v).ValueOrDie();
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
    EXPECT_EQ(ComputeYS(v, m).ValueOrDie(), bl) << "mask " << m;
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
  EXPECT_EQ(1.0, ComputeYS(v, 0b1).ValueOrDie());

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
