// Tests for grouped SUM estimation.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "algebra/ops.h"
#include "algebra/translate.h"
#include "est/group_by.h"
#include "est/unbiased.h"
#include "est/variance.h"
#include "est/ys.h"
#include "rel/column_batch.h"
#include "rel/operators.h"
#include "sampling/samplers.h"
#include "test_util.h"
#include "util/stats.h"

namespace gus {
namespace {

/// Base relation with columns (grp int64, v float64): 4 groups x 10 rows,
/// group k holding values k+1 each, so SUM per group = 10*(k+1).
Relation MakeGroupedTable() {
  std::vector<Row> rows;
  for (int64_t k = 0; k < 4; ++k) {
    for (int i = 0; i < 10; ++i) {
      rows.push_back(Row{Value(k), Value(static_cast<double>(k + 1))});
    }
  }
  return Relation::MakeBase(
      "R", Schema({{"grp", ValueType::kInt64}, {"v", ValueType::kFloat64}}),
      std::move(rows));
}

TEST(GroupByTest, FullSampleIsExactPerGroup) {
  Relation r = MakeGroupedTable();
  GusParams id = GusParams::Identity(LineageSchema::Make({"R"}).ValueOrDie());
  ASSERT_OK_AND_ASSIGN(auto groups,
                       GroupedSumEstimate(id, r, Col("v"), "grp"));
  ASSERT_EQ(4u, groups.size());
  for (size_t k = 0; k < groups.size(); ++k) {
    EXPECT_EQ(static_cast<int64_t>(k), groups[k].key.AsInt64());
    EXPECT_DOUBLE_EQ(10.0 * (k + 1), groups[k].estimate);
    EXPECT_NEAR(0.0, groups[k].variance, 1e-9);
    EXPECT_EQ(10, groups[k].sample_rows);
  }
}

TEST(GroupByTest, SortedByKey) {
  Relation r = MakeGroupedTable();
  GusParams id = GusParams::Identity(LineageSchema::Make({"R"}).ValueOrDie());
  ASSERT_OK_AND_ASSIGN(auto groups,
                       GroupedSumEstimate(id, r, Col("v"), "grp"));
  for (size_t k = 1; k < groups.size(); ++k) {
    EXPECT_LT(groups[k - 1].key.ToDouble(), groups[k].key.ToDouble());
  }
}

TEST(GroupByTest, UnknownKeyColumnFails) {
  Relation r = MakeGroupedTable();
  GusParams id = GusParams::Identity(LineageSchema::Make({"R"}).ValueOrDie());
  EXPECT_STATUS_CODE(
      kKeyError, GroupedSumEstimate(id, r, Col("v"), "nope").status());
}

TEST(GroupByTest, PerGroupEstimatesUnbiasedUnderBernoulli) {
  Relation r = MakeGroupedTable();
  ASSERT_OK_AND_ASSIGN(
      GusParams g, TranslateBaseSampling(SamplingSpec::Bernoulli(0.5), "R"));
  Rng rng(7);
  std::map<int64_t, MeanVar> per_group;
  for (int t = 0; t < 20000; ++t) {
    auto sample = BernoulliSample(r, 0.5, &rng).ValueOrDie();
    auto groups_r = GroupedSumEstimate(g, sample, Col("v"), "grp");
    ASSERT_TRUE(groups_r.ok());
    std::map<int64_t, double> seen;
    for (const auto& ge : groups_r.ValueOrDie()) {
      seen[ge.key.AsInt64()] = ge.estimate;
    }
    // Groups absent from the sample contribute an (implicit) estimate 0.
    for (int64_t k = 0; k < 4; ++k) {
      per_group[k].Add(seen.count(k) ? seen[k] : 0.0);
    }
  }
  for (int64_t k = 0; k < 4; ++k) {
    EXPECT_NEAR(10.0 * (k + 1), per_group[k].mean(), 0.25) << "group " << k;
  }
}

TEST(GroupByTest, PerGroupCoverage) {
  Relation r = MakeGroupedTable();
  ASSERT_OK_AND_ASSIGN(
      GusParams g, TranslateBaseSampling(SamplingSpec::Bernoulli(0.6), "R"));
  Rng rng(8);
  CoverageCounter coverage;
  for (int t = 0; t < 5000; ++t) {
    auto sample = BernoulliSample(r, 0.6, &rng).ValueOrDie();
    auto groups_r = GroupedSumEstimate(g, sample, Col("v"), "grp");
    ASSERT_TRUE(groups_r.ok());
    for (const auto& ge : groups_r.ValueOrDie()) {
      const double truth = 10.0 * (ge.key.AsInt64() + 1);
      coverage.Add(ge.interval.Contains(truth));
    }
  }
  // Small per-group samples: generous band around 95%.
  EXPECT_GT(coverage.fraction(), 0.85);
}

TEST(GroupByTest, WorksOnJoinResults) {
  // Group by the dim key of a sampled fact-dim join.
  auto data = gus::testing::MakeTinyJoin(3, 4);
  ASSERT_OK_AND_ASSIGN(
      GusParams gf, TranslateBaseSampling(SamplingSpec::Bernoulli(0.8), "F"));
  GusParams gd = GusParams::Identity(LineageSchema::Make({"D"}).ValueOrDie());
  ASSERT_OK_AND_ASSIGN(GusParams g, GusJoin(gf, gd));
  Rng rng(9);
  auto fact_sample = BernoulliSample(data.fact, 0.8, &rng).ValueOrDie();
  ASSERT_OK_AND_ASSIGN(Relation joined,
                       HashJoin(fact_sample, data.dim, "fk", "pk"));
  ASSERT_OK_AND_ASSIGN(auto groups,
                       GroupedSumEstimate(g, joined, Col("v"), "pk"));
  EXPECT_LE(groups.size(), 3u);
  for (const auto& ge : groups) {
    EXPECT_GT(ge.estimate, 0.0);
    EXPECT_GE(ge.interval.hi, ge.estimate);
  }
}

/// A fact-dim join with lineage (F, D) grouped by a fact column `g` that
/// spans several dim rows: fact rows (fk, g, v), dim rows (pk, w).
Relation MakeGroupedJoin(uint64_t seed) {
  Rng rng(seed);
  std::vector<Row> fact, dim;
  for (int64_t i = 0; i < 300; ++i) {
    const auto fk = static_cast<int64_t>(rng.UniformInt(uint64_t{25}));
    const auto g = static_cast<int64_t>(rng.UniformInt(uint64_t{12}));
    fact.push_back(Row{Value(fk), Value(g), Value(rng.Uniform(-5.0, 10.0))});
  }
  for (int64_t k = 0; k < 25; ++k) {
    dim.push_back(Row{Value(k), Value(rng.Uniform(0.0, 1.0))});
  }
  Relation f = Relation::MakeBase(
      "F",
      Schema({{"fk", ValueType::kInt64},
              {"g", ValueType::kInt64},
              {"v", ValueType::kFloat64}}),
      std::move(fact));
  Relation d = Relation::MakeBase(
      "D", Schema({{"pk", ValueType::kInt64}, {"w", ValueType::kFloat64}}),
      std::move(dim));
  return HashJoin(f, d, "fk", "pk").ValueOrDie();
}

TEST(GroupByTest, GroupedFinishMatchesTheoremOnePerGroup) {
  // One lattice walk over all groups must give each group exactly what
  // the Theorem-1 chain gives on that group's rows alone.
  const Relation joined = MakeGroupedJoin(10);
  ASSERT_OK_AND_ASSIGN(
      GusParams gf, TranslateBaseSampling(SamplingSpec::Bernoulli(0.5), "F"));
  ASSERT_OK_AND_ASSIGN(
      GusParams gd, TranslateBaseSampling(SamplingSpec::Bernoulli(0.7), "D"));
  ASSERT_OK_AND_ASSIGN(GusParams gus, GusJoin(gf, gd));
  ASSERT_OK_AND_ASSIGN(auto groups,
                       GroupedSumEstimate(gus, joined, Col("v"), "g"));
  ASSERT_OK_AND_ASSIGN(SampleView view, SampleView::FromRelation(
                                            joined, Col("v"), gus.schema()));
  ASSERT_OK_AND_ASSIGN(int g_idx, joined.schema().IndexOf("g"));
  ASSERT_EQ(12u, groups.size());
  for (const GroupEstimate& ge : groups) {
    SampleView alone;
    alone.schema = view.schema;
    alone.lineage.assign(view.lineage.size(), {});
    for (int64_t i = 0; i < joined.num_rows(); ++i) {
      if (!joined.row(i)[g_idx].KeyEquals(ge.key)) continue;
      alone.f.push_back(view.f[i]);
      for (size_t d = 0; d < view.lineage.size(); ++d) {
        alone.lineage[d].push_back(view.lineage[d][i]);
      }
    }
    ASSERT_OK_AND_ASSIGN(double estimate, PointEstimate(gus, alone));
    ASSERT_OK_AND_ASSIGN(const std::vector<double> y, ComputeAllYS(alone));
    ASSERT_OK_AND_ASSIGN(std::vector<double> y_hat,
                         UnbiasedYEstimates(gus, y));
    ASSERT_OK_AND_ASSIGN(double var, VarianceFromY(gus, y_hat));
    var = std::max(0.0, var);
    ASSERT_OK_AND_ASSIGN(ConfidenceInterval ci,
                         MakeInterval(estimate, var, 0.95, BoundKind::kNormal));
    EXPECT_EQ(alone.num_rows(), ge.sample_rows);
    EXPECT_EQ(estimate, ge.estimate);
    EXPECT_EQ(var, ge.variance);
    EXPECT_EQ(std::sqrt(var), ge.stddev);
    EXPECT_EQ(ci.lo, ge.interval.lo);
    EXPECT_EQ(ci.hi, ge.interval.hi);
  }

  // The streaming builder over the same rows, split and merged, agrees.
  ASSERT_OK_AND_ASSIGN(ColumnarRelation columnar,
                       ColumnarRelation::FromRelation(joined));
  ASSERT_OK_AND_ASSIGN(GroupedSumBuilder first,
                       GroupedSumBuilder::Make(columnar.layout(), Col("v"),
                                               "g", gus.schema()));
  ASSERT_OK_AND_ASSIGN(GroupedSumBuilder second,
                       GroupedSumBuilder::Make(columnar.layout(), Col("v"),
                                               "g", gus.schema()));
  ColumnBatch batch;
  const int64_t half = columnar.num_rows() / 2;
  columnar.EmitSlice(0, half, &batch);
  ASSERT_OK(first.Consume(batch));
  columnar.EmitSlice(half, columnar.num_rows() - half, &batch);
  ASSERT_OK(second.Consume(batch));
  ASSERT_OK(first.Merge(std::move(second)));
  ASSERT_OK_AND_ASSIGN(auto streamed, first.Finish(gus));
  ASSERT_EQ(groups.size(), streamed.size());
  for (size_t k = 0; k < groups.size(); ++k) {
    EXPECT_TRUE(groups[k].key == streamed[k].key);
    EXPECT_EQ(groups[k].estimate, streamed[k].estimate);
    EXPECT_EQ(groups[k].variance, streamed[k].variance);
    EXPECT_EQ(groups[k].interval.lo, streamed[k].interval.lo);
    EXPECT_EQ(groups[k].interval.hi, streamed[k].interval.hi);
  }
}

/// GroupedSumEstimate over one key column of type `type`, values `keys`
/// (one row each, v = 1).
std::vector<GroupEstimate> GroupsOf(ValueType type,
                                    const std::vector<Value>& keys) {
  std::vector<Row> rows;
  for (const Value& key : keys) rows.push_back(Row{key, Value(1.0)});
  const Relation rel = Relation::MakeBase(
      "R", Schema({{"k", type}, {"v", ValueType::kFloat64}}), std::move(rows));
  const GusParams id =
      GusParams::Identity(LineageSchema::Make({"R"}).ValueOrDie());
  return GroupedSumEstimate(id, rel, Col("v"), "k").ValueOrDie();
}

TEST(GroupByTest, OutputOrderOnEveryKeyShape) {
  // Distinct numeric keys: one sorted order.
  std::vector<Value> ints;
  for (int64_t i = 0; i < 500; ++i) {
    ints.push_back(Value((i * 7919) % 1000 - 500));
  }
  const auto by_int = GroupsOf(ValueType::kInt64, ints);
  ASSERT_EQ(500u, by_int.size());
  for (size_t k = 1; k < by_int.size(); ++k) {
    EXPECT_LT(by_int[k - 1].key.AsInt64(), by_int[k].key.AsInt64());
  }
  const auto by_float =
      GroupsOf(ValueType::kFloat64, {Value(2.5), Value(-0.25), Value(-7.0),
                                     Value(1e300), Value(0.0), Value(-1e-300)});
  const std::vector<double> float_order = {-7.0, -0.25, -1e-300, 0.0, 2.5,
                                           1e300};
  ASSERT_EQ(float_order.size(), by_float.size());
  for (size_t k = 0; k < float_order.size(); ++k) {
    EXPECT_EQ(float_order[k], by_float[k].key.AsFloat64());
  }
  // Strings order by content.
  const auto by_string = GroupsOf(
      ValueType::kString, {Value("pear"), Value("apple"), Value("fig")});
  ASSERT_EQ(3u, by_string.size());
  EXPECT_EQ("apple", by_string[0].key.AsString());
  EXPECT_EQ("fig", by_string[1].key.AsString());
  EXPECT_EQ("pear", by_string[2].key.AsString());
  // int64 keys beyond 2^53 that are equal as doubles tie; both groups
  // survive, adjacent, between their neighbours.
  const int64_t big = int64_t{1} << 53;
  const auto by_big = GroupsOf(
      ValueType::kInt64, {Value(big + 1), Value(int64_t{3}), Value(big),
                          Value(big + 4)});
  ASSERT_EQ(4u, by_big.size());
  EXPECT_EQ(3, by_big[0].key.AsInt64());
  EXPECT_EQ(big + 4, by_big[3].key.AsInt64());
  EXPECT_NE(by_big[1].key.AsInt64(), by_big[2].key.AsInt64());
  EXPECT_EQ(big, by_big[1].key.AsInt64() & ~int64_t{1});
  EXPECT_EQ(big, by_big[2].key.AsInt64() & ~int64_t{1});
}

TEST(GroupByTest, TiedKeysKeepTheirOrder) {
  // int64 keys beyond 2^53 that are equal as doubles tie under the output
  // order, and ties fall where std::sort over the group index leaves them.
  // With 40 groups std::sort is past its insertion-sort range, so that is
  // not simply index order; the pinned order is std::sort's.
  const int64_t big = int64_t{1} << 53;
  std::vector<Value> keys;
  for (int64_t j = 0; j < 40; ++j) keys.push_back(Value(big + (j * 7) % 40));
  const auto groups = GroupsOf(ValueType::kInt64, keys);
  const std::vector<int64_t> want = {
      1,  0,  2,  5,  4,  3,  6,  7,  8,  9,  10, 13, 12, 11,
      14, 16, 15, 17, 18, 21, 20, 19, 22, 24, 25, 23, 26, 28,
      29, 27, 30, 31, 32, 33, 34, 35, 37, 36, 38, 39};
  ASSERT_EQ(want.size(), groups.size());
  for (size_t k = 0; k < want.size(); ++k) {
    EXPECT_EQ(big + want[k], groups[k].key.AsInt64()) << "position " << k;
  }
}

}  // namespace
}  // namespace gus
