// Row vs columnar engine parity: for identical (plan, catalog, seed, mode)
// the two engines must produce identical rows and lineage — in exact mode
// AND in sampled mode, because both draw through the shared index-selection
// core in the same order. Covers every plan shape of executor_test plus the
// integration workloads (Query 1, Example 4) and the sqlish surface.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "data/tpch_gen.h"
#include "data/workload.h"
#include "dist/coordinator.h"
#include "est/sbox.h"
#include "est/streaming.h"
#include "plan/columnar_executor.h"
#include "plan/executor.h"
#include "plan/soa_transform.h"
#include "rel/column_batch.h"
#include "sqlish/planner.h"
#include "test_util.h"

namespace gus {
namespace {

using ::gus::testing::MakeTinyJoin;
using ::gus::testing::TinyJoinData;

void ExpectIdentical(const Relation& row_result, const Relation& col_result) {
  ASSERT_TRUE(row_result.schema() == col_result.schema());
  ASSERT_EQ(row_result.lineage_schema(), col_result.lineage_schema());
  ASSERT_EQ(row_result.num_rows(), col_result.num_rows());
  for (int64_t i = 0; i < row_result.num_rows(); ++i) {
    const Row& a = row_result.row(i);
    const Row& b = col_result.row(i);
    ASSERT_EQ(a.size(), b.size()) << "row " << i;
    for (size_t c = 0; c < a.size(); ++c) {
      EXPECT_EQ(a[c].type(), b[c].type()) << "row " << i << " col " << c;
      EXPECT_TRUE(a[c] == b[c])
          << "row " << i << " col " << c << ": " << a[c].ToString() << " vs "
          << b[c].ToString();
    }
    EXPECT_EQ(row_result.lineage(i), col_result.lineage(i)) << "row " << i;
  }
}

void ExpectEnginesAgree(const PlanPtr& plan, const Catalog& catalog,
                        uint64_t seed, ExecMode mode) {
  Rng row_rng(seed);
  auto row_result = ExecutePlan(plan, catalog, &row_rng, mode);
  Rng col_rng(seed);
  auto col_result = ExecutePlan(plan, catalog, &col_rng, mode,
                                ExecEngine::kColumnar);
  ASSERT_EQ(row_result.ok(), col_result.ok())
      << row_result.status().ToString() << " vs "
      << col_result.status().ToString();
  if (!row_result.ok()) {
    EXPECT_EQ(row_result.status().code(), col_result.status().code());
    return;
  }
  ExpectIdentical(*row_result, *col_result);
}

void ExpectEnginesAgreeBothModes(const PlanPtr& plan, const Catalog& catalog,
                                 uint64_t seed) {
  {
    SCOPED_TRACE("exact");
    ExpectEnginesAgree(plan, catalog, seed, ExecMode::kExact);
  }
  {
    SCOPED_TRACE("sampled");
    ExpectEnginesAgree(plan, catalog, seed, ExecMode::kSampled);
  }
}

TEST(EngineParityTest, Scan) {
  Catalog catalog = MakeTinyJoin(5, 3).MakeCatalog();
  ExpectEnginesAgreeBothModes(PlanNode::Scan("F"), catalog, 1);
}

TEST(EngineParityTest, MissingRelation) {
  Catalog catalog;
  ExpectEnginesAgreeBothModes(PlanNode::Scan("nope"), catalog, 1);
}

TEST(EngineParityTest, BernoulliSample) {
  Catalog catalog = MakeTinyJoin(10, 10).MakeCatalog();
  ExpectEnginesAgreeBothModes(
      PlanNode::Sample(SamplingSpec::Bernoulli(0.3), PlanNode::Scan("F")),
      catalog, 2);
}

TEST(EngineParityTest, WorSample) {
  Catalog catalog = MakeTinyJoin(10, 10).MakeCatalog();
  ExpectEnginesAgreeBothModes(
      PlanNode::Sample(SamplingSpec::WithoutReplacement(37, 100),
                       PlanNode::Scan("F")),
      catalog, 3);
}

TEST(EngineParityTest, WorPopulationMismatchAgrees) {
  Catalog catalog = MakeTinyJoin(10, 10).MakeCatalog();
  PlanPtr plan = PlanNode::Sample(SamplingSpec::WithoutReplacement(37, 999),
                                  PlanNode::Scan("F"));
  ExpectEnginesAgree(plan, catalog, 3, ExecMode::kSampled);
}

TEST(EngineParityTest, WrDistinctSample) {
  Catalog catalog = MakeTinyJoin(10, 10).MakeCatalog();
  ExpectEnginesAgreeBothModes(
      PlanNode::Sample(SamplingSpec::WithReplacementDistinct(40, 100),
                       PlanNode::Scan("F")),
      catalog, 4);
}

TEST(EngineParityTest, BlockBernoulliSample) {
  Catalog catalog = MakeTinyJoin(16, 1).MakeCatalog();
  ExpectEnginesAgreeBothModes(
      PlanNode::Sample(SamplingSpec::BlockBernoulli(0.5, 4),
                       PlanNode::Scan("D")),
      catalog, 5);
}

TEST(EngineParityTest, LineageBernoulliSample) {
  Catalog catalog = MakeTinyJoin(10, 10).MakeCatalog();
  ExpectEnginesAgreeBothModes(
      PlanNode::Sample(SamplingSpec::LineageBernoulli("F", 0.4, 77),
                       PlanNode::Scan("F")),
      catalog, 6);
}

TEST(EngineParityTest, Select) {
  Catalog catalog = MakeTinyJoin(4, 2).MakeCatalog();
  ExpectEnginesAgreeBothModes(
      PlanNode::SelectNode(Ge(Col("pk"), Lit(Value(int64_t{2}))),
                           PlanNode::Scan("D")),
      catalog, 7);
}

TEST(EngineParityTest, Join) {
  Catalog catalog = MakeTinyJoin(5, 3).MakeCatalog();
  ExpectEnginesAgreeBothModes(
      PlanNode::Join(PlanNode::Scan("F"), PlanNode::Scan("D"), "fk", "pk"),
      catalog, 8);
}

TEST(EngineParityTest, JoinOfSamples) {
  Catalog catalog = MakeTinyJoin(8, 6).MakeCatalog();
  PlanPtr plan = PlanNode::Join(
      PlanNode::Sample(SamplingSpec::Bernoulli(0.6), PlanNode::Scan("F")),
      PlanNode::Sample(SamplingSpec::WithoutReplacement(5, 8),
                       PlanNode::Scan("D")),
      "fk", "pk");
  ExpectEnginesAgreeBothModes(plan, catalog, 9);
}

TEST(EngineParityTest, SelectOverJoin) {
  Catalog catalog = MakeTinyJoin(6, 4).MakeCatalog();
  PlanPtr join =
      PlanNode::Join(PlanNode::Scan("F"), PlanNode::Scan("D"), "fk", "pk");
  ExpectEnginesAgreeBothModes(
      PlanNode::SelectNode(Gt(Mul(Col("v"), Col("w")), Lit(20.0)), join),
      catalog, 10);
}

TEST(EngineParityTest, Product) {
  Catalog catalog = MakeTinyJoin(3, 2).MakeCatalog();
  ExpectEnginesAgreeBothModes(
      PlanNode::Product(PlanNode::Scan("F"), PlanNode::Scan("D")), catalog,
      11);
}

TEST(EngineParityTest, UnionOfSamples) {
  Catalog catalog = MakeTinyJoin(12, 1).MakeCatalog();
  PlanPtr scan = PlanNode::Scan("D");
  PlanPtr plan = PlanNode::Union(
      PlanNode::Sample(SamplingSpec::Bernoulli(0.5), scan),
      PlanNode::Sample(SamplingSpec::Bernoulli(0.5), scan));
  ExpectEnginesAgreeBothModes(plan, catalog, 12);
}

TEST(EngineParityTest, ExactUnionRightBranchErrorSurfaces) {
  // Exact mode only keeps the left union branch's rows, but the right
  // branch still runs, so its errors surface like the row engine's (which
  // executes both). Static error: unknown relation.
  Catalog catalog = MakeTinyJoin(4, 1).MakeCatalog();
  PlanPtr plan =
      PlanNode::Union(PlanNode::Scan("D"), PlanNode::Scan("nope"));
  ExpectEnginesAgree(plan, catalog, 18, ExecMode::kExact);
  // Runtime (data-dependent) error: division by zero in the right
  // branch's predicate — pk takes the value 0 in row 0.
  PlanPtr runtime_err = PlanNode::Union(
      PlanNode::Scan("D"),
      PlanNode::SelectNode(Gt(Div(Lit(1.0), Col("pk")), Lit(0.0)),
                           PlanNode::Scan("D")));
  ExpectEnginesAgree(runtime_err, catalog, 18, ExecMode::kExact);
}

TEST(EngineParityTest, ShortCircuitGuardPredicate) {
  // `fk <> 0 AND v/fk > small` over rows where fk == 0: the guard must
  // short-circuit at row level in both engines (no division-by-zero).
  Catalog catalog = MakeTinyJoin(5, 2).MakeCatalog();
  PlanPtr plan = PlanNode::SelectNode(
      And(Ne(Col("fk"), Lit(Value(int64_t{0}))),
          Gt(Div(Col("v"), Col("fk")), Lit(0.4))),
      PlanNode::Scan("F"));
  ExpectEnginesAgreeBothModes(plan, catalog, 19);
  Rng rng(19);
  ASSERT_OK_AND_ASSIGN(Relation out,
                       ExecutePlan(plan, catalog, &rng, ExecMode::kExact,
                                   ExecEngine::kColumnar));
  EXPECT_GT(out.num_rows(), 0);  // the guarded predicate really ran
}

TEST(EngineParityTest, TwoSamplersInOneChain) {
  // Two Rng-consuming samplers stacked: the breaker discipline must
  // reproduce the row engine's draw order exactly.
  Catalog catalog = MakeTinyJoin(10, 10).MakeCatalog();
  PlanPtr plan = PlanNode::Sample(
      SamplingSpec::Bernoulli(0.7),
      PlanNode::Sample(SamplingSpec::Bernoulli(0.5), PlanNode::Scan("F")));
  ExpectEnginesAgreeBothModes(plan, catalog, 13);
}

TEST(EngineParityTest, Query1OverTpch) {
  TpchConfig config;
  config.num_orders = 300;
  config.num_customers = 40;
  config.num_parts = 30;
  TpchData data = GenerateTpch(config);
  Catalog catalog = data.MakeCatalog();
  Query1Params params;
  params.lineitem_p = 0.4;
  params.orders_n = 120;
  params.orders_population = 300;
  Workload q1 = MakeQuery1(params);
  ExpectEnginesAgreeBothModes(q1.plan, catalog, 14);
}

TEST(EngineParityTest, Example4OverTpch) {
  TpchConfig config;
  config.num_orders = 200;
  config.num_customers = 30;
  config.num_parts = 25;
  TpchData data = GenerateTpch(config);
  Catalog catalog = data.MakeCatalog();
  Example4Params params;
  params.lineitem_p = 0.5;
  params.orders_n = 100;
  params.orders_population = 200;
  params.part_p = 0.5;
  Workload e4 = MakeExample4(params);
  ExpectEnginesAgreeBothModes(e4.plan, catalog, 15);
}

TEST(EngineParityTest, StringKeyJoin) {
  // Dictionary-coded string join keys across two relations (distinct
  // dictionaries) must behave exactly like row-engine string equality.
  std::vector<Row> facts, dims;
  const char* keys[] = {"ab", "cd", "ef", "gh"};
  for (int i = 0; i < 12; ++i) {
    facts.push_back(Row{Value(keys[i % 4]), Value(1.5 * i)});
  }
  for (int i = 0; i < 3; ++i) {
    dims.push_back(Row{Value(keys[i]), Value(int64_t{100 + i})});
  }
  Catalog catalog;
  catalog.emplace("SF", Relation::MakeBase(
                            "SF",
                            Schema({{"sk", ValueType::kString},
                                    {"v", ValueType::kFloat64}}),
                            std::move(facts)));
  catalog.emplace("SD", Relation::MakeBase(
                            "SD",
                            Schema({{"dk", ValueType::kString},
                                    {"w", ValueType::kInt64}}),
                            std::move(dims)));
  ExpectEnginesAgreeBothModes(
      PlanNode::Join(PlanNode::Scan("SF"), PlanNode::Scan("SD"), "sk", "dk"),
      catalog, 16);
}

TEST(EngineParityTest, MixedNumericKeyJoin) {
  // int64 fact keys against float64 dim keys: KeyEquals-based joins match
  // them, identically in both engines.
  std::vector<Row> facts, dims;
  for (int i = 0; i < 10; ++i) {
    facts.push_back(Row{Value(int64_t{i % 4}), Value(0.5 * i)});
  }
  for (int i = 0; i < 4; ++i) {
    dims.push_back(Row{Value(static_cast<double>(i)), Value(int64_t{i})});
  }
  Catalog catalog;
  catalog.emplace("MF", Relation::MakeBase(
                            "MF",
                            Schema({{"mk", ValueType::kInt64},
                                    {"v", ValueType::kFloat64}}),
                            std::move(facts)));
  catalog.emplace("MD", Relation::MakeBase(
                            "MD",
                            Schema({{"dk", ValueType::kFloat64},
                                    {"w", ValueType::kInt64}}),
                            std::move(dims)));
  PlanPtr plan =
      PlanNode::Join(PlanNode::Scan("MF"), PlanNode::Scan("MD"), "mk", "dk");
  // The join must actually match rows (10 fact rows each hit one dim row).
  Rng rng(17);
  ASSERT_OK_AND_ASSIGN(Relation joined, ExecutePlan(plan, catalog, &rng));
  EXPECT_EQ(10, joined.num_rows());
  ExpectEnginesAgreeBothModes(plan, catalog, 17);
}

// -- Morsel engine: thread-count parity ------------------------------------
//
// The morsel-parallel engine draws a *different* (equally valid) sample
// than the serial engines, but its own results must be bit-identical across
// worker counts: the morsel split, per-morsel Rng streams, and merge order
// are all independent of num_threads.

ExecOptions MorselWithThreads(int num_threads) {
  ExecOptions options;
  options.engine = ExecEngine::kMorselParallel;
  options.num_threads = num_threads;
  options.morsel_rows = 32;
  return options;
}

void ExpectMorselThreadParity(const PlanPtr& plan, const Catalog& catalog,
                              uint64_t seed, ExecMode mode) {
  Rng rng1(seed);
  auto one = ExecutePlan(plan, catalog, &rng1, mode, MorselWithThreads(1));
  Rng rng4(seed);
  auto four = ExecutePlan(plan, catalog, &rng4, mode, MorselWithThreads(4));
  ASSERT_EQ(one.ok(), four.ok())
      << one.status().ToString() << " vs " << four.status().ToString();
  if (!one.ok()) {
    EXPECT_EQ(one.status().code(), four.status().code());
    return;
  }
  ExpectIdentical(*one, *four);
}

TEST(EngineParityTest, MorselThreadParityBothModes) {
  TpchConfig config;
  config.num_orders = 250;
  config.num_customers = 30;
  config.num_parts = 25;
  TpchData data = GenerateTpch(config);
  Catalog catalog = data.MakeCatalog();
  Query1Params params;
  params.lineitem_p = 0.4;
  params.orders_n = 100;
  params.orders_population = 250;
  Workload q1 = MakeQuery1(params);
  {
    SCOPED_TRACE("exact");
    ExpectMorselThreadParity(q1.plan, catalog, 23, ExecMode::kExact);
  }
  {
    SCOPED_TRACE("sampled");
    ExpectMorselThreadParity(q1.plan, catalog, 23, ExecMode::kSampled);
  }
}

TEST(EngineParityTest, SqlishMorselThreadParity) {
  TpchConfig config;
  config.num_orders = 250;
  config.num_customers = 30;
  config.num_parts = 25;
  TpchData data = GenerateTpch(config);
  Catalog catalog = data.MakeCatalog();
  // Ungrouped and grouped (hash-table merge) surfaces, threads 1 vs 4.
  for (const char* sql :
       {"SELECT SUM(l_discount * o_totalprice), COUNT(*) "
        "FROM l TABLESAMPLE (40 PERCENT), o "
        "WHERE l_orderkey = o_orderkey",
        "SELECT SUM(l_quantity) "
        "FROM l TABLESAMPLE (50 PERCENT), o "
        "WHERE l_orderkey = o_orderkey GROUP BY o_custkey"}) {
    SCOPED_TRACE(sql);
    ASSERT_OK_AND_ASSIGN(
        sqlish::ApproxResult one,
        sqlish::RunApproxQuery(sql, catalog, 31, {}, MorselWithThreads(1)));
    ASSERT_OK_AND_ASSIGN(
        sqlish::ApproxResult four,
        sqlish::RunApproxQuery(sql, catalog, 31, {}, MorselWithThreads(4)));
    ASSERT_EQ(one.values.size(), four.values.size());
    EXPECT_GT(one.values.size(), 0u);
    EXPECT_EQ(one.sample_rows, four.sample_rows);
    for (size_t i = 0; i < one.values.size(); ++i) {
      EXPECT_EQ(one.values[i].label, four.values[i].label);
      EXPECT_EQ(one.values[i].group, four.values[i].group);
      EXPECT_EQ(one.values[i].value, four.values[i].value);
      EXPECT_EQ(one.values[i].stddev, four.values[i].stddev);
      EXPECT_EQ(one.values[i].lo, four.values[i].lo);
      EXPECT_EQ(one.values[i].hi, four.values[i].hi);
    }
  }
}

// -- Shard-count parity ------------------------------------------------------
//
// A shard is a contiguous range of the morsel engine's global unit
// sequence (RunShardSbox, src/dist/), so ShardedSboxEstimate is
// bit-identical across shard counts AND to kMorselParallel at the same
// (seed, morsel_rows). Against the *serial* engines the morsel engine
// draws a different (equally valid) sample — except in exact mode and for
// Rng-free (lineage-seeded) sampling, where the rows coincide and only
// floating-point summation association can differ.

void ExpectReportsBitIdentical(const SboxReport& x, const SboxReport& y) {
  EXPECT_EQ(x.estimate, y.estimate);
  EXPECT_EQ(x.variance, y.variance);
  EXPECT_EQ(x.stddev, y.stddev);
  EXPECT_EQ(x.interval.lo, y.interval.lo);
  EXPECT_EQ(x.interval.hi, y.interval.hi);
  EXPECT_EQ(x.sample_rows, y.sample_rows);
  EXPECT_EQ(x.variance_rows, y.variance_rows);
  EXPECT_EQ(x.y_hat, y.y_hat);
}

TEST(EngineParityTest, ShardedShardCountParityBothModes) {
  TpchConfig config;
  config.num_orders = 250;
  config.num_customers = 30;
  config.num_parts = 25;
  TpchData data = GenerateTpch(config);
  Catalog catalog = data.MakeCatalog();
  Query1Params params;
  params.lineitem_p = 0.4;
  params.orders_n = 100;
  params.orders_population = 250;
  Workload q1 = MakeQuery1(params);
  ASSERT_OK_AND_ASSIGN(SoaResult soa, SoaTransform(q1.plan));
  ColumnarCatalog columnar(&catalog);
  for (const ExecMode mode : {ExecMode::kExact, ExecMode::kSampled}) {
    SCOPED_TRACE(mode == ExecMode::kExact ? "exact" : "sampled");
    Rng morsel_rng(43);
    ASSERT_OK_AND_ASSIGN(
        SboxReport morsel,
        EstimatePlanParallel(q1.plan, &columnar, &morsel_rng, q1.aggregate,
                             soa.top, {}, mode, MorselWithThreads(4)));
    for (const int num_shards : {1, 3, 8}) {
      SCOPED_TRACE(num_shards);
      ASSERT_OK_AND_ASSIGN(
          SboxReport sharded,
          ShardedSboxEstimate(q1.plan, catalog, 43, mode,
                              MorselWithThreads(2), num_shards, q1.aggregate,
                              soa.top, {}));
      ExpectReportsBitIdentical(morsel, sharded);
    }
  }
}

TEST(EngineParityTest, MorselExactModeMatchesSerialRows) {
  // Exact mode consumes no randomness, so the morsel relation must equal
  // the serial engines' relation row for row (same rows, same order) for
  // every thread count.
  Catalog catalog = MakeTinyJoin(40, 3).MakeCatalog();
  PlanPtr plan = PlanNode::Join(
      PlanNode::Sample(SamplingSpec::Bernoulli(0.5), PlanNode::Scan("F")),
      PlanNode::Scan("D"), "fk", "pk");
  Rng serial_rng(47);
  ASSERT_OK_AND_ASSIGN(
      Relation serial,
      ExecutePlan(plan, catalog, &serial_rng, ExecMode::kExact,
                  ExecEngine::kColumnar));
  for (const int num_threads : {1, 3, 8}) {
    SCOPED_TRACE(num_threads);
    Rng rng(47);
    ASSERT_OK_AND_ASSIGN(Relation morsel,
                         ExecutePlan(plan, catalog, &rng, ExecMode::kExact,
                                     MorselWithThreads(num_threads)));
    ExpectIdentical(serial, morsel);
  }
}

TEST(EngineParityTest, MorselLineageBernoulliMatchesSerialRows) {
  // Lineage-seeded sampling is Rng-free: the morsel draw IS the serial
  // draw, in sampled mode, for every thread count.
  Catalog catalog = MakeTinyJoin(40, 3).MakeCatalog();
  PlanPtr plan = PlanNode::Join(
      PlanNode::Sample(SamplingSpec::LineageBernoulli("F", 0.4, 77),
                       PlanNode::Scan("F")),
      PlanNode::Scan("D"), "fk", "pk");
  Rng serial_rng(48);
  ASSERT_OK_AND_ASSIGN(
      Relation serial,
      ExecutePlan(plan, catalog, &serial_rng, ExecMode::kSampled,
                  ExecEngine::kColumnar));
  EXPECT_GT(serial.num_rows(), 0);
  for (const int num_threads : {1, 3, 8}) {
    SCOPED_TRACE(num_threads);
    Rng rng(48);
    ASSERT_OK_AND_ASSIGN(Relation morsel,
                         ExecutePlan(plan, catalog, &rng, ExecMode::kSampled,
                                     MorselWithThreads(num_threads)));
    ExpectIdentical(serial, morsel);
  }
}

TEST(EngineParityTest, SqlishMorselMatchesSerialWithinCi) {
  TpchConfig config;
  config.num_orders = 250;
  config.num_customers = 30;
  config.num_parts = 25;
  TpchData data = GenerateTpch(config);
  Catalog catalog = data.MakeCatalog();
  const char* sql =
      "SELECT SUM(l_discount * o_totalprice), COUNT(*) "
      "FROM l TABLESAMPLE (40 PERCENT), o "
      "WHERE l_orderkey = o_orderkey";
  // The serial engine draws a different sample; the morsel estimate must
  // still land within CI distance of it (same design, same data) while
  // staying bit-identical across thread counts.
  ASSERT_OK_AND_ASSIGN(sqlish::ApproxResult serial,
                       sqlish::RunApproxQuery(sql, catalog, 61));
  sqlish::ApproxResult first;
  for (const int num_threads : {1, 3, 8}) {
    SCOPED_TRACE(num_threads);
    ASSERT_OK_AND_ASSIGN(
        sqlish::ApproxResult morsel,
        sqlish::RunApproxQuery(sql, catalog, 61, {},
                               MorselWithThreads(num_threads)));
    ASSERT_EQ(serial.values.size(), morsel.values.size());
    for (size_t i = 0; i < serial.values.size(); ++i) {
      // Within 6 stddev of the serial estimate (different draw, same
      // design — the diff is statistical, not a bug signature).
      const double slack =
          6.0 * std::max(serial.values[i].stddev, morsel.values[i].stddev);
      EXPECT_NEAR(serial.values[i].value, morsel.values[i].value, slack);
    }
    if (num_threads == 1) {
      first = morsel;
      continue;
    }
    ASSERT_EQ(first.values.size(), morsel.values.size());
    EXPECT_EQ(first.sample_rows, morsel.sample_rows);
    for (size_t i = 0; i < first.values.size(); ++i) {
      EXPECT_EQ(first.values[i].value, morsel.values[i].value);
      EXPECT_EQ(first.values[i].stddev, morsel.values[i].stddev);
      EXPECT_EQ(first.values[i].lo, morsel.values[i].lo);
      EXPECT_EQ(first.values[i].hi, morsel.values[i].hi);
    }
  }
}

// -- Full pivot coverage: WOR, block-sampling, and union plans vs the -------
// -- serial row engine, across thread AND shard counts ----------------------
//
// These plans' Rng consumers are all seed-decoupled (fixed-size / block /
// lineage-seeded), so the morsel engine and the shard workers draw the
// *identical* sample as the serial row engine — and with the TinyJoin
// dyadic values the estimator sums are exact, so estimates and CIs compare
// bit for bit at threads {1,2,4,8} and ShardedSboxEstimate shards {1,2,4}.

/// Canonical multiset encoding (union plans permute rows by morsel).
std::vector<std::string> CanonicalRelationRows(const Relation& rel) {
  std::vector<std::string> rows;
  rows.reserve(rel.num_rows());
  for (int64_t i = 0; i < rel.num_rows(); ++i) {
    std::ostringstream line;
    for (const Value& v : rel.row(i)) line << v.ToString() << "|";
    for (uint64_t id : rel.lineage(i)) line << id << ",";
    rows.push_back(line.str());
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

/// \brief The acceptance matrix for one plan: serial-row reference report
/// and rows vs kMorselParallel (threads 1/2/4/8), and report vs
/// ShardedSboxEstimate (shards 1/2/4), everything bit-identical (rows as a
/// multiset when `rows_as_multiset` — union output interleaves by morsel).
void ExpectFullEngineMatrixParity(const PlanPtr& plan, const Catalog& catalog,
                                  uint64_t seed, const ExprPtr& f,
                                  bool rows_as_multiset) {
  ASSERT_OK_AND_ASSIGN(SoaResult soa, SoaTransform(plan));
  SboxOptions options;
  options.subsample = SubsampleConfig{};
  options.subsample->target_rows = 40;  // engage the Section 7 path

  // Serial row engine reference: materialize, then estimate.
  Rng row_rng(seed);
  ASSERT_OK_AND_ASSIGN(Relation row_result,
                       ExecutePlan(plan, catalog, &row_rng,
                                   ExecMode::kSampled));
  EXPECT_GT(row_result.num_rows(), 0);
  ASSERT_OK_AND_ASSIGN(
      SampleView row_view,
      SampleView::FromRelation(row_result, f, soa.top.schema()));
  ASSERT_OK_AND_ASSIGN(SboxReport reference,
                       SboxEstimate(soa.top, row_view, options));

  ExecOptions exec;
  exec.engine = ExecEngine::kMorselParallel;
  exec.morsel_rows = 16;
  ColumnarCatalog columnar(&catalog);
  for (const int threads : {1, 2, 4, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    exec.num_threads = threads;
    Rng rel_rng(seed);
    ASSERT_OK_AND_ASSIGN(Relation morsel_rel,
                         ExecutePlan(plan, catalog, &rel_rng,
                                     ExecMode::kSampled, exec));
    if (rows_as_multiset) {
      EXPECT_EQ(CanonicalRelationRows(row_result),
                CanonicalRelationRows(morsel_rel));
    } else {
      ExpectIdentical(row_result, morsel_rel);
    }
    Rng est_rng(seed);
    ASSERT_OK_AND_ASSIGN(
        SboxReport morsel_report,
        EstimatePlanParallel(plan, &columnar, &est_rng, f, soa.top, options,
                             ExecMode::kSampled, exec));
    ExpectReportsBitIdentical(reference, morsel_report);
  }
  for (const int shards : {1, 2, 4}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    ExecOptions sharded = exec;
    sharded.num_threads = 2;
    ASSERT_OK_AND_ASSIGN(
        SboxReport sharded_report,
        ShardedSboxEstimate(plan, catalog, seed, ExecMode::kSampled, sharded,
                            shards, f, soa.top, options));
    ExpectReportsBitIdentical(reference, sharded_report);
  }
}

TEST(EngineParityTest, WorPivotFullMatrixBitParity) {
  Catalog catalog = MakeTinyJoin(40, 3).MakeCatalog();  // F: 120 rows
  PlanPtr plan = PlanNode::Join(
      PlanNode::Sample(SamplingSpec::WithoutReplacement(50, 120),
                       PlanNode::Scan("F")),
      PlanNode::Scan("D"), "fk", "pk");
  ExpectFullEngineMatrixParity(plan, catalog, 201, Mul(Col("v"), Col("w")),
                               /*rows_as_multiset=*/false);
}

TEST(EngineParityTest, BlockSamplingFullMatrixBitParity) {
  Catalog catalog = MakeTinyJoin(120, 1).MakeCatalog();  // D: 120 rows
  PlanPtr plan = PlanNode::SelectNode(
      Gt(Col("w"), Lit(5.0)),
      PlanNode::Sample(SamplingSpec::BlockBernoulli(0.5, 12),
                       PlanNode::Scan("D")));
  ExpectFullEngineMatrixParity(plan, catalog, 202, Col("w"),
                               /*rows_as_multiset=*/false);
}

TEST(EngineParityTest, UnionFullMatrixBitParity) {
  Catalog catalog = MakeTinyJoin(40, 3).MakeCatalog();  // F: 120 rows
  PlanPtr scan = PlanNode::Scan("F");
  PlanPtr plan = PlanNode::Union(
      PlanNode::Sample(SamplingSpec::LineageBernoulli("F", 0.4, 7), scan),
      PlanNode::Sample(SamplingSpec::WithoutReplacement(30, 120), scan));
  ExpectFullEngineMatrixParity(plan, catalog, 203, Col("v"),
                               /*rows_as_multiset=*/true);
}

TEST(EngineParityTest, FrontDoorSboxSinkParityAcrossEngines) {
  // One SBox sink factory through ExecutePlanToSink on every engine of a
  // WOR-pivot plan: the serial engines agree with each other, the morsel
  // engine with itself across threads, every engine sees the same sample,
  // and kServed (a sqlish-only cache front end) is rejected.
  Catalog catalog = MakeTinyJoin(40, 3).MakeCatalog();  // F: 120 rows
  PlanPtr plan = PlanNode::Join(
      PlanNode::Sample(SamplingSpec::WithoutReplacement(50, 120),
                       PlanNode::Scan("F")),
      PlanNode::Scan("D"), "fk", "pk");
  ASSERT_OK_AND_ASSIGN(SoaResult soa, SoaTransform(plan));
  const ExprPtr f = Mul(Col("v"), Col("w"));
  SboxOptions options;
  options.subsample = SubsampleConfig{};
  options.subsample->target_rows = 40;  // engage the Section 7 path
  ColumnarCatalog columnar(&catalog);
  const auto run = [&](const ExecOptions& exec) -> Result<SboxReport> {
    Rng rng(211);
    std::unique_ptr<MergeableBatchSink> sink;
    GUS_RETURN_NOT_OK(ExecutePlanToSink(
        plan, &columnar, &rng, ExecMode::kSampled, exec,
        [&](const BatchLayout& layout)
            -> Result<std::unique_ptr<MergeableBatchSink>> {
          GUS_ASSIGN_OR_RETURN(
              StreamingSboxEstimator est,
              StreamingSboxEstimator::Make(layout, f, soa.top, options));
          return std::unique_ptr<MergeableBatchSink>(
              new StreamingSboxEstimator(std::move(est)));
        },
        &sink));
    return static_cast<StreamingSboxEstimator*>(sink.get())->Finish();
  };

  ExecOptions exec;
  exec.morsel_rows = 16;
  exec.engine = ExecEngine::kRowAtATime;
  ASSERT_OK_AND_ASSIGN(SboxReport row, run(exec));
  EXPECT_GT(row.sample_rows, 0);
  exec.engine = ExecEngine::kColumnar;
  ASSERT_OK_AND_ASSIGN(SboxReport col, run(exec));
  ExpectReportsBitIdentical(row, col);

  exec.engine = ExecEngine::kMorselParallel;
  exec.num_threads = 1;
  ASSERT_OK_AND_ASSIGN(SboxReport morsel, run(exec));
  EXPECT_EQ(row.sample_rows, morsel.sample_rows);
  exec.num_threads = 4;
  {
    SCOPED_TRACE("threads=4");
    ASSERT_OK_AND_ASSIGN(SboxReport threaded, run(exec));
    ExpectReportsBitIdentical(morsel, threaded);
  }

  exec.engine = ExecEngine::kServed;
  EXPECT_STATUS_CODE(kInvalidArgument, run(exec).status());
}

TEST(EngineParityTest, SqlishApproxQueryAgrees) {
  TpchConfig config;
  config.num_orders = 300;
  config.num_customers = 40;
  config.num_parts = 30;
  TpchData data = GenerateTpch(config);
  Catalog catalog = data.MakeCatalog();
  const std::string sql =
      "SELECT SUM(l_discount * o_totalprice), COUNT(*), AVG(l_quantity) "
      "FROM l TABLESAMPLE (40 PERCENT), o TABLESAMPLE (150 ROWS) "
      "WHERE l_orderkey = o_orderkey";
  ASSERT_OK_AND_ASSIGN(sqlish::ApproxResult row_result,
                       sqlish::RunApproxQuery(sql, catalog, 99));
  ASSERT_OK_AND_ASSIGN(
      sqlish::ApproxResult col_result,
      sqlish::RunApproxQuery(sql, catalog, 99, {}, ExecEngine::kColumnar));
  ASSERT_EQ(row_result.values.size(), col_result.values.size());
  EXPECT_EQ(row_result.sample_rows, col_result.sample_rows);
  for (size_t i = 0; i < row_result.values.size(); ++i) {
    EXPECT_EQ(row_result.values[i].label, col_result.values[i].label);
    EXPECT_DOUBLE_EQ(row_result.values[i].value, col_result.values[i].value);
    EXPECT_DOUBLE_EQ(row_result.values[i].stddev,
                     col_result.values[i].stddev);
    EXPECT_DOUBLE_EQ(row_result.values[i].lo, col_result.values[i].lo);
    EXPECT_DOUBLE_EQ(row_result.values[i].hi, col_result.values[i].hi);
  }
}

}  // namespace
}  // namespace gus
