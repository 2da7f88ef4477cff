// Tests for the SQL-ish front end: tokenizer, parser, planner, and the
// one-call RunApproxQuery — including the paper's Query 1 as written.

#include <gtest/gtest.h>

#include <cmath>

#include "data/tpch_gen.h"
#include "est/group_by.h"
#include "est/sample_view.h"
#include "est/sbox.h"
#include "plan/exec_stats.h"
#include "plan/soa_transform.h"
#include "sqlish/planner.h"
#include "sqlish/tokenizer.h"
#include "test_util.h"

namespace gus {
namespace sqlish {
namespace {

// ------------------------------------------------------------- Tokenizer

TEST(TokenizerTest, BasicTokens) {
  ASSERT_OK_AND_ASSIGN(auto tokens, Tokenize("SELECT a1, 2.5 FROM t;"));
  ASSERT_EQ(8u, tokens.size());  // SELECT a1 , 2.5 FROM t ; END
  EXPECT_TRUE(IdentEquals(tokens[0], "SELECT"));
  EXPECT_EQ("a1", tokens[1].text);
  EXPECT_EQ(",", tokens[2].text);
  EXPECT_DOUBLE_EQ(2.5, tokens[3].number);
  EXPECT_EQ(TokenType::kEnd, tokens.back().type);
}

TEST(TokenizerTest, TwoCharOperators) {
  ASSERT_OK_AND_ASSIGN(auto tokens, Tokenize("a <= b <> c >= d != e"));
  EXPECT_EQ("<=", tokens[1].text);
  EXPECT_EQ("<>", tokens[3].text);
  EXPECT_EQ(">=", tokens[5].text);
  EXPECT_EQ("<>", tokens[7].text);  // != normalizes to <>
}

TEST(TokenizerTest, StringsAndComments) {
  ASSERT_OK_AND_ASSIGN(auto tokens,
                       Tokenize("'hello world' -- trailing comment\n x"));
  EXPECT_EQ(TokenType::kString, tokens[0].type);
  EXPECT_EQ("hello world", tokens[0].text);
  EXPECT_EQ("x", tokens[1].text);
}

TEST(TokenizerTest, UnterminatedStringFails) {
  EXPECT_STATUS_CODE(kInvalidArgument, Tokenize("'oops").status());
}

TEST(TokenizerTest, StrayByteFails) {
  EXPECT_STATUS_CODE(kInvalidArgument, Tokenize("a @ b").status());
}

TEST(TokenizerTest, KeywordMatchingIsCaseInsensitive) {
  ASSERT_OK_AND_ASSIGN(auto tokens, Tokenize("select SeLeCt SELECT"));
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(IdentEquals(tokens[i], "SELECT"));
}

// ---------------------------------------------------------------- Parser

TEST(ParserTest, PaperQuery1ParsesVerbatim) {
  const char* kSql = R"(
    SELECT SUM(l_discount*(1.0-l_tax))
    FROM l TABLESAMPLE (10 PERCENT),
         o TABLESAMPLE (1000 ROWS)
    WHERE l_orderkey = o_orderkey AND
          l_extendedprice > 100.0;
  )";
  ASSERT_OK_AND_ASSIGN(ParsedQuery q, ParseQuery(kSql));
  ASSERT_EQ(1u, q.items.size());
  EXPECT_EQ(AggKind::kSum, q.items[0].kind);
  ASSERT_EQ(2u, q.tables.size());
  EXPECT_EQ("l", q.tables[0].name);
  ASSERT_TRUE(q.tables[0].percent.has_value());
  EXPECT_DOUBLE_EQ(10.0, *q.tables[0].percent);
  ASSERT_TRUE(q.tables[1].rows.has_value());
  EXPECT_EQ(1000, *q.tables[1].rows);
  ASSERT_NE(nullptr, q.where);
}

TEST(ParserTest, ApproxViewQuantiles) {
  const char* kSql =
      "SELECT QUANTILE(SUM(v), 0.05), QUANTILE(SUM(v), 0.95) FROM t";
  ASSERT_OK_AND_ASSIGN(ParsedQuery q, ParseQuery(kSql));
  ASSERT_EQ(2u, q.items.size());
  EXPECT_EQ(AggKind::kQuantile, q.items[0].kind);
  EXPECT_DOUBLE_EQ(0.05, q.items[0].quantile);
  EXPECT_DOUBLE_EQ(0.95, q.items[1].quantile);
}

TEST(ParserTest, CountAndAvg) {
  ASSERT_OK_AND_ASSIGN(ParsedQuery q,
                       ParseQuery("SELECT COUNT(*), AVG(x) FROM t"));
  EXPECT_EQ(AggKind::kCount, q.items[0].kind);
  EXPECT_EQ(AggKind::kAvg, q.items[1].kind);
}

TEST(ParserTest, ExpressionPrecedence) {
  ASSERT_OK_AND_ASSIGN(ParsedQuery q,
                       ParseQuery("SELECT SUM(a + b * c - d) FROM t"));
  EXPECT_EQ("((a + (b * c)) - d)", q.items[0].expr->ToString());
}

TEST(ParserTest, BooleanPrecedence) {
  ASSERT_OK_AND_ASSIGN(
      ParsedQuery q,
      ParseQuery("SELECT SUM(x) FROM t WHERE a = 1 OR b = 2 AND c = 3"));
  // AND binds tighter than OR.
  EXPECT_EQ("((a = 1) OR ((b = 2) AND (c = 3)))", q.where->ToString());
}

TEST(ParserTest, ParenthesesAndUnaryMinus) {
  ASSERT_OK_AND_ASSIGN(ParsedQuery q,
                       ParseQuery("SELECT SUM(-(a + b) * 2) FROM t"));
  EXPECT_EQ("(-((a + b)) * 2)", q.items[0].expr->ToString());
}

TEST(ParserTest, SyntaxErrorsAreInvalidArgument) {
  EXPECT_STATUS_CODE(kInvalidArgument, ParseQuery("SELECT FROM t").status());
  EXPECT_STATUS_CODE(kInvalidArgument, ParseQuery("SUM(x) FROM t").status());
  EXPECT_STATUS_CODE(kInvalidArgument,
                     ParseQuery("SELECT SUM(x) FROM").status());
  EXPECT_STATUS_CODE(kInvalidArgument,
                     ParseQuery("SELECT SUM(x) FROM t WHERE").status());
  EXPECT_STATUS_CODE(
      kInvalidArgument,
      ParseQuery("SELECT SUM(x) FROM t TABLESAMPLE (10 BANANAS)").status());
  EXPECT_STATUS_CODE(
      kInvalidArgument,
      ParseQuery("SELECT QUANTILE(SUM(x), 1.5) FROM t").status());
  EXPECT_STATUS_CODE(kInvalidArgument,
                     ParseQuery("SELECT SUM(x) FROM t extra junk").status());
}

// --------------------------------------------------------------- Planner

class PlannerTest : public ::testing::Test {
 protected:
  PlannerTest() {
    TpchConfig config;
    config.num_orders = 300;
    config.num_customers = 40;
    config.num_parts = 30;
    data_ = GenerateTpch(config);
    catalog_ = data_.MakeCatalog();
  }
  TpchData data_;
  Catalog catalog_;
};

TEST_F(PlannerTest, Query1PlanMatchesHandBuiltWorkload) {
  const char* kSql = R"(
    SELECT SUM(l_discount*(1.0-l_tax))
    FROM l TABLESAMPLE (10 PERCENT), o TABLESAMPLE (100 ROWS)
    WHERE l_orderkey = o_orderkey AND l_extendedprice > 100.0;
  )";
  ASSERT_OK_AND_ASSIGN(ParsedQuery parsed, ParseQuery(kSql));
  ASSERT_OK_AND_ASSIGN(PlannedQuery planned, PlanQuery(parsed, catalog_));
  // The planned tree transforms to the same GUS as the hand-built one.
  ASSERT_OK_AND_ASSIGN(SoaResult soa, SoaTransform(planned.plan));
  EXPECT_NEAR(0.1 * 100.0 / 300.0, soa.top.a(), 1e-12);
  EXPECT_EQ(2, soa.top.schema().arity());
}

TEST_F(PlannerTest, UnknownTableFails) {
  ASSERT_OK_AND_ASSIGN(ParsedQuery parsed,
                       ParseQuery("SELECT SUM(x) FROM nope"));
  EXPECT_STATUS_CODE(kKeyError, PlanQuery(parsed, catalog_).status());
}

// An unknown select-list column fails when the per-item builder binds to
// the result layout, identically on every engine. Only the code is pinned:
// messages carry engine-specific context.
TEST_F(PlannerTest, UnknownSelectColumnIsAKeyErrorOnEveryEngine) {
  const char* kSql = "SELECT SUM(nosuch) FROM l TABLESAMPLE (40 PERCENT)";
  for (const ExecEngine engine :
       {ExecEngine::kRowAtATime, ExecEngine::kColumnar,
        ExecEngine::kMorselParallel, ExecEngine::kServed}) {
    SCOPED_TRACE(static_cast<int>(engine));
    ExecOptions exec;
    exec.engine = engine;
    EXPECT_STATUS_CODE(kKeyError,
                       RunApproxQuery(kSql, catalog_, 7, {}, exec).status());
  }
}

TEST_F(PlannerTest, RowsExceedingCardinalityFails) {
  ASSERT_OK_AND_ASSIGN(
      ParsedQuery parsed,
      ParseQuery("SELECT SUM(o_totalprice) FROM o TABLESAMPLE (9999 ROWS)"));
  EXPECT_STATUS_CODE(kInvalidArgument, PlanQuery(parsed, catalog_).status());
}

TEST_F(PlannerTest, CrossJoinWithoutPredicateUsesProduct) {
  ASSERT_OK_AND_ASSIGN(ParsedQuery parsed,
                       ParseQuery("SELECT COUNT(*) FROM c, p"));
  ASSERT_OK_AND_ASSIGN(PlannedQuery planned, PlanQuery(parsed, catalog_));
  EXPECT_EQ(PlanOp::kProduct, planned.plan->op());
}

TEST_F(PlannerTest, ThreeWayJoinPlans) {
  const char* kSql = R"(
    SELECT SUM(l_extendedprice)
    FROM l TABLESAMPLE (50 PERCENT), o, c
    WHERE l_orderkey = o_orderkey AND o_custkey = c_custkey
  )";
  ASSERT_OK_AND_ASSIGN(ParsedQuery parsed, ParseQuery(kSql));
  ASSERT_OK_AND_ASSIGN(PlannedQuery planned, PlanQuery(parsed, catalog_));
  ASSERT_OK_AND_ASSIGN(LineageSchema schema,
                       planned.plan->ComputeLineageSchema());
  EXPECT_EQ(3, schema.arity());
}

// ----------------------------------------------------- RunApproxQuery

TEST_F(PlannerTest, RunApproxQueryEndToEnd) {
  const char* kSql = R"(
    SELECT SUM(l_discount*(1.0-l_tax)),
           COUNT(*),
           AVG(l_discount),
           QUANTILE(SUM(l_discount*(1.0-l_tax)), 0.05),
           QUANTILE(SUM(l_discount*(1.0-l_tax)), 0.95)
    FROM l TABLESAMPLE (40 PERCENT), o TABLESAMPLE (150 ROWS)
    WHERE l_orderkey = o_orderkey AND l_extendedprice > 100.0;
  )";
  ASSERT_OK_AND_ASSIGN(ApproxResult result,
                       RunApproxQuery(kSql, catalog_, /*seed=*/99));
  ASSERT_EQ(5u, result.values.size());
  EXPECT_GT(result.sample_rows, 0);
  // SUM interval brackets its value; quantiles bracket the SUM estimate.
  EXPECT_LE(result.values[0].lo, result.values[0].value);
  EXPECT_GE(result.values[0].hi, result.values[0].value);
  EXPECT_LT(result.values[3].value, result.values[0].value);
  EXPECT_GT(result.values[4].value, result.values[0].value);
  // COUNT is positive, AVG is a small fraction (discounts are <= 0.1).
  EXPECT_GT(result.values[1].value, 0.0);
  EXPECT_GT(result.values[2].value, 0.0);
  EXPECT_LT(result.values[2].value, 0.2);
  // ToString renders every label.
  const std::string s = result.ToString();
  EXPECT_NE(std::string::npos, s.find("SUM("));
  EXPECT_NE(std::string::npos, s.find("COUNT(*)"));
  EXPECT_NE(std::string::npos, s.find("AVG("));
}

TEST_F(PlannerTest, RunApproxQuerySumIsConsistent) {
  // The SQL path and the hand-built workload agree on the estimate given
  // the same seed.
  const char* kSql = R"(
    SELECT SUM(l_discount*(1.0-l_tax))
    FROM l TABLESAMPLE (30 PERCENT), o TABLESAMPLE (100 ROWS)
    WHERE l_orderkey = o_orderkey AND l_extendedprice > 100.0;
  )";
  ASSERT_OK_AND_ASSIGN(ApproxResult a, RunApproxQuery(kSql, catalog_, 7));
  ASSERT_OK_AND_ASSIGN(ApproxResult b, RunApproxQuery(kSql, catalog_, 7));
  EXPECT_DOUBLE_EQ(a.values[0].value, b.values[0].value);  // deterministic
}

TEST_F(PlannerTest, DefaultEngineMatchesMaterializedReferenceBitForBit) {
  // The default (row) engine streams the oracle's relation through the
  // front door into per-item builders; it must reproduce the materialize-
  // then-estimate reference exactly: row ExecutePlan, then
  // SampleView::FromRelation + SboxEstimate per ungrouped SUM item, or
  // GroupedSumEstimate per grouped item.
  const char* kUngrouped =
      "SELECT SUM(l_discount * o_totalprice), SUM(l_quantity) "
      "FROM l TABLESAMPLE (40 PERCENT), o TABLESAMPLE (150 ROWS) "
      "WHERE l_orderkey = o_orderkey";
  const char* kGrouped =
      "SELECT SUM(l_quantity) FROM l TABLESAMPLE (50 PERCENT), o "
      "WHERE l_orderkey = o_orderkey GROUP BY o_custkey";
  SboxOptions subsampled;
  subsampled.subsample = SubsampleConfig{};
  subsampled.subsample->target_rows = 50;
  for (const char* sql : {kUngrouped, kGrouped}) {
    SCOPED_TRACE(sql);
    ASSERT_OK_AND_ASSIGN(ParsedQuery parsed, ParseQuery(sql));
    ASSERT_OK_AND_ASSIGN(PlannedQuery planned, PlanQuery(parsed, catalog_));
    ASSERT_OK_AND_ASSIGN(SoaResult soa, SoaTransform(planned.plan));
    for (const SboxOptions& options : {SboxOptions{}, subsampled}) {
      for (uint64_t seed = 1; seed <= 5; ++seed) {
        SCOPED_TRACE(seed);
        ASSERT_OK_AND_ASSIGN(ApproxResult got,
                             RunApproxQuery(sql, catalog_, seed, options));
        Rng rng(seed);
        ASSERT_OK_AND_ASSIGN(Relation sample,
                             ExecutePlan(planned.plan, catalog_, &rng));
        EXPECT_EQ(sample.num_rows(), got.sample_rows);
        std::vector<ApproxValue> want;
        for (const SelectItem& item : planned.items) {
          if (planned.group_by.empty()) {
            ASSERT_OK_AND_ASSIGN(
                SampleView view,
                SampleView::FromRelation(sample, item.expr, soa.top.schema()));
            ASSERT_OK_AND_ASSIGN(SboxReport report,
                                 SboxEstimate(soa.top, view, options));
            want.push_back({"", "", report.estimate, report.stddev,
                            report.interval.lo, report.interval.hi});
            continue;
          }
          ASSERT_OK_AND_ASSIGN(
              std::vector<GroupEstimate> groups,
              GroupedSumEstimate(soa.top, sample, item.expr,
                                 planned.group_by, options.confidence_level,
                                 options.bound_kind));
          for (const GroupEstimate& ge : groups) {
            want.push_back({"", planned.group_by + "=" + ge.key.ToString(),
                            ge.estimate, ge.stddev, ge.interval.lo,
                            ge.interval.hi});
          }
        }
        ASSERT_EQ(want.size(), got.values.size());
        for (size_t i = 0; i < want.size(); ++i) {
          SCOPED_TRACE(i);
          EXPECT_EQ(want[i].group, got.values[i].group);
          EXPECT_EQ(want[i].value, got.values[i].value);
          EXPECT_EQ(want[i].stddev, got.values[i].stddev);
          EXPECT_EQ(want[i].lo, got.values[i].lo);
          EXPECT_EQ(want[i].hi, got.values[i].hi);
        }
      }
    }
  }
}

TEST_F(PlannerTest, EveryFrontDoorEngineTimesTheEstimate) {
  const char* kSql =
      "SELECT SUM(l_discount * o_totalprice), COUNT(*) "
      "FROM l TABLESAMPLE (40 PERCENT), o TABLESAMPLE (150 ROWS) "
      "WHERE l_orderkey = o_orderkey";
  for (const ExecEngine engine :
       {ExecEngine::kRowAtATime, ExecEngine::kColumnar,
        ExecEngine::kMorselParallel}) {
    SCOPED_TRACE(static_cast<int>(engine));
    ExecStats stats;
    ExecOptions exec;
    exec.engine = engine;
    exec.num_threads = 2;
    exec.stats = &stats;
    ASSERT_OK(RunApproxQuery(kSql, catalog_, 5, {}, exec).status());
    EXPECT_GT(stats.estimate_ms, 0.0);
  }
}

TEST_F(PlannerTest, UnsampledQueryIsExact) {
  ASSERT_OK_AND_ASSIGN(
      ApproxResult result,
      RunApproxQuery("SELECT COUNT(*) FROM o", catalog_, 1));
  EXPECT_DOUBLE_EQ(300.0, result.values[0].value);
  EXPECT_NEAR(0.0, result.values[0].stddev, 1e-9);
}

// A relation mutated after a query must not serve the columnar form that
// query converted (Relation::Columnar drops its memo on AppendRow).
TEST_F(PlannerTest, AppendedRowIsSeenByTheNextQuery) {
  // The exact query counts every row, so the appended row must show up;
  // the sampled one only has to match a catalog built with the row.
  const char* kExact = "SELECT SUM(o_totalprice), COUNT(*) FROM o";
  const char* kSampled =
      "SELECT SUM(o_totalprice) FROM o TABLESAMPLE (50 PERCENT)";
  const Relation& orders = catalog_.at("o");
  Row extra = orders.row(0);
  ASSERT_OK_AND_ASSIGN(const int price,
                       orders.schema().IndexOf("o_totalprice"));
  extra[price] = Value(1.0e6);
  const LineageRow extra_lineage = {static_cast<uint64_t>(orders.num_rows())};

  Catalog fresh = data_.MakeCatalog();
  fresh.at("o").AppendRow(extra, extra_lineage);

  for (const ExecEngine engine :
       {ExecEngine::kColumnar, ExecEngine::kMorselParallel}) {
    SCOPED_TRACE(static_cast<int>(engine));
    ExecOptions exec;
    exec.engine = engine;
    exec.num_threads = 2;
    for (const char* sql : {kExact, kSampled}) {
      SCOPED_TRACE(sql);
      Catalog catalog = data_.MakeCatalog();
      ASSERT_OK_AND_ASSIGN(ApproxResult before,
                           RunApproxQuery(sql, catalog, 11, {}, exec));
      catalog.at("o").AppendRow(extra, extra_lineage);
      ASSERT_OK_AND_ASSIGN(ApproxResult after,
                           RunApproxQuery(sql, catalog, 11, {}, exec));
      ASSERT_OK_AND_ASSIGN(ApproxResult want,
                           RunApproxQuery(sql, fresh, 11, {}, exec));
      EXPECT_EQ(want.sample_rows, after.sample_rows);
      ASSERT_EQ(want.values.size(), after.values.size());
      for (size_t i = 0; i < want.values.size(); ++i) {
        EXPECT_EQ(want.values[i].value, after.values[i].value);
        EXPECT_EQ(want.values[i].lo, after.values[i].lo);
        EXPECT_EQ(want.values[i].hi, after.values[i].hi);
      }
      // Step-one results differ wherever the new row made the sample.
      if (after.sample_rows != before.sample_rows) {
        EXPECT_NE(before.values[0].value, after.values[0].value);
      }
      if (sql == kExact) {
        EXPECT_EQ(before.sample_rows + 1, after.sample_rows);
        EXPECT_NEAR(before.values[0].value + 1.0e6, after.values[0].value,
                    1e-9 * after.values[0].value);
        EXPECT_EQ(before.values[1].value + 1.0, after.values[1].value);
      }
    }
  }
}

// A base cell that disagrees with its column's type (Relation::AppendRow
// does not check) has no columnar form. The row oracle still executes the
// plan, but every RunApproxQuery engine, the default row engine included,
// streams its result through columnar sinks and so reports TypeError.
TEST_F(PlannerTest, IllTypedBaseCellIsATypeErrorOnEveryEngine) {
  Relation r = Relation::MakeBase("r", Schema({{"x", ValueType::kInt64}}),
                                  {Row{Value(1)}, Row{Value(2)}});
  r.AppendRow(Row{Value(1.5)}, LineageRow{2});
  Catalog catalog;
  catalog.emplace("r", std::move(r));

  Rng rng(1);
  ASSERT_OK_AND_ASSIGN(
      Relation rows,
      ExecutePlan(PlanNode::Scan("r"), catalog, &rng, ExecMode::kExact));
  EXPECT_EQ(3, rows.num_rows());

  EXPECT_STATUS_CODE(kTypeError,
                     RunApproxQuery("SELECT SUM(x) FROM r", catalog, 1)
                         .status());
  for (const char* sql :
       {"SELECT SUM(x) FROM r", "SELECT SUM(x) FROM r GROUP BY x"}) {
    for (const ExecEngine engine :
         {ExecEngine::kRowAtATime, ExecEngine::kColumnar,
          ExecEngine::kMorselParallel}) {
      SCOPED_TRACE(sql);
      SCOPED_TRACE(static_cast<int>(engine));
      ExecOptions exec;
      exec.engine = engine;
      EXPECT_STATUS_CODE(kTypeError,
                         RunApproxQuery(sql, catalog, 1, {}, exec).status());
    }
  }
}

}  // namespace
}  // namespace sqlish
}  // namespace gus
