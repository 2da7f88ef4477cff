// Tests for the columnar layer: lossless Relation <-> ColumnarRelation
// round trips (randomized property test), dictionary interning, the
// per-relation columnar-form memo (Relation::Columnar), vectorized
// expression evaluation parity with the row evaluator, and the streaming
// estimation sinks (SampleViewBuilder, StreamingSboxEstimator) matching
// their materializing counterparts exactly.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "data/tpch_gen.h"
#include "data/workload.h"
#include "est/sbox.h"
#include "est/streaming.h"
#include "plan/columnar_executor.h"
#include "plan/soa_transform.h"
#include "plan/vector_eval.h"
#include "rel/column_batch.h"
#include "test_util.h"
#include "util/random.h"

namespace gus {
namespace {

using ::gus::testing::ColumnarExec;
using ::gus::testing::MakeSingleTable;
using ::gus::testing::MakeTinyJoin;

Relation RandomRelation(Rng* rng, int num_cols, int lineage_arity,
                        int64_t num_rows) {
  // Fixed vocabulary (also avoids a GCC-12 -Wrestrict false positive on
  // temporary strings constructed into the Value variant).
  static const std::vector<std::string> kVocab = {"s0", "s1", "s2", "s3",
                                                  "s4", "s5", "s6"};
  std::vector<Column> cols;
  std::vector<std::string> lineage_names;
  for (int c = 0; c < num_cols; ++c) {
    const auto type = static_cast<ValueType>(rng->UniformInt(uint64_t{3}));
    cols.push_back({"c" + std::to_string(c), type});
  }
  for (int d = 0; d < lineage_arity; ++d) {
    lineage_names.push_back("R" + std::to_string(d));
  }
  Relation rel(Schema(cols), lineage_names);
  for (int64_t i = 0; i < num_rows; ++i) {
    Row row;
    for (int c = 0; c < num_cols; ++c) {
      switch (cols[c].type) {
        case ValueType::kInt64:
          row.push_back(Value(static_cast<int64_t>(rng->UniformInt(-50, 50))));
          break;
        case ValueType::kFloat64:
          row.push_back(Value(rng->Uniform(-10.0, 10.0)));
          break;
        case ValueType::kString:
          // Small vocabulary: exercises dictionary code reuse.
          row.push_back(Value(kVocab[rng->UniformInt(uint64_t{7})]));
          break;
      }
    }
    LineageRow lin;
    for (int d = 0; d < lineage_arity; ++d) {
      lin.push_back(rng->UniformInt(uint64_t{1} << 20));
    }
    rel.AppendRow(std::move(row), std::move(lin));
  }
  return rel;
}

void ExpectRelationsEqual(const Relation& a, const Relation& b) {
  ASSERT_TRUE(a.schema() == b.schema());
  ASSERT_EQ(a.lineage_schema(), b.lineage_schema());
  ASSERT_EQ(a.num_rows(), b.num_rows());
  for (int64_t i = 0; i < a.num_rows(); ++i) {
    ASSERT_EQ(a.row(i).size(), b.row(i).size());
    for (size_t c = 0; c < a.row(i).size(); ++c) {
      EXPECT_EQ(a.row(i)[c].type(), b.row(i)[c].type());
      EXPECT_TRUE(a.row(i)[c] == b.row(i)[c])
          << "row " << i << " col " << c;
    }
    EXPECT_EQ(a.lineage(i), b.lineage(i));
  }
}

TEST(ColumnarRoundTripTest, RandomizedProperty) {
  Rng rng(0xC01);
  for (int trial = 0; trial < 40; ++trial) {
    const int num_cols = 1 + static_cast<int>(rng.UniformInt(uint64_t{5}));
    const int arity = 1 + static_cast<int>(rng.UniformInt(uint64_t{3}));
    const int64_t rows = static_cast<int64_t>(rng.UniformInt(uint64_t{300}));
    Relation original = RandomRelation(&rng, num_cols, arity, rows);
    ASSERT_OK_AND_ASSIGN(ColumnarRelation columnar,
                         ColumnarRelation::FromRelation(original));
    EXPECT_EQ(original.num_rows(), columnar.num_rows());
    ExpectRelationsEqual(original, columnar.ToRelation());
  }
}

TEST(ColumnarRoundTripTest, StringsShareDictionaryCodes) {
  Rng rng(0xC02);
  std::vector<Row> rows;
  for (int i = 0; i < 100; ++i) {
    rows.push_back(Row{Value(i % 2 ? "hot" : "cold")});
  }
  Relation rel = Relation::MakeBase(
      "S", Schema({{"tag", ValueType::kString}}), std::move(rows));
  ASSERT_OK_AND_ASSIGN(ColumnarRelation columnar,
                       ColumnarRelation::FromRelation(rel));
  const ColumnData& col = columnar.data().column(0);
  ASSERT_NE(nullptr, col.dict);
  EXPECT_EQ(2u, col.dict->values.size());  // interned, not duplicated
  EXPECT_EQ(100u, col.codes.size());
}

TEST(ColumnarRoundTripTest, TypeMismatchSurfacesAsTypeError) {
  // The row engine never validates cell types against the schema; the
  // columnar conversion cannot avoid it.
  Relation rel(Schema({{"x", ValueType::kInt64}}), {"R"});
  rel.AppendRow(Row{Value(1.5)}, LineageRow{0});
  EXPECT_STATUS_CODE(kTypeError,
                     ColumnarRelation::FromRelation(rel).status());
}

// ---- Columnar-form memo (Relation::Columnar) --------------------------------

Row TinyRow(int64_t key, double v) { return Row{Value(key), Value(v)}; }

Relation TinyBase() {
  return Relation::MakeBase(
      "T", Schema({{"k", ValueType::kInt64}, {"v", ValueType::kFloat64}}),
      {TinyRow(1, 1.5), TinyRow(2, 2.5), TinyRow(3, 3.5)});
}

// The last row of `form` decoded, for "contains the appended row" checks.
Row LastRow(const ColumnarRelation& form) {
  return form.data().RowAt(form.num_rows() - 1);
}

TEST(ColumnarMemoTest, RepeatedCallsShareOneForm) {
  const Relation rel = TinyBase();
  ASSERT_OK_AND_ASSIGN(auto first, rel.Columnar());
  ASSERT_OK_AND_ASSIGN(auto second, rel.Columnar());
  EXPECT_EQ(first.get(), second.get());
  EXPECT_EQ(3, first->num_rows());
  ExpectRelationsEqual(rel, first->ToRelation());
}

TEST(ColumnarMemoTest, AppendDropsTheForm) {
  Relation rel = TinyBase();
  ASSERT_OK_AND_ASSIGN(auto before, rel.Columnar());
  rel.AppendRow(TinyRow(4, 4.5), LineageRow{3});
  ASSERT_OK_AND_ASSIGN(auto after_append, rel.Columnar());
  EXPECT_NE(before.get(), after_append.get());
  EXPECT_EQ(3, before->num_rows());  // the old form is untouched
  EXPECT_EQ(4, after_append->num_rows());
  EXPECT_TRUE(LastRow(*after_append) == TinyRow(4, 4.5));

  ASSERT_OK(rel.AppendRowChecked(TinyRow(5, 5.5), LineageRow{4}));
  ASSERT_OK_AND_ASSIGN(auto after_checked, rel.Columnar());
  EXPECT_NE(after_append.get(), after_checked.get());
  EXPECT_EQ(5, after_checked->num_rows());
  EXPECT_TRUE(LastRow(*after_checked) == TinyRow(5, 5.5));
  ExpectRelationsEqual(rel, after_checked->ToRelation());

  // A rejected append changes nothing, so the form survives it.
  EXPECT_STATUS_CODE(kInvalidArgument,
                     rel.AppendRowChecked(Row{Value(int64_t{6})}, {5}));
  ASSERT_OK_AND_ASSIGN(auto after_rejected, rel.Columnar());
  EXPECT_EQ(after_checked.get(), after_rejected.get());
}

TEST(ColumnarMemoTest, CatalogSnapshotOutlivesMutation) {
  Catalog catalog;
  catalog.emplace("T", TinyBase());
  ColumnarCatalog snapshot(&catalog);
  ASSERT_OK_AND_ASSIGN(const ColumnarRelation* old_form, snapshot.Get("T"));
  ASSERT_OK_AND_ASSIGN(const uint64_t old_fp, snapshot.Fingerprint("T"));
  EXPECT_EQ(ContentFingerprint("T", old_form->data()), old_fp);

  catalog.at("T").AppendRow(TinyRow(4, 4.5), LineageRow{3});

  // The relation serves a new form; the old one stays pinned and intact.
  ASSERT_OK_AND_ASSIGN(auto new_form, catalog.at("T").Columnar());
  EXPECT_NE(old_form, new_form.get());
  ASSERT_OK_AND_ASSIGN(const ColumnarRelation* pinned, snapshot.Get("T"));
  EXPECT_EQ(old_form, pinned);
  EXPECT_EQ(3, pinned->num_rows());
  EXPECT_TRUE(LastRow(*pinned) == TinyRow(3, 3.5));
  // Its fingerprint still describes the snapshot, not the new content.
  ASSERT_OK_AND_ASSIGN(const uint64_t pinned_fp, snapshot.Fingerprint("T"));
  EXPECT_EQ(old_fp, pinned_fp);

  ColumnarCatalog fresh(&catalog);
  ASSERT_OK_AND_ASSIGN(const ColumnarRelation* fresh_form, fresh.Get("T"));
  EXPECT_EQ(new_form.get(), fresh_form);
  ASSERT_OK_AND_ASSIGN(const uint64_t fresh_fp, fresh.Fingerprint("T"));
  EXPECT_NE(old_fp, fresh_fp);
  EXPECT_EQ(ContentFingerprint("T", new_form->data()), fresh_fp);
}

TEST(ColumnarMemoTest, CopiesShareTheFormUntilTheyDiverge) {
  const Relation original = TinyBase();
  ASSERT_OK_AND_ASSIGN(auto form, original.Columnar());

  Relation copy(original);
  ASSERT_OK_AND_ASSIGN(auto copy_form, copy.Columnar());
  EXPECT_EQ(form.get(), copy_form.get());

  Relation assigned;
  assigned = original;
  ASSERT_OK_AND_ASSIGN(auto assigned_form, assigned.Columnar());
  EXPECT_EQ(form.get(), assigned_form.get());

  copy.AppendRow(TinyRow(4, 4.5), LineageRow{3});
  assigned.AppendRow(TinyRow(5, 5.5), LineageRow{3});
  ASSERT_OK_AND_ASSIGN(auto original_form, original.Columnar());
  EXPECT_EQ(form.get(), original_form.get());
  EXPECT_EQ(3, original.num_rows());
  EXPECT_EQ(3, original_form->num_rows());
  ASSERT_OK_AND_ASSIGN(auto diverged, copy.Columnar());
  EXPECT_EQ(4, diverged->num_rows());
  EXPECT_TRUE(LastRow(*diverged) == TinyRow(4, 4.5));
  ASSERT_OK_AND_ASSIGN(auto diverged_assigned, assigned.Columnar());
  EXPECT_TRUE(LastRow(*diverged_assigned) == TinyRow(5, 5.5));
}

TEST(ColumnarMemoTest, MovedFromRelationStillWorks) {
  Relation source = TinyBase();
  ASSERT_OK_AND_ASSIGN(auto form, source.Columnar());
  Relation moved(std::move(source));
  ASSERT_OK_AND_ASSIGN(auto moved_form, moved.Columnar());
  EXPECT_EQ(form.get(), moved_form.get());

  // NOLINTNEXTLINE(bugprone-use-after-move): the documented moved-from state
  EXPECT_EQ(0, source.num_rows());
  ASSERT_OK_AND_ASSIGN(auto emptied, source.Columnar());
  EXPECT_EQ(0, emptied->num_rows());
  EXPECT_TRUE(emptied->schema() == moved.schema());
  source.AppendRow(TinyRow(7, 7.5), LineageRow{0});
  ASSERT_OK_AND_ASSIGN(auto refilled, source.Columnar());
  EXPECT_EQ(1, refilled->num_rows());
  EXPECT_TRUE(LastRow(*refilled) == TinyRow(7, 7.5));
  EXPECT_EQ(3, moved_form->num_rows());

  Relation target;
  target = std::move(moved);
  ASSERT_OK_AND_ASSIGN(auto target_form, target.Columnar());
  EXPECT_EQ(form.get(), target_form.get());
  ASSERT_OK_AND_ASSIGN(auto emptied_again, moved.Columnar());
  EXPECT_EQ(0, emptied_again->num_rows());
  moved.AppendRow(TinyRow(8, 8.5), LineageRow{0});
  ASSERT_OK_AND_ASSIGN(auto moved_again, moved.Columnar());
  EXPECT_EQ(1, moved_again->num_rows());
}

TEST(ColumnarMemoTest, TypeErrorIsMemoizedToo) {
  Relation rel(Schema({{"x", ValueType::kInt64}}), {"R"});
  rel.AppendRow(Row{Value(1.5)}, LineageRow{0});
  const Status first = rel.Columnar().status();
  EXPECT_STATUS_CODE(kTypeError, first);
  for (int i = 0; i < 3; ++i) {
    const Status again = rel.Columnar().status();
    EXPECT_EQ(first.code(), again.code());
    EXPECT_EQ(first.message(), again.message());
  }
  EXPECT_EQ(first.message(),
            ColumnarRelation::FromRelation(rel).status().message());
}

TEST(ColumnarMemoTest, ConcurrentFirstUseConvertsOnce) {
  constexpr int kReaders = 8;
  constexpr int kCopiers = 4;
  Catalog catalog;
  catalog.emplace("T", MakeSingleTable(20000, "T"));
  const Relation& shared = catalog.at("T");

  std::vector<const ColumnarRelation*> got(kReaders, nullptr);
  std::vector<uint64_t> fingerprints(kReaders, 0);
  std::vector<Relation> copies(kCopiers);
  std::vector<std::thread> threads;
  for (int t = 0; t < kReaders; ++t) {
    threads.emplace_back([&, t] {
      ColumnarCatalog own(&catalog);
      auto form = own.Get("T");
      auto fp = own.Fingerprint("T");
      if (form.ok() && fp.ok()) {
        got[t] = *form;
        fingerprints[t] = *fp;
      }
    });
  }
  // Copiers read the memo while the readers write it.
  for (int t = 0; t < kCopiers; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 20; ++i) {
        Relation copy(shared);
        copies[t] = copy;
      }
    });
  }
  for (std::thread& t : threads) t.join();

  // One conversion: every reader pinned the relation's single form.
  ASSERT_OK_AND_ASSIGN(auto form, shared.Columnar());
  for (int t = 0; t < kReaders; ++t) {
    EXPECT_EQ(form.get(), got[t]) << "reader " << t;
    EXPECT_EQ(ContentFingerprint("T", form->data()), fingerprints[t]);
  }
  for (const Relation& copy : copies) {
    ASSERT_OK_AND_ASSIGN(auto copy_form, copy.Columnar());
    ExpectRelationsEqual(shared, copy_form->ToRelation());
  }
}

// ---- Vectorized expression evaluation --------------------------------------

class VectorEvalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(0xE7A);
    std::vector<Row> rows;
    for (int i = 0; i < 257; ++i) {  // not a multiple of any lane width
      rows.push_back(Row{
          Value(static_cast<int64_t>(rng.UniformInt(-20, 20))),
          Value(static_cast<int64_t>(rng.UniformInt(-3, 3))),
          Value(rng.Uniform(-5.0, 5.0)),
          Value(rng.Uniform(-1.0, 1.0)),
          Value("k" + std::to_string(rng.UniformInt(uint64_t{3}))),
      });
    }
    rel_ = Relation::MakeBase("E",
                              Schema({{"a", ValueType::kInt64},
                                      {"b", ValueType::kInt64},
                                      {"x", ValueType::kFloat64},
                                      {"y", ValueType::kFloat64},
                                      {"s", ValueType::kString}}),
                              std::move(rows));
    auto columnar = ColumnarRelation::FromRelation(rel_);
    ASSERT_TRUE(columnar.ok());
    columnar_ = std::move(columnar).ValueOrDie();
  }

  /// Evaluates `expr` both ways and asserts identical per-row results
  /// (including identical error behavior).
  void ExpectEvalParity(const ExprPtr& expr) {
    SCOPED_TRACE(expr->ToString());
    auto bound_or = expr->Bind(rel_.schema());
    ASSERT_TRUE(bound_or.ok());
    const ExprPtr bound = bound_or.ValueOrDie();
    auto batch_or = EvalExprBatch(bound, columnar_.data());

    // Row-at-a-time reference (first error wins, as in the batch path).
    std::vector<Value> expected;
    Status row_status = Status::OK();
    for (int64_t i = 0; i < rel_.num_rows(); ++i) {
      auto v = bound->Eval(rel_.row(i));
      if (!v.ok()) {
        row_status = v.status();
        break;
      }
      expected.push_back(std::move(v).ValueOrDie());
    }
    if (!row_status.ok()) {
      ASSERT_FALSE(batch_or.ok()) << "batch eval unexpectedly succeeded";
      EXPECT_EQ(row_status.code(), batch_or.status().code());
      return;
    }
    ASSERT_TRUE(batch_or.ok()) << batch_or.status().ToString();
    const ColumnData& col = batch_or.ValueOrDie();
    ASSERT_EQ(rel_.num_rows(), col.size());
    for (int64_t i = 0; i < rel_.num_rows(); ++i) {
      const Value got = col.ValueAt(i);
      EXPECT_EQ(expected[i].type(), got.type()) << "row " << i;
      EXPECT_TRUE(expected[i] == got)
          << "row " << i << ": " << expected[i].ToString() << " vs "
          << got.ToString();
    }
  }

  Relation rel_;
  ColumnarRelation columnar_;
};

TEST_F(VectorEvalTest, ArithmeticStaysIntegral) {
  ExpectEvalParity(Add(Col("a"), Col("b")));
  ExpectEvalParity(Sub(Col("a"), Lit(Value(int64_t{3}))));
  ExpectEvalParity(Mul(Col("a"), Col("b")));
}

TEST_F(VectorEvalTest, MixedArithmeticPromotes) {
  ExpectEvalParity(Add(Col("a"), Col("x")));
  ExpectEvalParity(Mul(Col("x"), Sub(Col("y"), Lit(0.25))));
  ExpectEvalParity(Neg(Col("a")));
  ExpectEvalParity(Neg(Col("x")));
}

TEST_F(VectorEvalTest, DivisionAlwaysFloatAndChecksZero) {
  ExpectEvalParity(Div(Col("x"), Lit(2.0)));
  ExpectEvalParity(Div(Col("a"), Col("b")));  // b hits 0 -> both error
}

TEST_F(VectorEvalTest, Comparisons) {
  ExpectEvalParity(Ge(Col("x"), Col("y")));
  ExpectEvalParity(Lt(Col("a"), Lit(Value(int64_t{0}))));
  ExpectEvalParity(Eq(Col("a"), Col("x")));  // mixed numeric compare
  ExpectEvalParity(Eq(Col("s"), Lit("k1")));
  ExpectEvalParity(Ne(Col("s"), Lit("k2")));
  ExpectEvalParity(Le(Col("s"), Lit("k1")));  // lexicographic
}

TEST_F(VectorEvalTest, BooleanLogic) {
  ExpectEvalParity(And(Gt(Col("x"), Lit(0.0)), Lt(Col("a"), Lit(Value(5)))));
  ExpectEvalParity(Or(Le(Col("y"), Lit(0.0)), Eq(Col("b"), Lit(Value(1)))));
  ExpectEvalParity(Not(Gt(Col("x"), Col("y"))));
}

TEST_F(VectorEvalTest, ShortCircuitGuardsRowLevel) {
  // Column b hits 0; the guard must keep the division from ever being
  // evaluated on those rows — both evaluators succeed and agree.
  ExpectEvalParity(And(Ne(Col("b"), Lit(Value(0))),
                       Gt(Div(Lit(1.0), Col("b")), Lit(0.2))));
  ExpectEvalParity(Or(Eq(Col("b"), Lit(Value(0))),
                      Lt(Div(Lit(1.0), Col("b")), Lit(0.0))));
  // Nested guard inside the undecided-row sub-batch path.
  ExpectEvalParity(And(Gt(Col("a"), Lit(Value(0))),
                       And(Ne(Col("b"), Lit(Value(0))),
                           Gt(Div(Col("a"), Col("b")), Lit(1.0)))));
}

TEST_F(VectorEvalTest, TypeErrorsMatch) {
  ExpectEvalParity(Add(Col("s"), Col("a")));  // string arithmetic
  ExpectEvalParity(Gt(Col("s"), Col("a")));   // string vs numeric compare
  ExpectEvalParity(Not(Col("s")));            // string truthiness
}

TEST_F(VectorEvalTest, PredicateSelectionVector) {
  auto bound = Gt(Col("x"), Lit(0.0))->Bind(rel_.schema()).ValueOrDie();
  std::vector<int64_t> sel;
  ASSERT_OK(EvalPredicateBatch(bound, columnar_.data(), &sel));
  std::vector<int64_t> expected;
  for (int64_t i = 0; i < rel_.num_rows(); ++i) {
    if (rel_.row(i)[2].AsFloat64() > 0.0) expected.push_back(i);
  }
  EXPECT_EQ(expected, sel);
}

// ---- Streaming estimation sinks --------------------------------------------

struct Query1Setup {
  Catalog catalog;
  Workload workload;
  SoaResult soa;
};

Query1Setup MakeQuery1Setup() {
  TpchConfig config;
  config.num_orders = 400;
  config.num_customers = 50;
  config.num_parts = 40;
  TpchData data = GenerateTpch(config);
  Query1Params params;
  params.lineitem_p = 0.5;
  params.orders_n = 200;
  params.orders_population = 400;
  Workload q1 = MakeQuery1(params);
  SoaResult soa = SoaTransform(q1.plan).ValueOrDie();
  return {data.MakeCatalog(), std::move(q1), std::move(soa)};
}

TEST(SampleViewBuilderTest, MatchesFromRelation) {
  Query1Setup setup = MakeQuery1Setup();
  const uint64_t seed = 31;

  Rng row_rng(seed);
  ASSERT_OK_AND_ASSIGN(
      Relation sample,
      ExecutePlan(setup.workload.plan, setup.catalog, &row_rng));
  ASSERT_OK_AND_ASSIGN(SampleView expected,
                       SampleView::FromRelation(sample,
                                                setup.workload.aggregate,
                                                setup.soa.top.schema()));

  ColumnarCatalog columnar(&setup.catalog);
  Rng col_rng(seed);
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<BatchSource> pipeline,
      CompileBatchPipeline(setup.workload.plan, &columnar, &col_rng,
                           ExecMode::kSampled));
  ASSERT_OK_AND_ASSIGN(
      SampleViewBuilder builder,
      SampleViewBuilder::Make(*pipeline->layout(), setup.workload.aggregate,
                              setup.soa.top.schema()));
  ColumnBatch batch;
  while (true) {
    auto more = pipeline->Next(&batch);
    ASSERT_TRUE(more.ok()) << more.status().ToString();
    if (!*more) break;
    ASSERT_OK(builder.Consume(batch));
  }
  const SampleView& got = builder.view();
  ASSERT_EQ(expected.num_rows(), got.num_rows());
  EXPECT_EQ(expected.f, got.f);            // bit-identical values
  EXPECT_EQ(expected.lineage, got.lineage);
}

void ExpectReportsIdentical(const SboxReport& a, const SboxReport& b) {
  EXPECT_EQ(a.estimate, b.estimate);
  EXPECT_EQ(a.variance, b.variance);
  EXPECT_EQ(a.stddev, b.stddev);
  EXPECT_EQ(a.interval.lo, b.interval.lo);
  EXPECT_EQ(a.interval.hi, b.interval.hi);
  EXPECT_EQ(a.sample_rows, b.sample_rows);
  EXPECT_EQ(a.variance_rows, b.variance_rows);
  EXPECT_EQ(a.y_hat, b.y_hat);
}

TEST(StreamingSboxTest, MatchesBatchEstimateWithoutSubsample) {
  Query1Setup setup = MakeQuery1Setup();
  const uint64_t seed = 32;

  Rng row_rng(seed);
  ASSERT_OK_AND_ASSIGN(
      Relation sample,
      ExecutePlan(setup.workload.plan, setup.catalog, &row_rng));
  ASSERT_OK_AND_ASSIGN(SampleView view,
                       SampleView::FromRelation(sample,
                                                setup.workload.aggregate,
                                                setup.soa.top.schema()));
  ASSERT_OK_AND_ASSIGN(SboxReport expected,
                       SboxEstimate(setup.soa.top, view));

  ColumnarCatalog columnar(&setup.catalog);
  Rng col_rng(seed);
  ASSERT_OK_AND_ASSIGN(
      SboxReport got,
      EstimatePlanParallel(setup.workload.plan, &columnar, &col_rng,
                           setup.workload.aggregate, setup.soa.top, {},
                           ExecMode::kSampled, ColumnarExec()));
  ExpectReportsIdentical(expected, got);
}

TEST(StreamingSboxTest, MatchesBatchEstimateWithSubsample) {
  Query1Setup setup = MakeQuery1Setup();
  const uint64_t seed = 33;
  SboxOptions options;
  options.subsample = SubsampleConfig{};
  options.subsample->target_rows = 50;  // force the Section 7 path hard

  Rng row_rng(seed);
  ASSERT_OK_AND_ASSIGN(
      Relation sample,
      ExecutePlan(setup.workload.plan, setup.catalog, &row_rng));
  ASSERT_OK_AND_ASSIGN(SampleView view,
                       SampleView::FromRelation(sample,
                                                setup.workload.aggregate,
                                                setup.soa.top.schema()));
  ASSERT_OK_AND_ASSIGN(SboxReport expected,
                       SboxEstimate(setup.soa.top, view, options));
  ASSERT_GT(expected.sample_rows, 50);  // the subsample actually engaged
  ASSERT_LT(expected.variance_rows, expected.sample_rows);

  ColumnarCatalog columnar(&setup.catalog);
  Rng col_rng(seed);
  ASSERT_OK_AND_ASSIGN(
      SboxReport got,
      EstimatePlanParallel(setup.workload.plan, &columnar, &col_rng,
                           setup.workload.aggregate, setup.soa.top, options,
                           ExecMode::kSampled, ColumnarExec()));
  ExpectReportsIdentical(expected, got);
}

TEST(StreamingSboxTest, RetainedStateStaysBounded) {
  Query1Setup setup = MakeQuery1Setup();
  SboxOptions options;
  options.subsample = SubsampleConfig{};
  options.subsample->target_rows = 20;

  ColumnarCatalog columnar(&setup.catalog);
  Rng rng(34);
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<BatchSource> pipeline,
      CompileBatchPipeline(setup.workload.plan, &columnar, &rng,
                           ExecMode::kSampled));
  ASSERT_OK_AND_ASSIGN(
      StreamingSboxEstimator est,
      StreamingSboxEstimator::Make(*pipeline->layout(),
                                   setup.workload.aggregate, setup.soa.top,
                                   options));
  ColumnBatch batch;
  while (true) {
    auto more = pipeline->Next(&batch);
    ASSERT_TRUE(more.ok());
    if (!*more) break;
    ASSERT_OK(est.Consume(batch));
    EXPECT_LE(est.retained_rows(), 2048);  // far below rows_seen
  }
  EXPECT_GT(est.rows_seen(), 200);
  ASSERT_OK_AND_ASSIGN(SboxReport report, est.Finish());
  EXPECT_GT(report.sample_rows, 0);
}

TEST(ExecutePlanToSinkTest, NeverMaterializingCountMatches) {
  // A trivial sink counting rows must see exactly the materialized total.
  Query1Setup setup = MakeQuery1Setup();
  const uint64_t seed = 35;
  Rng row_rng(seed);
  ASSERT_OK_AND_ASSIGN(
      Relation sample,
      ExecutePlan(setup.workload.plan, setup.catalog, &row_rng));

  ColumnarCatalog columnar(&setup.catalog);
  Rng col_rng(seed);
  ASSERT_OK_AND_ASSIGN(
      int64_t rows,
      gus::testing::CountPlanRows(setup.workload.plan, &columnar, &col_rng,
                                  ExecMode::kSampled, ColumnarExec()));
  EXPECT_EQ(sample.num_rows(), rows);
}

}  // namespace
}  // namespace gus
