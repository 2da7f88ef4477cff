// Morsel-parallel execution: partitionability analysis, determinism across
// repeated runs AND across thread counts, exact-mode multiset agreement
// with the serial engines, the serial fallback, the batch_rows knob, and
// Monte-Carlo unbiasedness of the partition-parallel sampling design.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "algebra/translate.h"
#include "data/tpch_gen.h"
#include "data/workload.h"
#include "dist/coordinator.h"
#include "est/sbox.h"
#include "est/streaming.h"
#include "plan/columnar_executor.h"
#include "plan/exec_stats.h"
#include "plan/executor.h"
#include "plan/parallel_executor.h"
#include "plan/soa_transform.h"
#include "store/segment_catalog.h"
#include "test_util.h"

namespace gus {
namespace {

using ::gus::testing::MakeTinyJoin;

ExecOptions MorselOptions(int num_threads, int64_t morsel_rows = 16) {
  ExecOptions options;
  options.engine = ExecEngine::kMorselParallel;
  options.num_threads = num_threads;
  options.morsel_rows = morsel_rows;  // tiny: every test exercises many morsels
  return options;
}

/// Canonical multiset encoding of a relation (row values + lineage).
std::vector<std::string> CanonicalRows(const Relation& rel) {
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

void ExpectIdenticalRelations(const Relation& a, const Relation& b) {
  ASSERT_TRUE(a.schema() == b.schema());
  ASSERT_EQ(a.lineage_schema(), b.lineage_schema());
  ASSERT_EQ(a.num_rows(), b.num_rows());
  for (int64_t i = 0; i < a.num_rows(); ++i) {
    const Row& x = a.row(i);
    const Row& y = b.row(i);
    ASSERT_EQ(x.size(), y.size());
    for (size_t c = 0; c < x.size(); ++c) {
      EXPECT_TRUE(x[c] == y[c]) << "row " << i << " col " << c;
    }
    EXPECT_EQ(a.lineage(i), b.lineage(i)) << "row " << i;
  }
}

PlanPtr BernoulliJoinPlan() {
  return PlanNode::Join(
      PlanNode::Sample(SamplingSpec::Bernoulli(0.6), PlanNode::Scan("F")),
      PlanNode::Scan("D"), "fk", "pk");
}

TEST(ParallelExecutorTest, Partitionability) {
  PlanPtr bernoulli_chain = PlanNode::SelectNode(
      Gt(Col("v"), Lit(0.0)),
      PlanNode::Sample(SamplingSpec::Bernoulli(0.5), PlanNode::Scan("F")));
  EXPECT_TRUE(PlanIsPartitionable(bernoulli_chain, ExecMode::kSampled));
  EXPECT_TRUE(PlanIsPartitionable(bernoulli_chain, ExecMode::kExact));

  // A fixed-size sampler directly above its scan is a seed-decoupled
  // mergeable pivot — partitionable in both modes.
  PlanPtr wor_only = PlanNode::Sample(
      SamplingSpec::WithoutReplacement(3, 10), PlanNode::Scan("F"));
  EXPECT_TRUE(PlanIsPartitionable(wor_only, ExecMode::kSampled));
  EXPECT_TRUE(PlanIsPartitionable(wor_only, ExecMode::kExact));

  // Over a *derived* input (a select below) the fixed-size draw needs the
  // whole stream: serial fallback in sampled mode, no-op (safe) in exact.
  PlanPtr wor_derived = PlanNode::Sample(
      SamplingSpec::WithoutReplacement(3, 10),
      PlanNode::SelectNode(Gt(Col("v"), Lit(0.0)), PlanNode::Scan("F")));
  EXPECT_FALSE(PlanIsPartitionable(wor_derived, ExecMode::kSampled));
  EXPECT_TRUE(PlanIsPartitionable(wor_derived, ExecMode::kExact));

  // A join also gives the derived-WOR plan a partitionable other side.
  PlanPtr join = PlanNode::Join(PlanNode::Scan("F"), wor_derived, "fk", "pk");
  EXPECT_TRUE(PlanIsPartitionable(join, ExecMode::kSampled));

  // Unions partition when both branches share a pivot scan (lineage-hash
  // partitioning: each slice dedups locally).
  PlanPtr scan = PlanNode::Scan("D");
  PlanPtr union_plan = PlanNode::Union(
      PlanNode::Sample(SamplingSpec::Bernoulli(0.5), scan),
      PlanNode::Sample(SamplingSpec::Bernoulli(0.5), scan));
  EXPECT_TRUE(PlanIsPartitionable(union_plan, ExecMode::kSampled));
  // ... but not when the branches pivot on different relations.
  PlanPtr mismatched_union = PlanNode::Union(
      PlanNode::Sample(SamplingSpec::Bernoulli(0.5), PlanNode::Scan("F")),
      PlanNode::Sample(SamplingSpec::Bernoulli(0.5), scan));
  EXPECT_FALSE(PlanIsPartitionable(mismatched_union, ExecMode::kSampled));

  // Block sampling adjacent to the scan partitions in both modes (blocks
  // become indivisible morsel units).
  PlanPtr block = PlanNode::Sample(SamplingSpec::BlockBernoulli(0.5, 4),
                                   PlanNode::Scan("D"));
  EXPECT_TRUE(PlanIsPartitionable(block, ExecMode::kSampled));
  EXPECT_TRUE(PlanIsPartitionable(block, ExecMode::kExact));
}

TEST(ParallelExecutorTest, ExactModeMatchesRowEngineAsMultiset) {
  Catalog catalog = MakeTinyJoin(40, 3).MakeCatalog();
  PlanPtr plan = PlanNode::SelectNode(Gt(Mul(Col("v"), Col("w")), Lit(15.0)),
                                      BernoulliJoinPlan());
  Rng row_rng(5);
  ASSERT_OK_AND_ASSIGN(
      Relation row_result,
      ExecutePlan(plan, catalog, &row_rng, ExecMode::kExact));
  Rng morsel_rng(5);
  ASSERT_OK_AND_ASSIGN(
      Relation morsel_result,
      ExecutePlan(plan, catalog, &morsel_rng, ExecMode::kExact,
                  MorselOptions(4)));
  EXPECT_GT(row_result.num_rows(), 0);
  EXPECT_EQ(CanonicalRows(row_result), CanonicalRows(morsel_result));
}

TEST(ParallelExecutorTest, ThreadCountDoesNotChangeTheResult) {
  Catalog catalog = MakeTinyJoin(50, 4).MakeCatalog();
  PlanPtr plan = BernoulliJoinPlan();
  for (const ExecMode mode : {ExecMode::kSampled, ExecMode::kExact}) {
    SCOPED_TRACE(mode == ExecMode::kSampled ? "sampled" : "exact");
    Rng rng1(11);
    ASSERT_OK_AND_ASSIGN(
        Relation one_thread,
        ExecutePlan(plan, catalog, &rng1, mode, MorselOptions(1)));
    for (const int threads : {2, 4, 8}) {
      Rng rngN(11);
      ASSERT_OK_AND_ASSIGN(
          Relation n_threads,
          ExecutePlan(plan, catalog, &rngN, mode, MorselOptions(threads)));
      ExpectIdenticalRelations(one_thread, n_threads);
    }
  }
}

TEST(ParallelExecutorTest, RepeatedRunsAreBitDeterministic) {
  Catalog catalog = MakeTinyJoin(30, 5).MakeCatalog();
  PlanPtr plan = BernoulliJoinPlan();
  Rng rng1(42), rng2(42);
  ASSERT_OK_AND_ASSIGN(
      Relation first,
      ExecutePlan(plan, catalog, &rng1, ExecMode::kSampled,
                  MorselOptions(4)));
  ASSERT_OK_AND_ASSIGN(
      Relation second,
      ExecutePlan(plan, catalog, &rng2, ExecMode::kSampled,
                  MorselOptions(4)));
  ExpectIdenticalRelations(first, second);
}

TEST(ParallelExecutorTest, FallbackMatchesSerialColumnarExactly) {
  // The only scan sits under a fixed-size sampler over a *derived* input
  // (select below), so sampled mode has no partition-safe pivot: the
  // morsel engine must fall back to the serial pipeline and consume the
  // Rng identically to the columnar engine. The select keeps every row so
  // the WOR population check still matches.
  Catalog catalog = MakeTinyJoin(20, 3).MakeCatalog();
  PlanPtr plan = PlanNode::Sample(
      SamplingSpec::WithoutReplacement(17, 60),
      PlanNode::SelectNode(Gt(Col("v"), Lit(-1.0)), PlanNode::Scan("F")));
  ASSERT_FALSE(PlanIsPartitionable(plan, ExecMode::kSampled));
  Rng col_rng(9);
  ASSERT_OK_AND_ASSIGN(Relation columnar,
                       ExecutePlan(plan, catalog, &col_rng,
                                   ExecMode::kSampled, ExecEngine::kColumnar));
  Rng morsel_rng(9);
  ASSERT_OK_AND_ASSIGN(
      Relation morsel,
      ExecutePlan(plan, catalog, &morsel_rng, ExecMode::kSampled,
                  MorselOptions(4)));
  ExpectIdenticalRelations(columnar, morsel);
}

TEST(ParallelExecutorTest, StreamingReportBitIdenticalAcrossThreadCounts) {
  // TinyJoin v values are dyadic rationals, so sums are exact and the
  // bit-identity assertion is association-free.
  Catalog catalog = MakeTinyJoin(80, 4).MakeCatalog();
  ColumnarCatalog columnar(&catalog);
  PlanPtr plan = BernoulliJoinPlan();
  ASSERT_OK_AND_ASSIGN(SoaResult soa, SoaTransform(plan));
  SboxOptions options;
  options.subsample = SubsampleConfig{};
  options.subsample->target_rows = 50;

  Rng rng1(21);
  ASSERT_OK_AND_ASSIGN(
      SboxReport one,
      EstimatePlanParallel(plan, &columnar, &rng1, Col("v"), soa.top,
                           options, ExecMode::kSampled, MorselOptions(1)));
  for (const int threads : {2, 4}) {
    Rng rngN(21);
    ASSERT_OK_AND_ASSIGN(
        SboxReport many,
        EstimatePlanParallel(plan, &columnar, &rngN, Col("v"), soa.top,
                             options, ExecMode::kSampled,
                             MorselOptions(threads)));
    EXPECT_EQ(one.estimate, many.estimate);
    EXPECT_EQ(one.variance, many.variance);
    EXPECT_EQ(one.interval.lo, many.interval.lo);
    EXPECT_EQ(one.interval.hi, many.interval.hi);
    EXPECT_EQ(one.sample_rows, many.sample_rows);
    EXPECT_EQ(one.variance_rows, many.variance_rows);
    EXPECT_EQ(one.y_hat, many.y_hat);
  }
}

TEST(ParallelExecutorTest, StreamingReportMatchesMaterializedMorselRun) {
  // The merged streaming estimator must agree with materializing the morsel
  // result and running the plain SBox over it (same partitioned draw).
  Catalog catalog = MakeTinyJoin(80, 4).MakeCatalog();
  PlanPtr plan = BernoulliJoinPlan();
  ASSERT_OK_AND_ASSIGN(SoaResult soa, SoaTransform(plan));
  SboxOptions options;
  options.subsample = SubsampleConfig{};
  options.subsample->target_rows = 50;

  ColumnarCatalog col1(&catalog);
  Rng rng1(33);
  ASSERT_OK_AND_ASSIGN(
      SboxReport streamed,
      EstimatePlanParallel(plan, &col1, &rng1, Col("v"), soa.top, options,
                           ExecMode::kSampled, MorselOptions(4)));
  ColumnarCatalog col2(&catalog);
  Rng rng2(33);
  ASSERT_OK_AND_ASSIGN(
      ColumnarRelation mat,
      ExecutePlanMorsel(plan, &col2, &rng2, ExecMode::kSampled,
                        MorselOptions(4)));
  ASSERT_OK_AND_ASSIGN(
      SampleView view,
      SampleView::FromRelation(mat.ToRelation(), Col("v"),
                               soa.top.schema()));
  ASSERT_OK_AND_ASSIGN(SboxReport materialized,
                       SboxEstimate(soa.top, view, options));
  EXPECT_EQ(streamed.estimate, materialized.estimate);
  EXPECT_EQ(streamed.variance, materialized.variance);
  EXPECT_EQ(streamed.sample_rows, materialized.sample_rows);
  EXPECT_EQ(streamed.variance_rows, materialized.variance_rows);
}

TEST(ParallelExecutorTest, BatchRowsKnobDoesNotChangeColumnarResults) {
  Catalog catalog = MakeTinyJoin(40, 3).MakeCatalog();
  PlanPtr plan = PlanNode::SelectNode(Gt(Col("v"), Lit(2.0)),
                                      BernoulliJoinPlan());
  ExecOptions default_batches;
  default_batches.engine = ExecEngine::kColumnar;
  ExecOptions tiny_batches = default_batches;
  tiny_batches.batch_rows = 7;
  Rng rng1(13), rng2(13);
  ASSERT_OK_AND_ASSIGN(
      Relation a,
      ExecutePlan(plan, catalog, &rng1, ExecMode::kSampled, default_batches));
  ASSERT_OK_AND_ASSIGN(
      Relation b,
      ExecutePlan(plan, catalog, &rng2, ExecMode::kSampled, tiny_batches));
  ExpectIdenticalRelations(a, b);
}

TEST(ParallelExecutorTest, ExecOptionsValidation) {
  Catalog catalog = MakeTinyJoin(4, 2).MakeCatalog();
  Rng rng(1);
  ExecOptions bad;
  bad.engine = ExecEngine::kColumnar;
  bad.batch_rows = 0;
  EXPECT_FALSE(
      ExecutePlan(PlanNode::Scan("F"), catalog, &rng, ExecMode::kSampled, bad)
          .ok());
  bad = ExecOptions();
  bad.engine = ExecEngine::kMorselParallel;
  bad.num_threads = 0;
  EXPECT_FALSE(
      ExecutePlan(PlanNode::Scan("F"), catalog, &rng, ExecMode::kSampled, bad)
          .ok());
  // morsel_rows = 0 means "auto-size" and is valid; negatives are not.
  bad = ExecOptions();
  bad.engine = ExecEngine::kMorselParallel;
  bad.morsel_rows = -1;
  EXPECT_FALSE(
      ExecutePlan(PlanNode::Scan("F"), catalog, &rng, ExecMode::kSampled, bad)
          .ok());
  ExecOptions auto_sized;
  auto_sized.engine = ExecEngine::kMorselParallel;
  auto_sized.morsel_rows = 0;
  EXPECT_TRUE(ExecutePlan(PlanNode::Scan("F"), catalog, &rng,
                          ExecMode::kSampled, auto_sized)
                  .ok());
}

TEST(ParallelExecutorTest, Query1OverTpchRunsAndIsThreadCountInvariant) {
  TpchConfig config;
  config.num_orders = 200;
  config.num_customers = 30;
  config.num_parts = 20;
  TpchData data = GenerateTpch(config);
  Catalog catalog = data.MakeCatalog();
  Query1Params params;
  params.lineitem_p = 0.4;
  params.orders_n = 80;
  params.orders_population = 200;
  Workload q1 = MakeQuery1(params);
  // The lineitem side (Bernoulli) partitions; the orders side (WOR) runs
  // serially once and is shared.
  ASSERT_TRUE(PlanIsPartitionable(q1.plan, ExecMode::kSampled));

  Rng rng1(77), rng4(77);
  ASSERT_OK_AND_ASSIGN(
      Relation one,
      ExecutePlan(q1.plan, catalog, &rng1, ExecMode::kSampled,
                  MorselOptions(1, 64)));
  ASSERT_OK_AND_ASSIGN(
      Relation four,
      ExecutePlan(q1.plan, catalog, &rng4, ExecMode::kSampled,
                  MorselOptions(4, 64)));
  EXPECT_GT(one.num_rows(), 0);
  ExpectIdenticalRelations(one, four);
}

// -- Full pivot coverage: fixed-size, block, and union pivots ---------------

TEST(ParallelExecutorTest, WorPivotMatchesSerialRowEngineBitForBit) {
  // A fixed-size pivot is seed-decoupled: the morsel engine resolves the
  // same global keep-set from the same one-draw seed as the serial
  // engines, so the rows (and their order) coincide exactly — at every
  // thread count.
  Catalog catalog = MakeTinyJoin(40, 3).MakeCatalog();  // F: 120 rows
  PlanPtr plan = PlanNode::Join(
      PlanNode::Sample(SamplingSpec::WithoutReplacement(50, 120),
                       PlanNode::Scan("F")),
      PlanNode::Scan("D"), "fk", "pk");
  Rng row_rng(101);
  ASSERT_OK_AND_ASSIGN(Relation row_result,
                       ExecutePlan(plan, catalog, &row_rng,
                                   ExecMode::kSampled));
  EXPECT_GT(row_result.num_rows(), 0);
  for (const int threads : {1, 2, 4, 8}) {
    SCOPED_TRACE(threads);
    Rng rng(101);
    ASSERT_OK_AND_ASSIGN(
        Relation morsel,
        ExecutePlan(plan, catalog, &rng, ExecMode::kSampled,
                    MorselOptions(threads)));
    ExpectIdenticalRelations(row_result, morsel);
  }
}

TEST(ParallelExecutorTest, WrDistinctPivotMatchesSerialRowEngineBitForBit) {
  Catalog catalog = MakeTinyJoin(30, 4).MakeCatalog();  // F: 120 rows
  PlanPtr plan = PlanNode::Sample(
      SamplingSpec::WithReplacementDistinct(40, 120), PlanNode::Scan("F"));
  Rng row_rng(102);
  ASSERT_OK_AND_ASSIGN(Relation row_result,
                       ExecutePlan(plan, catalog, &row_rng,
                                   ExecMode::kSampled));
  EXPECT_GT(row_result.num_rows(), 0);
  for (const int threads : {1, 4}) {
    SCOPED_TRACE(threads);
    Rng rng(102);
    ASSERT_OK_AND_ASSIGN(
        Relation morsel,
        ExecutePlan(plan, catalog, &rng, ExecMode::kSampled,
                    MorselOptions(threads)));
    ExpectIdenticalRelations(row_result, morsel);
  }
}

TEST(ParallelExecutorTest, BlockPivotMatchesSerialRowEngineBitForBit) {
  // Block decisions are pure functions of (seed, block id) and the unit
  // split aligns to whole blocks — a block size that does not divide the
  // requested morsel_rows exercises the alignment.
  Catalog catalog = MakeTinyJoin(120, 1).MakeCatalog();  // D: 120 rows
  PlanPtr plan = PlanNode::SelectNode(
      Gt(Col("w"), Lit(5.0)),
      PlanNode::Sample(SamplingSpec::BlockBernoulli(0.5, 12),
                       PlanNode::Scan("D")));
  ColumnarCatalog columnar(&catalog);
  ASSERT_OK_AND_ASSIGN(
      MorselSplit split,
      AnalyzeMorselSplit(plan, &columnar, ExecMode::kSampled,
                         MorselOptions(1, 16)));
  EXPECT_TRUE(split.partitionable);
  EXPECT_EQ(12, split.block_align);
  EXPECT_EQ(0, split.morsel_rows % 12);  // blocks are indivisible units

  Rng row_rng(103);
  ASSERT_OK_AND_ASSIGN(Relation row_result,
                       ExecutePlan(plan, catalog, &row_rng,
                                   ExecMode::kSampled));
  EXPECT_GT(row_result.num_rows(), 0);
  for (const int threads : {1, 2, 4, 8}) {
    SCOPED_TRACE(threads);
    Rng rng(103);
    ASSERT_OK_AND_ASSIGN(
        Relation morsel,
        ExecutePlan(plan, catalog, &rng, ExecMode::kSampled,
                    MorselOptions(threads, 16)));
    ExpectIdenticalRelations(row_result, morsel);
  }
}

TEST(ParallelExecutorTest, UnionPivotMatchesSerialRowEngineAsMultiset) {
  // Union partitions via lineage: each slice runs both branch pipelines
  // and dedups locally. The sample multiset equals the serial engines'
  // (both branches here are seed-decoupled / Rng-free); the row ORDER
  // interleaves by morsel, hence the canonical comparison.
  Catalog catalog = MakeTinyJoin(40, 3).MakeCatalog();  // F: 120 rows
  PlanPtr scan = PlanNode::Scan("F");
  PlanPtr plan = PlanNode::Union(
      PlanNode::Sample(SamplingSpec::LineageBernoulli("F", 0.4, 7), scan),
      PlanNode::Sample(SamplingSpec::WithoutReplacement(30, 120), scan));
  ASSERT_TRUE(PlanIsPartitionable(plan, ExecMode::kSampled));
  Rng row_rng(104);
  ASSERT_OK_AND_ASSIGN(Relation row_result,
                       ExecutePlan(plan, catalog, &row_rng,
                                   ExecMode::kSampled));
  EXPECT_GT(row_result.num_rows(), 0);
  Relation first;
  for (const int threads : {1, 2, 4, 8}) {
    SCOPED_TRACE(threads);
    Rng rng(104);
    ASSERT_OK_AND_ASSIGN(
        Relation morsel,
        ExecutePlan(plan, catalog, &rng, ExecMode::kSampled,
                    MorselOptions(threads)));
    EXPECT_EQ(CanonicalRows(row_result), CanonicalRows(morsel));
    if (threads == 1) {
      first = morsel;
      continue;
    }
    ExpectIdenticalRelations(first, morsel);  // bit-equal across threads
  }
}

TEST(ParallelExecutorTest, UnionOfBernoulliBranchesIsThreadInvariant) {
  // Plain-Bernoulli branches draw from per-morsel streams (a different,
  // equally valid draw than the serial engines') — but the union result
  // must still be bit-identical across thread counts.
  Catalog catalog = MakeTinyJoin(50, 2).MakeCatalog();
  PlanPtr scan = PlanNode::Scan("F");
  PlanPtr plan = PlanNode::Union(
      PlanNode::Sample(SamplingSpec::Bernoulli(0.5), scan),
      PlanNode::Sample(SamplingSpec::Bernoulli(0.5), scan));
  ASSERT_TRUE(PlanIsPartitionable(plan, ExecMode::kSampled));
  Rng rng1(105);
  ASSERT_OK_AND_ASSIGN(
      Relation one, ExecutePlan(plan, catalog, &rng1, ExecMode::kSampled,
                                MorselOptions(1)));
  EXPECT_GT(one.num_rows(), 0);
  for (const int threads : {2, 4, 8}) {
    SCOPED_TRACE(threads);
    Rng rngN(105);
    ASSERT_OK_AND_ASSIGN(
        Relation many, ExecutePlan(plan, catalog, &rngN, ExecMode::kSampled,
                                   MorselOptions(threads)));
    ExpectIdenticalRelations(one, many);
  }
}

// -- Execution profiling, sink arenas, and placement ------------------------

TEST(ParallelExecutorTest, ExecStatsProfileAccountsForTheRun) {
  Catalog catalog = MakeTinyJoin(80, 4).MakeCatalog();  // F: 320 rows
  PlanPtr plan = BernoulliJoinPlan();
  ExecOptions exec = MorselOptions(4);  // morsel_rows=16 -> 20 morsels
  ExecStats stats;
  exec.stats = &stats;
  Rng rng(55);
  ASSERT_OK_AND_ASSIGN(
      Relation result,
      ExecutePlan(plan, catalog, &rng, ExecMode::kSampled, exec));
  EXPECT_GT(result.num_rows(), 0);

  EXPECT_FALSE(stats.serial_fallback);
  EXPECT_GT(stats.total_ms, 0.0);
  // The additive phases never exceed the whole call; sink_fold_ms overlaps
  // parallel_ms and is deliberately excluded from the sum.
  EXPECT_LE(stats.prepare_ms + stats.parallel_ms + stats.gather_ms,
            stats.total_ms + 0.5);
  EXPECT_LE(stats.sink_fold_ms, stats.total_ms + 0.5);

  EXPECT_EQ(320, stats.pivot_rows);
  EXPECT_EQ(16, stats.morsel_rows);
  EXPECT_EQ(20, stats.morsels);
  EXPECT_GE(stats.workers, 1);
  EXPECT_LE(stats.workers, 4);
  ASSERT_EQ(static_cast<size_t>(stats.workers),
            stats.worker_morsels.size());
  int64_t claimed = 0;
  for (const int64_t c : stats.worker_morsels) claimed += c;
  EXPECT_EQ(stats.morsels, claimed);
  // Every morsel's sink is either freshly made or served from the arena.
  EXPECT_EQ(stats.morsels, stats.sinks_created + stats.sinks_recycled);
  EXPECT_EQ(result.num_rows(), stats.rows_emitted);
  EXPECT_GT(stats.bytes_moved, 0);
}

TEST(ParallelExecutorTest, SinkArenaRecyclingKeepsEstimatesBitIdentical) {
  // The recycled-estimator arena must be invisible in the results: every
  // thread count produces the same report bit for bit, while the stats
  // prove the arena actually served morsels.
  Catalog catalog = MakeTinyJoin(80, 4).MakeCatalog();  // F: 320 rows
  ColumnarCatalog columnar(&catalog);
  PlanPtr plan = BernoulliJoinPlan();
  ASSERT_OK_AND_ASSIGN(SoaResult soa, SoaTransform(plan));
  SboxOptions options;
  options.subsample = SubsampleConfig{};
  options.subsample->target_rows = 50;

  SboxReport baseline;
  for (const int threads : {1, 2, 4, 8}) {
    SCOPED_TRACE(threads);
    ExecOptions exec = MorselOptions(threads);  // 20 morsels
    ExecStats stats;
    exec.stats = &stats;
    Rng rng(21);
    ASSERT_OK_AND_ASSIGN(
        SboxReport report,
        EstimatePlanParallel(plan, &columnar, &rng, Col("v"), soa.top,
                             options, ExecMode::kSampled, exec));
    EXPECT_EQ(stats.morsels, stats.sinks_created + stats.sinks_recycled);
    if (threads == 1) {
      // Strictly serial fold: morsel 0's sink becomes the merge target and
      // one more sink cycles through the arena for every later morsel.
      EXPECT_EQ(2, stats.sinks_created);
      EXPECT_EQ(stats.morsels - 2, stats.sinks_recycled);
      baseline = report;
      continue;
    }
    EXPECT_EQ(baseline.estimate, report.estimate);
    EXPECT_EQ(baseline.variance, report.variance);
    EXPECT_EQ(baseline.interval.lo, report.interval.lo);
    EXPECT_EQ(baseline.interval.hi, report.interval.hi);
    EXPECT_EQ(baseline.sample_rows, report.sample_rows);
    EXPECT_EQ(baseline.variance_rows, report.variance_rows);
  }
}

TEST(ParallelExecutorTest, EstimateTimeIsRecordedAndChangesNothing) {
  // estimate_ms times the estimator Finish after the engine call; turning
  // the stats on must not move a bit of the report, in-process or through
  // the sharded gather's fold.
  Catalog catalog = MakeTinyJoin(80, 4).MakeCatalog();
  ColumnarCatalog columnar(&catalog);
  PlanPtr plan = BernoulliJoinPlan();
  ASSERT_OK_AND_ASSIGN(SoaResult soa, SoaTransform(plan));
  SboxOptions options;
  options.subsample = SubsampleConfig{};
  options.subsample->target_rows = 50;
  const auto expect_same = [](const SboxReport& a, const SboxReport& b) {
    EXPECT_EQ(a.estimate, b.estimate);
    EXPECT_EQ(a.variance, b.variance);
    EXPECT_EQ(a.interval.lo, b.interval.lo);
    EXPECT_EQ(a.interval.hi, b.interval.hi);
    EXPECT_EQ(a.sample_rows, b.sample_rows);
    EXPECT_EQ(a.variance_rows, b.variance_rows);
    EXPECT_EQ(a.y_hat, b.y_hat);
  };

  Rng rng_off(21);
  ASSERT_OK_AND_ASSIGN(
      SboxReport off,
      EstimatePlanParallel(plan, &columnar, &rng_off, Col("v"), soa.top,
                           options, ExecMode::kSampled, MorselOptions(4)));
  ExecOptions exec = MorselOptions(4);
  ExecStats stats;
  exec.stats = &stats;
  Rng rng_on(21);
  ASSERT_OK_AND_ASSIGN(
      SboxReport on,
      EstimatePlanParallel(plan, &columnar, &rng_on, Col("v"), soa.top,
                           options, ExecMode::kSampled, exec));
  EXPECT_GT(stats.estimate_ms, 0.0);
  expect_same(off, on);

  ExecOptions sharded = MorselOptions(2);
  ASSERT_OK_AND_ASSIGN(
      FaultTolerantResult shard_off,
      FaultTolerantShardedSboxEstimate(plan, catalog, 21, ExecMode::kSampled,
                                       sharded, /*num_shards=*/3, Col("v"),
                                       soa.top, options));
  ExecStats shard_stats;
  sharded.stats = &shard_stats;
  ASSERT_OK_AND_ASSIGN(
      FaultTolerantResult shard_on,
      FaultTolerantShardedSboxEstimate(plan, catalog, 21, ExecMode::kSampled,
                                       sharded, /*num_shards=*/3, Col("v"),
                                       soa.top, options));
  EXPECT_GT(shard_stats.estimate_ms, 0.0);
  expect_same(shard_off.report, shard_on.report);
}

TEST(ParallelExecutorTest, PlacementKnobDoesNotChangeResults) {
  // kDynamic vs kRangeBound only changes which worker runs which morsel;
  // per-morsel streams and the ascending fold make results placement-blind.
  Catalog catalog = MakeTinyJoin(80, 4).MakeCatalog();
  PlanPtr plan = BernoulliJoinPlan();
  ExecOptions dynamic = MorselOptions(4);
  dynamic.placement = MorselPlacement::kDynamic;
  ExecOptions bound = MorselOptions(4);
  bound.placement = MorselPlacement::kRangeBound;

  Rng rng1(303), rng2(303);
  ASSERT_OK_AND_ASSIGN(
      Relation a,
      ExecutePlan(plan, catalog, &rng1, ExecMode::kSampled, dynamic));
  ASSERT_OK_AND_ASSIGN(
      Relation b,
      ExecutePlan(plan, catalog, &rng2, ExecMode::kSampled, bound));
  EXPECT_GT(a.num_rows(), 0);
  ExpectIdenticalRelations(a, b);

  ColumnarCatalog columnar(&catalog);
  ASSERT_OK_AND_ASSIGN(SoaResult soa, SoaTransform(plan));
  Rng rng3(303), rng4(303);
  ASSERT_OK_AND_ASSIGN(
      SboxReport ra,
      EstimatePlanParallel(plan, &columnar, &rng3, Col("v"), soa.top, {},
                           ExecMode::kSampled, dynamic));
  ASSERT_OK_AND_ASSIGN(
      SboxReport rb,
      EstimatePlanParallel(plan, &columnar, &rng4, Col("v"), soa.top, {},
                           ExecMode::kSampled, bound));
  EXPECT_EQ(ra.estimate, rb.estimate);
  EXPECT_EQ(ra.variance, rb.variance);
  EXPECT_EQ(ra.interval.lo, rb.interval.lo);
  EXPECT_EQ(ra.interval.hi, rb.interval.hi);
}

TEST(ParallelExecutorTest, MergedReservoirEstimateIsMonteCarloUnbiased) {
  // The mergeable-reservoir WOR pivot across many morsels and 4 workers:
  // the estimator over the folded global top-n must stay unbiased.
  Catalog catalog = MakeTinyJoin(60, 3).MakeCatalog();  // 180 fact rows
  PlanPtr plan = PlanNode::Sample(SamplingSpec::WithoutReplacement(60, 180),
                                  PlanNode::Scan("F"));
  ASSERT_OK_AND_ASSIGN(SoaResult soa, SoaTransform(plan));

  Rng exact_rng(0);
  ASSERT_OK_AND_ASSIGN(
      Relation exact,
      ExecutePlan(plan, catalog, &exact_rng, ExecMode::kExact));
  ASSERT_OK_AND_ASSIGN(
      SampleView exact_view,
      SampleView::FromRelation(exact, Col("v"), soa.top.schema()));
  const double truth = exact_view.SumF();

  ColumnarCatalog columnar(&catalog);
  double sum = 0.0;
  const int trials = 400;
  for (int t = 0; t < trials; ++t) {
    Rng rng(5000 + t);
    ASSERT_OK_AND_ASSIGN(
        SboxReport report,
        EstimatePlanParallel(plan, &columnar, &rng, Col("v"), soa.top, {},
                             ExecMode::kSampled, MorselOptions(4)));
    sum += report.estimate;
  }
  const double mean = sum / trials;
  // WOR(60 of 180) has per-trial stddev ~2-3% of the truth; 400 trials
  // put the mean well inside 1%.
  EXPECT_NEAR(truth, mean, 0.01 * truth);
}

TEST(ParallelExecutorTest, MonteCarloUnbiasedAtEveryThreadCount) {
  // The partitioned draw differs from the serial engines' but must follow
  // the same design: the estimator stays unbiased at every thread count.
  Catalog catalog = MakeTinyJoin(60, 3).MakeCatalog();  // 180 fact rows
  PlanPtr plan =
      PlanNode::Sample(SamplingSpec::Bernoulli(0.5), PlanNode::Scan("F"));
  ASSERT_OK_AND_ASSIGN(SoaResult soa, SoaTransform(plan));

  // Exact aggregate.
  Rng exact_rng(0);
  ASSERT_OK_AND_ASSIGN(
      Relation exact, ExecutePlan(plan, catalog, &exact_rng,
                                  ExecMode::kExact));
  ASSERT_OK_AND_ASSIGN(
      SampleView exact_view,
      SampleView::FromRelation(exact, Col("v"), soa.top.schema()));
  const double truth = exact_view.SumF();

  for (const int threads : {1, 4}) {
    SCOPED_TRACE(threads);
    ColumnarCatalog columnar(&catalog);
    double sum = 0.0;
    const int trials = 400;
    for (int t = 0; t < trials; ++t) {
      Rng rng(1000 + t);
      ASSERT_OK_AND_ASSIGN(
          SboxReport report,
          EstimatePlanParallel(plan, &columnar, &rng, Col("v"), soa.top, {},
                               ExecMode::kSampled, MorselOptions(threads)));
      sum += report.estimate;
    }
    const double mean = sum / trials;
    // Per-trial stddev is ~3% of the truth here; 400 trials put the mean
    // within ~0.15% — a 1% tolerance is ~6 sigma, deterministic in the
    // fixed seeds anyway.
    EXPECT_NEAR(truth, mean, 0.01 * truth);
  }
}

TEST(ParallelExecutorTest, StoreCountersObeyAccountingInvariant) {
  // Cold cache, one thread, a single segment-backed relation: every
  // segment of the pivot is either skipped by the pruner or faulted in
  // exactly once — segments_skipped + segments_faulted == segments_total.
  Catalog catalog;
  catalog["R"] = gus::testing::MakeSingleTable(512);
  const std::string dir =
      ::testing::TempDir() + "/gus_store_accounting";
  std::filesystem::remove_all(dir);
  ASSERT_OK(WriteCatalogSegments(catalog, dir, /*segment_rows=*/32));
  ASSERT_OK_AND_ASSIGN(auto stored_catalog, SegmentCatalog::Open(dir));

  // v in [1, 512]; v <= 96 keeps only the first 3 of 16 segments.
  PlanPtr plan = PlanNode::SelectNode(
      Le(Col("v"), Lit(96.0)),
      PlanNode::Sample(SamplingSpec::Bernoulli(0.5), PlanNode::Scan("R")));
  ExecOptions exec;
  exec.engine = ExecEngine::kMorselParallel;
  exec.num_threads = 1;
  exec.morsel_rows = 32;
  ExecStats stats;
  exec.stats = &stats;
  Rng rng(11);
  ASSERT_OK_AND_ASSIGN(ColumnarRelation result,
                       ExecutePlanMorsel(plan, stored_catalog.get(), &rng,
                                         ExecMode::kSampled, exec));
  EXPECT_GT(result.num_rows(), 0);
  EXPECT_EQ(16, stats.segments_total);
  EXPECT_GT(stats.segments_skipped, 0);
  EXPECT_EQ(stats.segments_total,
            stats.segments_skipped + stats.segments_faulted);
  EXPECT_GT(stats.store_bytes_read, 0);
}

}  // namespace
}  // namespace gus
