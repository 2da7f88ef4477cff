// The shared-nothing distributed estimation layer (src/dist/): shard-count
// invariance of estimates and confidence intervals, parity with the
// in-process morsel engine and (for Rng-free plans) the serial engines,
// transport round-trips, and loud failure on every inconsistency the
// gather coordinator can detect.

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "algebra/translate.h"
#include "data/tpch_gen.h"
#include "data/workload.h"
#include "dist/coordinator.h"
#include "dist/shard.h"
#include "dist/transport.h"
#include "dist/worker.h"
#include "est/streaming.h"
#include "est/wire.h"
#include "plan/columnar_executor.h"
#include "plan/parallel_executor.h"
#include "plan/soa_transform.h"
#include "plan/exec_stats.h"
#include "test_util.h"
#include "util/fault_inject.h"

namespace gus {
namespace {

using ::gus::testing::ColumnarExec;
using ::gus::testing::MakeTinyJoin;

void ExpectReportsIdentical(const SboxReport& x, const SboxReport& y) {
  EXPECT_EQ(x.estimate, y.estimate);
  EXPECT_EQ(x.variance, y.variance);
  EXPECT_EQ(x.stddev, y.stddev);
  EXPECT_EQ(x.interval.lo, y.interval.lo);
  EXPECT_EQ(x.interval.hi, y.interval.hi);
  EXPECT_EQ(x.sample_rows, y.sample_rows);
  EXPECT_EQ(x.variance_rows, y.variance_rows);
  EXPECT_EQ(x.y_hat, y.y_hat);
}

/// Query 1 at test scale with everything the estimator needs prebuilt.
struct Query1Fixture {
  TpchData data;
  Catalog catalog;
  Workload q1;
  SoaResult soa;
  SboxOptions options;
  ExecOptions exec;

  Query1Fixture() {
    TpchConfig config;
    config.num_orders = 300;
    config.num_customers = 40;
    config.num_parts = 30;
    data = GenerateTpch(config);
    catalog = data.MakeCatalog();
    Query1Params params;
    params.lineitem_p = 0.4;
    params.orders_n = 120;
    params.orders_population = 300;
    q1 = MakeQuery1(params);
    soa = SoaTransform(q1.plan).ValueOrDie();
    options.subsample = SubsampleConfig{};
    options.subsample->target_rows = 200;  // engage Section 7 retention
    exec.morsel_rows = 64;  // many units at this scale
  }
};

TEST(DistTest, ShardPlanTilesTheUnitSequence) {
  Query1Fixture fx;
  ColumnarCatalog columnar(&fx.catalog);
  const ExecOptions normalized = ShardedExecOptions(fx.exec);
  int64_t units_at_one = -1;
  for (const int num_shards : {1, 2, 3, 8, 64}) {
    SCOPED_TRACE(num_shards);
    ASSERT_OK_AND_ASSIGN(
        ShardPlan sp, PlanShards(fx.q1.plan, &columnar, ExecMode::kSampled,
                                 normalized, num_shards));
    EXPECT_TRUE(sp.split.partitionable);
    if (units_at_one < 0) units_at_one = sp.split.num_units;
    // The unit sequence never depends on the shard count.
    EXPECT_EQ(units_at_one, sp.split.num_units);
    ASSERT_EQ(static_cast<size_t>(num_shards), sp.shards.size());
    int64_t covered = 0;
    for (int k = 0; k < num_shards; ++k) {
      EXPECT_EQ(covered, sp.shards[k].unit_begin);
      EXPECT_LE(sp.shards[k].unit_begin, sp.shards[k].unit_end);
      covered = sp.shards[k].unit_end;
    }
    EXPECT_EQ(sp.split.num_units, covered);
  }
  EXPECT_GT(units_at_one, 8);  // the fixture really exercises multi-unit shards
}

TEST(DistTest, EstimateBitIdenticalAcrossShardCounts) {
  Query1Fixture fx;
  ASSERT_OK_AND_ASSIGN(
      SboxReport one,
      ShardedSboxEstimate(fx.q1.plan, fx.catalog, /*seed=*/17,
                          ExecMode::kSampled, fx.exec, /*num_shards=*/1,
                          fx.q1.aggregate, fx.soa.top, fx.options));
  EXPECT_GT(one.sample_rows, 0);
  for (const int num_shards : {2, 4, 8}) {
    SCOPED_TRACE(num_shards);
    ASSERT_OK_AND_ASSIGN(
        SboxReport sharded,
        ShardedSboxEstimate(fx.q1.plan, fx.catalog, 17, ExecMode::kSampled,
                            fx.exec, num_shards, fx.q1.aggregate, fx.soa.top,
                            fx.options));
    ExpectReportsIdentical(one, sharded);
  }
}

TEST(DistTest, ShardedMatchesMorselEngine) {
  // The sharded gather must reproduce EstimatePlanParallel at the same
  // (seed, morsel_rows) bit for bit — sharding only re-partitions the same
  // global unit sequence.
  Query1Fixture fx;
  ColumnarCatalog columnar(&fx.catalog);
  const ExecOptions normalized = ShardedExecOptions(fx.exec);
  for (const int num_threads : {1, 4}) {
    SCOPED_TRACE(num_threads);
    ExecOptions exec = normalized;
    exec.engine = ExecEngine::kMorselParallel;
    exec.num_threads = num_threads;
    Rng rng(17);
    ASSERT_OK_AND_ASSIGN(
        SboxReport morsel,
        EstimatePlanParallel(fx.q1.plan, &columnar, &rng, fx.q1.aggregate,
                             fx.soa.top, fx.options, ExecMode::kSampled,
                             exec));
    ASSERT_OK_AND_ASSIGN(
        SboxReport sharded,
        ShardedSboxEstimate(fx.q1.plan, fx.catalog, 17, ExecMode::kSampled,
                            exec, /*num_shards=*/3, fx.q1.aggregate,
                            fx.soa.top, fx.options));
    ExpectReportsIdentical(morsel, sharded);
  }
}

TEST(DistTest, FileTransportMatchesLocal) {
  Query1Fixture fx;
  ASSERT_OK_AND_ASSIGN(
      SboxReport local,
      ShardedSboxEstimate(fx.q1.plan, fx.catalog, 23, ExecMode::kSampled,
                          fx.exec, /*num_shards=*/3, fx.q1.aggregate,
                          fx.soa.top, fx.options));
  FileTransport files(::testing::TempDir() + "/gus_dist_test");
  ASSERT_OK_AND_ASSIGN(
      SboxReport viafiles,
      ShardedSboxEstimate(fx.q1.plan, fx.catalog, 23, ExecMode::kSampled,
                          fx.exec, /*num_shards=*/3, fx.q1.aggregate,
                          fx.soa.top, fx.options, &files));
  ExpectReportsIdentical(local, viafiles);
}

TEST(DistTest, MoreShardsThanUnitsYieldsEmptyShards) {
  Query1Fixture fx;
  ExecOptions coarse = fx.exec;
  coarse.morsel_rows = int64_t{1} << 20;  // one unit for the whole pivot
  ASSERT_OK_AND_ASSIGN(
      SboxReport one,
      ShardedSboxEstimate(fx.q1.plan, fx.catalog, 29, ExecMode::kSampled,
                          coarse, /*num_shards=*/1, fx.q1.aggregate,
                          fx.soa.top, fx.options));
  ASSERT_OK_AND_ASSIGN(
      SboxReport eight,
      ShardedSboxEstimate(fx.q1.plan, fx.catalog, 29, ExecMode::kSampled,
                          coarse, /*num_shards=*/8, fx.q1.aggregate,
                          fx.soa.top, fx.options));
  ExpectReportsIdentical(one, eight);
  EXPECT_GT(one.sample_rows, 0);
}

TEST(DistTest, SerialFallbackPlanStillShards) {
  // A fixed-size sampler over a derived input (select below) has no
  // partition-safe pivot: the plan executes as one serial unit on
  // whichever shard owns it, and the result matches the serial streaming
  // estimator bit for bit (same Rng(seed) consumption). The select keeps
  // every row so the WOR population check still matches.
  Catalog catalog = MakeTinyJoin(64, 1).MakeCatalog();
  PlanPtr plan = PlanNode::Sample(
      SamplingSpec::WithoutReplacement(20, 64),
      PlanNode::SelectNode(Gt(Col("w"), Lit(0.0)), PlanNode::Scan("D")));
  ASSERT_FALSE(PlanIsPartitionable(plan, ExecMode::kSampled));
  ASSERT_OK_AND_ASSIGN(SoaResult soa, SoaTransform(plan));
  ExprPtr f = Col("w");

  ColumnarCatalog columnar(&catalog);
  Rng rng(31);
  ASSERT_OK_AND_ASSIGN(
      SboxReport serial,
      EstimatePlanParallel(plan, &columnar, &rng, f, soa.top, {},
                           ExecMode::kSampled, ColumnarExec()));
  for (const int num_shards : {1, 3}) {
    SCOPED_TRACE(num_shards);
    ASSERT_OK_AND_ASSIGN(
        SboxReport sharded,
        ShardedSboxEstimate(plan, catalog, 31, ExecMode::kSampled, {},
                            num_shards, f, soa.top, {}));
    ExpectReportsIdentical(serial, sharded);
  }
}

TEST(DistTest, UnionPlanShardsAndMatchesSerialStreaming) {
  // Union plans now partition (lineage-hash slices, local dedup): with
  // Rng-free / seed-decoupled branches the sharded sample IS the serial
  // sample, and on dyadic data the reports agree bit for bit at every
  // shard count.
  Catalog catalog = MakeTinyJoin(64, 1).MakeCatalog();
  PlanPtr scan = PlanNode::Scan("D");
  PlanPtr plan = PlanNode::Union(
      PlanNode::Sample(SamplingSpec::LineageBernoulli("D", 0.5, 13), scan),
      PlanNode::Sample(SamplingSpec::WithoutReplacement(20, 64), scan));
  ASSERT_TRUE(PlanIsPartitionable(plan, ExecMode::kSampled));
  ASSERT_OK_AND_ASSIGN(SoaResult soa, SoaTransform(plan));
  ExprPtr f = Col("w");

  ColumnarCatalog columnar(&catalog);
  Rng rng(33);
  ASSERT_OK_AND_ASSIGN(
      SboxReport serial,
      EstimatePlanParallel(plan, &columnar, &rng, f, soa.top, {},
                           ExecMode::kSampled, ColumnarExec()));
  ExecOptions exec;
  exec.morsel_rows = 16;
  for (const int num_shards : {1, 2, 4}) {
    SCOPED_TRACE(num_shards);
    ASSERT_OK_AND_ASSIGN(
        SboxReport sharded,
        ShardedSboxEstimate(plan, catalog, 33, ExecMode::kSampled, exec,
                            num_shards, f, soa.top, {}));
    ExpectReportsIdentical(serial, sharded);
  }
}

TEST(DistTest, WorkerRejectsDivergentBaseDataBeforeExecuting) {
  // The coordinator hands its PlanCatalogFingerprint to the worker; a
  // worker holding different base data refuses before running any unit.
  Query1Fixture fx;
  ColumnarCatalog columnar(&fx.catalog);
  ASSERT_OK_AND_ASSIGN(const uint64_t fingerprint,
                       PlanCatalogFingerprint(fx.q1.plan, &columnar));
  // Matching fingerprint: executes fine.
  ASSERT_OK(RunShardSbox(fx.q1.plan, &columnar, 7, ExecMode::kSampled,
                         fx.exec, 0, 2, fx.q1.aggregate, fx.soa.top,
                         fx.options, fingerprint)
                .status());
  // Divergent fingerprint: loud refusal before execution.
  const Status st =
      RunShardSbox(fx.q1.plan, &columnar, 7, ExecMode::kSampled, fx.exec, 0,
                   2, fx.q1.aggregate, fx.soa.top, fx.options,
                   fingerprint ^ 1)
          .status();
  EXPECT_STATUS_CODE(kInvalidArgument, st);
  EXPECT_NE(std::string::npos, st.message().find("refusing to execute"));
}

TEST(DistTest, GatherRejectsDivergentBaseData) {
  // Two workers run from the same seed but against catalogs whose base
  // data differs by one value: the Rng fingerprints and stream bases
  // agree (draw counts are data-independent here), so the catalog
  // fingerprint is what catches the divergence at gather.
  Catalog catalog_a = MakeTinyJoin(40, 3).MakeCatalog();
  Catalog catalog_b = MakeTinyJoin(40, 3).MakeCatalog();
  {
    Relation& d = catalog_b.at("D");
    Relation patched(d.schema(), d.lineage_schema());
    for (int64_t i = 0; i < d.num_rows(); ++i) {
      Row row = d.row(i);
      if (i == 0) row[1] = Value(row[1].ToDouble() + 1.0);
      patched.AppendRow(row, d.lineage(i));
    }
    catalog_b.at("D") = std::move(patched);
  }
  PlanPtr plan = PlanNode::Join(
      PlanNode::Sample(SamplingSpec::Bernoulli(0.5), PlanNode::Scan("F")),
      PlanNode::Scan("D"), "fk", "pk");
  ASSERT_OK_AND_ASSIGN(SoaResult soa, SoaTransform(plan));
  ExprPtr f = Mul(Col("v"), Col("w"));
  ExecOptions exec;
  exec.morsel_rows = 16;

  ColumnarCatalog columnar_a(&catalog_a);
  ColumnarCatalog columnar_b(&catalog_b);
  LocalTransport transport;
  ASSERT_OK_AND_ASSIGN(
      std::string bundle0,
      RunShardSbox(plan, &columnar_a, 7, ExecMode::kSampled, exec, 0, 2, f,
                   soa.top, {}));
  ASSERT_OK_AND_ASSIGN(
      std::string bundle1,
      RunShardSbox(plan, &columnar_b, 7, ExecMode::kSampled, exec, 1, 2, f,
                   soa.top, {}));
  ASSERT_OK(transport.Send(0, std::move(bundle0)));
  ASSERT_OK(transport.Send(1, std::move(bundle1)));
  const Status st = GatherSboxEstimate(&transport, 2).status();
  EXPECT_STATUS_CODE(kInvalidArgument, st);
  EXPECT_NE(std::string::npos, st.message().find("divergent base data"));
}

TEST(DistTest, SamplerStatePayloadRoundTripsAndValidates) {
  std::vector<ResolvedPivotSampler> samplers(2);
  samplers[0].method = 1;
  samplers[0].seed = 0x1111222233334444ULL;
  samplers[0].fingerprint = 0x5555666677778888ULL;
  samplers[1].method = 3;
  samplers[1].seed = 42;
  samplers[1].fingerprint = 43;
  const std::string bytes = SamplerStateToBytes(samplers);
  ASSERT_OK_AND_ASSIGN(std::vector<ResolvedPivotSampler> decoded,
                       SamplerStateFromBytes(bytes));
  ASSERT_EQ(samplers.size(), decoded.size());
  EXPECT_TRUE(samplers[0] == decoded[0]);
  EXPECT_TRUE(samplers[1] == decoded[1]);
  // Truncation fails loudly.
  EXPECT_STATUS_CODE(
      kInvalidArgument,
      SamplerStateFromBytes(std::string_view(bytes).substr(0, bytes.size() - 3))
          .status());
  // Cross-shard divergence is refused.
  std::vector<ResolvedPivotSampler> other = samplers;
  other[1].fingerprint ^= 1;
  EXPECT_STATUS_CODE(
      kInvalidArgument,
      ValidateShardSamplerStates({SamplerStateToBytes(samplers),
                                  SamplerStateToBytes(other)}));
  ASSERT_OK(ValidateShardSamplerStates({SamplerStateToBytes(samplers),
                                        SamplerStateToBytes(samplers)}));
}

TEST(DistTest, ExactModeMatchesSerialAndMorsel) {
  // In exact mode no sampler consumes randomness, so the shard workers
  // see exactly the serial engines' rows. The *estimate* is bit-identical
  // to the morsel engine (same per-unit summation segments) and agrees
  // with the serial streaming path up to floating-point summation
  // association — the serial engine folds one long accumulator while the
  // partitioned engines fold per-unit partial sums.
  Query1Fixture fx;
  ColumnarCatalog columnar(&fx.catalog);
  Rng serial_rng(37);
  ASSERT_OK_AND_ASSIGN(
      SboxReport serial,
      EstimatePlanParallel(fx.q1.plan, &columnar, &serial_rng,
                           fx.q1.aggregate, fx.soa.top, fx.options,
                           ExecMode::kExact, ColumnarExec()));
  Rng morsel_rng(37);
  ExecOptions morsel_exec = ShardedExecOptions(fx.exec);
  morsel_exec.engine = ExecEngine::kMorselParallel;
  ASSERT_OK_AND_ASSIGN(
      SboxReport morsel,
      EstimatePlanParallel(fx.q1.plan, &columnar, &morsel_rng,
                           fx.q1.aggregate, fx.soa.top, fx.options,
                           ExecMode::kExact, morsel_exec));
  for (const int num_shards : {1, 4}) {
    SCOPED_TRACE(num_shards);
    ASSERT_OK_AND_ASSIGN(
        SboxReport sharded,
        ShardedSboxEstimate(fx.q1.plan, fx.catalog, 37, ExecMode::kExact,
                            fx.exec, num_shards, fx.q1.aggregate, fx.soa.top,
                            fx.options));
    ExpectReportsIdentical(morsel, sharded);
    EXPECT_EQ(serial.sample_rows, sharded.sample_rows);
    EXPECT_NEAR(serial.estimate, sharded.estimate,
                1e-12 * std::abs(serial.estimate));
  }
}

TEST(DistTest, LineageBernoulliMatchesSerialEngines) {
  // Lineage-seeded Bernoulli decisions are Rng-free, so the sharded draw
  // IS the serial draw: estimates agree with the serial engines bitwise
  // even in sampled mode.
  Catalog catalog = MakeTinyJoin(128, 4).MakeCatalog();
  PlanPtr plan = PlanNode::Join(
      PlanNode::Sample(SamplingSpec::LineageBernoulli("F", 0.4, 77),
                       PlanNode::Scan("F")),
      PlanNode::Scan("D"), "fk", "pk");
  ASSERT_OK_AND_ASSIGN(SoaResult soa, SoaTransform(plan));
  ExprPtr f = Mul(Col("v"), Col("w"));

  ColumnarCatalog columnar(&catalog);
  Rng rng(41);
  ASSERT_OK_AND_ASSIGN(
      SboxReport serial,
      EstimatePlanParallel(plan, &columnar, &rng, f, soa.top, {},
                           ExecMode::kSampled, ColumnarExec()));
  ExecOptions exec;
  exec.morsel_rows = 64;
  for (const int num_shards : {1, 3}) {
    SCOPED_TRACE(num_shards);
    ASSERT_OK_AND_ASSIGN(
        SboxReport sharded,
        ShardedSboxEstimate(plan, catalog, 41, ExecMode::kSampled, exec,
                            num_shards, f, soa.top, {}));
    ExpectReportsIdentical(serial, sharded);
  }
}

TEST(DistTest, GatherRejectsSeedMismatch) {
  Query1Fixture fx;
  ColumnarCatalog columnar(&fx.catalog);
  LocalTransport transport;
  ASSERT_OK_AND_ASSIGN(
      std::string bundle0,
      RunShardSbox(fx.q1.plan, &columnar, /*seed=*/1, ExecMode::kSampled,
                   fx.exec, 0, 2, fx.q1.aggregate, fx.soa.top, fx.options));
  ASSERT_OK_AND_ASSIGN(
      std::string bundle1,
      RunShardSbox(fx.q1.plan, &columnar, /*seed=*/2, ExecMode::kSampled,
                   fx.exec, 1, 2, fx.q1.aggregate, fx.soa.top, fx.options));
  ASSERT_OK(transport.Send(0, std::move(bundle0)));
  ASSERT_OK(transport.Send(1, std::move(bundle1)));
  const Status st = GatherSboxEstimate(&transport, 2).status();
  EXPECT_STATUS_CODE(kInvalidArgument, st);
}

TEST(DistTest, GatherRejectsDivergentShardPlan) {
  // Shard 1 executed with a different morsel_rows: its units are not the
  // coordinator's units, so merging would double- or zero-count tuples.
  Query1Fixture fx;
  ColumnarCatalog columnar(&fx.catalog);
  LocalTransport transport;
  ASSERT_OK_AND_ASSIGN(
      std::string bundle0,
      RunShardSbox(fx.q1.plan, &columnar, 7, ExecMode::kSampled, fx.exec, 0,
                   2, fx.q1.aggregate, fx.soa.top, fx.options));
  ExecOptions other = fx.exec;
  other.morsel_rows = 128;
  ASSERT_OK_AND_ASSIGN(
      std::string bundle1,
      RunShardSbox(fx.q1.plan, &columnar, 7, ExecMode::kSampled, other, 1, 2,
                   fx.q1.aggregate, fx.soa.top, fx.options));
  ASSERT_OK(transport.Send(0, std::move(bundle0)));
  ASSERT_OK(transport.Send(1, std::move(bundle1)));
  EXPECT_STATUS_CODE(kInvalidArgument,
                     GatherSboxEstimate(&transport, 2).status());
}

TEST(DistTest, GatherRejectsMissingShard) {
  Query1Fixture fx;
  ColumnarCatalog columnar(&fx.catalog);
  LocalTransport transport;
  ASSERT_OK_AND_ASSIGN(
      std::string bundle0,
      RunShardSbox(fx.q1.plan, &columnar, 7, ExecMode::kSampled, fx.exec, 0,
                   2, fx.q1.aggregate, fx.soa.top, fx.options));
  ASSERT_OK(transport.Send(0, std::move(bundle0)));
  EXPECT_FALSE(GatherSboxEstimate(&transport, 2).ok());
}

TEST(DistTest, TruncatedAndCorruptShardFilesFailLoudly) {
  Query1Fixture fx;
  ColumnarCatalog columnar(&fx.catalog);
  const std::string dir = ::testing::TempDir() + "/gus_dist_corrupt";
  FileTransport files(dir);
  ASSERT_OK_AND_ASSIGN(
      std::string bundle,
      RunShardSbox(fx.q1.plan, &columnar, 7, ExecMode::kSampled, fx.exec, 0,
                   1, fx.q1.aggregate, fx.soa.top, fx.options));
  ASSERT_OK(files.Send(0, bundle));
  ASSERT_OK(files.Receive(0).status());

  // Truncate the frame file.
  {
    std::ifstream in(files.ShardPath(0), std::ios::binary);
    std::string contents((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
    std::ofstream out(files.ShardPath(0),
                      std::ios::binary | std::ios::trunc);
    out.write(contents.data(),
              static_cast<std::streamsize>(contents.size() / 2));
  }
  // Frame damage is a *transport* failure — retryable Unavailable, so the
  // fault-tolerant coordinator re-sends instead of aborting the query.
  EXPECT_STATUS_CODE(kUnavailable, files.Receive(0).status());

  // Rewrite intact, then flip one payload byte: the frame checksum trips.
  ASSERT_OK(files.Send(0, bundle));
  {
    std::fstream io(files.ShardPath(0),
                    std::ios::binary | std::ios::in | std::ios::out);
    io.seekp(20);  // inside the payload (frame header is 12 bytes)
    char byte = 0;
    io.seekg(20);
    io.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x55);
    io.seekp(20);
    io.write(&byte, 1);
  }
  EXPECT_STATUS_CODE(kUnavailable, files.Receive(0).status());
}

// ---------------------------------------------------------------------------
// Fault tolerance: injected faults, retries, deadlines, and statistically
// sound degradation (ISSUE 8). Every test arms a deterministic FaultPlan
// through ScopedFaultPlan, so the injected fault sequence is identical on
// every run.
// ---------------------------------------------------------------------------

TEST(FaultToleranceTest, RetryableVsFatalClassification) {
  EXPECT_TRUE(IsRetryableShardFailure(Status::Unavailable("x")));
  EXPECT_TRUE(IsRetryableShardFailure(Status::DeadlineExceeded("x")));
  // Divergent-state failures must never be retried, nor a relation
  // missing from the catalog (KeyError).
  EXPECT_FALSE(IsRetryableShardFailure(Status::KeyError("x")));
  EXPECT_FALSE(IsRetryableShardFailure(Status::InvalidArgument("x")));
  EXPECT_FALSE(IsRetryableShardFailure(Status::Internal("x")));
  EXPECT_FALSE(IsRetryableShardFailure(Status::OK()));
}

TEST(FaultToleranceTest, NoFaultMatchesShardedEstimate) {
  Query1Fixture fx;
  ASSERT_OK_AND_ASSIGN(
      SboxReport plain,
      ShardedSboxEstimate(fx.q1.plan, fx.catalog, 17, ExecMode::kSampled,
                          fx.exec, /*num_shards=*/4, fx.q1.aggregate,
                          fx.soa.top, fx.options));
  ExecStats stats;
  ExecOptions exec = fx.exec;
  exec.stats = &stats;
  ASSERT_OK_AND_ASSIGN(
      FaultTolerantResult ft,
      FaultTolerantShardedSboxEstimate(fx.q1.plan, fx.catalog, 17,
                                       ExecMode::kSampled, exec, 4,
                                       fx.q1.aggregate, fx.soa.top,
                                       fx.options));
  EXPECT_FALSE(ft.degraded);
  ExpectReportsIdentical(plain, ft.report);
  EXPECT_EQ(4, stats.shard_attempts);
  EXPECT_EQ(0, stats.shard_retries);
  EXPECT_EQ(0, stats.shard_deadline_hits);
  EXPECT_EQ(0, stats.shards_lost);
  EXPECT_FALSE(stats.degraded);
  EXPECT_EQ(1.0, stats.effective_coverage);
}

TEST(FaultToleranceTest, FaultMatrixRecoversBitIdentically) {
  // Every injection site x action: one transient fault against shard 1,
  // default retry budget. Recovery must be BIT-identical to the fault-free
  // run — a retried shard re-derives the same bundle from the same seed.
  Query1Fixture fx;
  ASSERT_OK_AND_ASSIGN(
      SboxReport baseline,
      ShardedSboxEstimate(fx.q1.plan, fx.catalog, 17, ExecMode::kSampled,
                          fx.exec, /*num_shards=*/3, fx.q1.aggregate,
                          fx.soa.top, fx.options));
  struct Case {
    const char* spec;
    bool expects_retry;  // delay-only faults recover without one
  };
  const Case cases[] = {
      {"worker.start@1=fail", true},
      {"worker.execute@1=fail", true},
      {"worker.bundle@1=fail", true},
      {"worker.execute@1=fail*2", true},  // two consecutive failures
      {"transport.send@1=drop", true},
      {"transport.send@1=corrupt", true},
      {"transport.send@1=truncate", true},
      {"transport.receive@1=fail", true},
      {"coordinator.gather=delay+5", false},
      {"worker.execute@1=delay+10", false},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.spec);
    ScopedFaultPlan plan(c.spec);
    ExecStats stats;
    ExecOptions exec = fx.exec;
    exec.stats = &stats;
    ASSERT_OK_AND_ASSIGN(
        FaultTolerantResult ft,
        FaultTolerantShardedSboxEstimate(fx.q1.plan, fx.catalog, 17,
                                         ExecMode::kSampled, exec, 3,
                                         fx.q1.aggregate, fx.soa.top,
                                         fx.options));
    EXPECT_FALSE(ft.degraded);
    ExpectReportsIdentical(baseline, ft.report);
    if (c.expects_retry) {
      EXPECT_GE(stats.shard_retries, 1) << c.spec;
    } else {
      EXPECT_EQ(0, stats.shard_retries) << c.spec;
    }
    EXPECT_EQ(0, stats.shards_lost);
  }
}

TEST(FaultToleranceTest, FileTransportFaultsRecover) {
  // The same matrix discipline over the durable transport: a failed
  // pre-publish check and wire damage both re-dispatch, and the final
  // result is bit-identical.
  Query1Fixture fx;
  ASSERT_OK_AND_ASSIGN(
      SboxReport baseline,
      ShardedSboxEstimate(fx.q1.plan, fx.catalog, 17, ExecMode::kSampled,
                          fx.exec, /*num_shards=*/3, fx.q1.aggregate,
                          fx.soa.top, fx.options));
  int dir_tag = 0;
  for (const char* spec :
       {"transport.file.write@1=fail", "transport.send@1=corrupt",
        "transport.send@1=drop"}) {
    SCOPED_TRACE(spec);
    ScopedFaultPlan plan(spec);
    const std::string dir =
        ::testing::TempDir() + "/gus_ft_files_" + std::to_string(dir_tag++);
    // A stale shard file from a previous run would satisfy the
    // verification read-back after a dropped send, masking the retry.
    std::filesystem::remove_all(dir);
    FileTransport files(dir);
    ExecStats stats;
    ExecOptions exec = fx.exec;
    exec.stats = &stats;
    ASSERT_OK_AND_ASSIGN(
        FaultTolerantResult ft,
        FaultTolerantShardedSboxEstimate(fx.q1.plan, fx.catalog, 17,
                                         ExecMode::kSampled, exec, 3,
                                         fx.q1.aggregate, fx.soa.top,
                                         fx.options, &files));
    EXPECT_FALSE(ft.degraded);
    ExpectReportsIdentical(baseline, ft.report);
    EXPECT_GE(stats.shard_retries, 1);
  }
}

TEST(FaultToleranceTest, DeadlineAbandonsSlowAttemptAndRecovers) {
  // Attempt 1 of shard 2 stalls far past the per-attempt deadline: the
  // supervisor abandons it (orphaned, joined below), re-dispatches, and
  // the recovered estimate is bit-identical.
  Query1Fixture fx;
  ASSERT_OK_AND_ASSIGN(
      SboxReport baseline,
      ShardedSboxEstimate(fx.q1.plan, fx.catalog, 17, ExecMode::kSampled,
                          fx.exec, /*num_shards=*/3, fx.q1.aggregate,
                          fx.soa.top, fx.options));
  {
    ScopedFaultPlan plan("worker.execute@2=delay+1500");
    ExecStats stats;
    ExecOptions exec = fx.exec;
    exec.stats = &stats;
    exec.retry.deadline_ms = 200;
    ASSERT_OK_AND_ASSIGN(
        FaultTolerantResult ft,
        FaultTolerantShardedSboxEstimate(fx.q1.plan, fx.catalog, 17,
                                         ExecMode::kSampled, exec, 3,
                                         fx.q1.aggregate, fx.soa.top,
                                         fx.options));
    EXPECT_FALSE(ft.degraded);
    ExpectReportsIdentical(baseline, ft.report);
    EXPECT_GE(stats.shard_deadline_hits, 1);
    EXPECT_GE(stats.shard_retries, 1);
  }
  // The abandoned attempt still references the fixture's catalog; join it
  // before the fixture dies.
  JoinAbandonedShardAttempts();
}

TEST(FaultToleranceTest, HangsAreBoundedAndNeverWedgeTheCoordinator) {
  // Every attempt of every shard hangs: the hang cap (not a human) breaks
  // the wait, each attempt fails Unavailable, and the whole query fails in
  // bounded time instead of wedging.
  Query1Fixture fx;
  FaultInjector::Global()->set_hang_cap_ms(80);
  const auto start = std::chrono::steady_clock::now();
  Status st;
  {
    ScopedFaultPlan plan("worker.execute=hang*0");
    ExecOptions exec = fx.exec;
    exec.retry.max_attempts = 2;
    st = FaultTolerantShardedSboxEstimate(fx.q1.plan, fx.catalog, 17,
                                          ExecMode::kSampled, exec, 2,
                                          fx.q1.aggregate, fx.soa.top,
                                          fx.options)
             .status();
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  FaultInjector::Global()->set_hang_cap_ms(2000);
  EXPECT_STATUS_CODE(kUnavailable, st);
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            10000);
  // One transient hang, by contrast, recovers bit-identically.
  ASSERT_OK_AND_ASSIGN(
      SboxReport baseline,
      ShardedSboxEstimate(fx.q1.plan, fx.catalog, 17, ExecMode::kSampled,
                          fx.exec, 2, fx.q1.aggregate, fx.soa.top,
                          fx.options));
  FaultInjector::Global()->set_hang_cap_ms(50);
  {
    ScopedFaultPlan plan("worker.execute@1=hang");
    ASSERT_OK_AND_ASSIGN(
        FaultTolerantResult ft,
        FaultTolerantShardedSboxEstimate(fx.q1.plan, fx.catalog, 17,
                                         ExecMode::kSampled, fx.exec, 2,
                                         fx.q1.aggregate, fx.soa.top,
                                         fx.options));
    ExpectReportsIdentical(baseline, ft.report);
  }
  FaultInjector::Global()->set_hang_cap_ms(2000);
}

TEST(FaultToleranceTest, ExhaustedRetriesFailLoudlyWithoutAllowPartial) {
  Query1Fixture fx;
  ScopedFaultPlan plan("worker.execute@1=fail*0");  // every attempt fails
  ExecOptions exec = fx.exec;
  exec.retry.max_attempts = 2;
  const Status st =
      FaultTolerantShardedSboxEstimate(fx.q1.plan, fx.catalog, 17,
                                       ExecMode::kSampled, exec, 3,
                                       fx.q1.aggregate, fx.soa.top,
                                       fx.options)
          .status();
  EXPECT_STATUS_CODE(kUnavailable, st);
  EXPECT_NE(std::string::npos, st.message().find("allow_partial"));
}

TEST(FaultToleranceTest, MissingRelationIsNeverRetried) {
  // A relation missing from the catalog is permanent: no re-attempt can
  // make it appear, so it fails at once instead of burning the retry
  // budget (a missing *bundle* is Unavailable, and retried).
  Query1Fixture fx;
  Catalog without_orders = fx.catalog;
  without_orders.erase("o");
  ExecStats stats;
  ExecOptions exec = fx.exec;
  exec.retry.max_attempts = 3;
  exec.stats = &stats;
  EXPECT_STATUS_CODE(
      kKeyError,
      FaultTolerantShardedSboxEstimate(fx.q1.plan, without_orders, 17,
                                       ExecMode::kSampled, exec, 3,
                                       fx.q1.aggregate, fx.soa.top,
                                       fx.options)
          .status());
  EXPECT_EQ(0, stats.shard_retries);

  // The shard worker reports the same KeyError, and the attempt loop
  // runs it exactly once.
  ColumnarCatalog columnar(&without_orders);
  ShardAttemptCounters counters;
  const Result<std::string> outcome = RunShardAttempts(
      exec.retry, /*shard=*/0,
      [&](int k) {
        return RunShardSbox(fx.q1.plan, &columnar, 17, ExecMode::kSampled,
                            fx.exec, k, 3, fx.q1.aggregate, fx.soa.top,
                            fx.options);
      },
      &counters);
  EXPECT_STATUS_CODE(kKeyError, outcome.status());
  EXPECT_EQ(1, counters.attempts.load());
  EXPECT_EQ(0, counters.retries.load());
}

/// A transport that refuses shard `refused` with a divergent-state
/// (fatal) error, as a version-skewed peer would; every other shard goes
/// through a local mailbox.
class RefusingTransport final : public ShardTransport {
 public:
  explicit RefusingTransport(int refused) : refused_(refused) {}
  Status Send(int shard_index, std::string payload) override {
    if (shard_index == refused_) {
      return Status::InvalidArgument("shard " + std::to_string(shard_index) +
                                     " speaks another wire version");
    }
    return inner_.Send(shard_index, std::move(payload));
  }
  Result<std::string> Receive(int shard_index) override {
    return inner_.Receive(shard_index);
  }

 private:
  const int refused_;
  LocalTransport inner_;
};

TEST(FaultToleranceTest, FatalFailureIsNeverFoldedAround) {
  // A fatal failure propagates with its own code whether or not partial
  // answers are allowed: it is neither relabeled as a retryable loss nor
  // degraded around.
  Query1Fixture fx;
  for (const bool allow_partial : {false, true}) {
    SCOPED_TRACE(allow_partial ? "allow_partial" : "strict");
    RefusingTransport transport(/*refused=*/1);
    ExecStats stats;
    ExecOptions exec = fx.exec;
    exec.allow_partial = allow_partial;
    exec.stats = &stats;
    const Status st =
        FaultTolerantShardedSboxEstimate(fx.q1.plan, fx.catalog, 17,
                                         ExecMode::kSampled, exec, 4,
                                         fx.q1.aggregate, fx.soa.top,
                                         fx.options, &transport)
            .status();
    EXPECT_STATUS_CODE(kInvalidArgument, st);
    EXPECT_NE(std::string::npos, st.message().find("wire version"));
    EXPECT_EQ(0, stats.shard_retries);  // fatal: never re-attempted
    EXPECT_FALSE(stats.degraded);
  }
}

TEST(FaultToleranceTest, PartialEstimateMeanOverKillsIsExactlyUnbiased) {
  // The Horvitz-Thompson identity behind the survival GUS, checked
  // exactly: killing shard j and re-weighting the m = N-1 survivors by
  // N/(N-1) gives estimate_j; the mean over all N single-shard kills
  // telescopes back to the full estimate. Degradation is acknowledged
  // (DegradedReport, LIVE ranges, ExecStats) and the CI widens on average.
  Query1Fixture fx;
  const int kShards = 4;
  ASSERT_OK_AND_ASSIGN(
      SboxReport full,
      ShardedSboxEstimate(fx.q1.plan, fx.catalog, 17, ExecMode::kSampled,
                          fx.exec, kShards, fx.q1.aggregate, fx.soa.top,
                          fx.options));
  const double full_width = full.interval.hi - full.interval.lo;
  double estimate_sum = 0.0;
  double width_sum = 0.0;
  for (int kill = 0; kill < kShards; ++kill) {
    SCOPED_TRACE(kill);
    ScopedFaultPlan plan("worker.start@" + std::to_string(kill) + "=fail*0");
    ExecStats stats;
    ExecOptions exec = fx.exec;
    exec.stats = &stats;
    exec.retry.max_attempts = 2;
    exec.allow_partial = true;
    ASSERT_OK_AND_ASSIGN(
        FaultTolerantResult ft,
        FaultTolerantShardedSboxEstimate(fx.q1.plan, fx.catalog, 17,
                                         ExecMode::kSampled, exec, kShards,
                                         fx.q1.aggregate, fx.soa.top,
                                         fx.options));
    ASSERT_TRUE(ft.degraded);
    estimate_sum += ft.report.estimate;
    width_sum += ft.report.interval.hi - ft.report.interval.lo;
    // The acknowledgement payload names exactly what was lost.
    EXPECT_EQ(kShards - 1, ft.degradation.surviving_shards);
    EXPECT_EQ(kShards, ft.degradation.total_shards);
    ASSERT_EQ(1u, ft.degradation.lost_ranges.size());
    EXPECT_EQ(kill, ft.degradation.lost_ranges[0].shard_index);
    EXPECT_GT(ft.degradation.effective_coverage, 0.0);
    EXPECT_LT(ft.degradation.effective_coverage, 1.0);
    ASSERT_EQ(1u, ft.degradation.failures.size());
    // The LIVE section round-trips the surviving geometry.
    EXPECT_EQ(static_cast<uint32_t>(kShards), ft.live.total_shards);
    ASSERT_EQ(static_cast<size_t>(kShards - 1), ft.live.surviving.size());
    ASSERT_OK_AND_ASSIGN(
        SurvivingRangesInfo decoded,
        SurvivingRangesFromBytes(SurvivingRangesToBytes(ft.live)));
    EXPECT_EQ(ft.live.pivot_relation, decoded.pivot_relation);
    EXPECT_TRUE(ft.live.surviving == decoded.surviving);
    // Counters acknowledge the loss.
    EXPECT_EQ(1, stats.shards_lost);
    EXPECT_TRUE(stats.degraded);
    EXPECT_LT(stats.effective_coverage, 1.0);
    EXPECT_GE(stats.shard_retries, 1);
  }
  const double mean = estimate_sum / kShards;
  EXPECT_NEAR(full.estimate, mean, 1e-9 * std::abs(full.estimate));
  // Honesty: losing a shard cannot shrink the average uncertainty.
  EXPECT_GE(width_sum / kShards, full_width);
}

TEST(FaultToleranceTest, PartialEstimatesAreUnbiasedMonteCarlo) {
  // 500 independent (sample, kill) trials on a small single-scan plan:
  // the mean of the degraded estimates must track the true SUM(w) within
  // Monte-Carlo error. This is the end-to-end unbiasedness check the
  // algebra promises (HT re-weighting through the composed GUS).
  Catalog catalog = MakeTinyJoin(64, 1).MakeCatalog();
  const Relation& d = catalog.at("D");
  double truth = 0.0;
  for (int64_t i = 0; i < d.num_rows(); ++i) truth += d.row(i)[1].ToDouble();
  PlanPtr plan =
      PlanNode::Sample(SamplingSpec::Bernoulli(0.5), PlanNode::Scan("D"));
  ASSERT_OK_AND_ASSIGN(SoaResult soa, SoaTransform(plan));
  ExprPtr f = Col("w");
  const int kShards = 4;
  ExecOptions exec;
  exec.morsel_rows = 8;  // 8 units over 64 rows: every shard data-bearing
  exec.allow_partial = true;
  exec.retry.max_attempts = 1;
  exec.retry.backoff_base_ms = 0;

  const int kTrials = 500;
  std::vector<double> estimates;
  estimates.reserve(kTrials);
  for (int t = 0; t < kTrials; ++t) {
    ScopedFaultPlan fault("worker.start@" + std::to_string(t % kShards) +
                          "=fail*0");
    ASSERT_OK_AND_ASSIGN(
        FaultTolerantResult ft,
        FaultTolerantShardedSboxEstimate(plan, catalog, /*seed=*/1000 + t,
                                         ExecMode::kSampled, exec, kShards,
                                         f, soa.top, {}));
    ASSERT_TRUE(ft.degraded);
    estimates.push_back(ft.report.estimate);
  }
  double mean = 0.0;
  for (double e : estimates) mean += e;
  mean /= kTrials;
  double var = 0.0;
  for (double e : estimates) var += (e - mean) * (e - mean);
  var /= (kTrials - 1);
  const double stderr_mean = std::sqrt(var / kTrials);
  ASSERT_GT(stderr_mean, 0.0);
  // 5 sigma: false-failure probability < 1e-6 per run.
  EXPECT_NEAR(truth, mean, 5.0 * stderr_mean);
}

TEST(FaultToleranceTest, SingleSurvivorOnPartitionedPlanRefusesCi) {
  // With one survivor of N >= 2, cross-shard co-survival probability is
  // zero and the pairwise variance path is undefined: the gather must say
  // so rather than fabricate a CI.
  Query1Fixture fx;
  ScopedFaultPlan plan("worker.start@0=fail*0");
  ExecOptions exec = fx.exec;
  exec.retry.max_attempts = 1;
  exec.allow_partial = true;
  const Status st =
      FaultTolerantShardedSboxEstimate(fx.q1.plan, fx.catalog, 17,
                                       ExecMode::kSampled, exec, 2,
                                       fx.q1.aggregate, fx.soa.top,
                                       fx.options)
          .status();
  EXPECT_STATUS_CODE(kUnavailable, st);
  EXPECT_NE(std::string::npos, st.message().find("surviving"));
}

TEST(FaultToleranceTest, GatherPartialToleratesMissingShard) {
  // The multi-process half: external workers populated the transport, one
  // bundle never arrived. GatherSboxEstimatePartial degrades only under
  // allow_partial, and reports exactly the missing range.
  Query1Fixture fx;
  ColumnarCatalog columnar(&fx.catalog);
  const ExecOptions normalized = ShardedExecOptions(fx.exec);
  ASSERT_OK_AND_ASSIGN(ShardPlan sp,
                       PlanShards(fx.q1.plan, &columnar, ExecMode::kSampled,
                                  normalized, 3));
  // Two mailboxes with the same bundles: LocalTransport::Receive consumes,
  // so each gather below gets its own copy.
  LocalTransport strict_transport;
  LocalTransport partial_transport;
  for (const int k : {0, 2}) {  // shard 1 never delivers
    ASSERT_OK_AND_ASSIGN(
        std::string bundle,
        RunShardSbox(fx.q1.plan, &columnar, 17, ExecMode::kSampled, fx.exec,
                     k, 3, fx.q1.aggregate, fx.soa.top, fx.options));
    ASSERT_OK(strict_transport.Send(k, bundle));
    ASSERT_OK(partial_transport.Send(k, std::move(bundle)));
  }
  // Without acknowledgement, the missing shard fails the gather.
  EXPECT_STATUS_CODE(kUnavailable,
                     GatherSboxEstimatePartial(&strict_transport, 3,
                                               sp.split.pivot_relation,
                                               /*allow_partial=*/false)
                         .status());
  ASSERT_OK_AND_ASSIGN(
      FaultTolerantResult ft,
      GatherSboxEstimatePartial(&partial_transport, 3,
                                sp.split.pivot_relation,
                                /*allow_partial=*/true));
  EXPECT_TRUE(ft.degraded);
  EXPECT_EQ(2, ft.degradation.surviving_shards);
  EXPECT_EQ(3, ft.degradation.total_shards);
  ASSERT_EQ(1u, ft.degradation.lost_ranges.size());
  EXPECT_EQ(1, ft.degradation.lost_ranges[0].shard_index);
  EXPECT_GT(ft.report.sample_rows, 0);
}

TEST(FaultToleranceTest, LosingAnEmptyShardDoesNotDegrade) {
  // More shards than units: some shards own no units. Losing one of those
  // loses no data — the gather must return the COMPLETE estimate without
  // re-weighting (re-weighting here would bias it).
  Query1Fixture fx;
  ExecOptions coarse = fx.exec;
  // One unit: the floor carve units*k/num_shards hands it to the LAST
  // shard, so shards 0..2 are empty and shard 3 bears all the data.
  coarse.morsel_rows = int64_t{1} << 20;
  ASSERT_OK_AND_ASSIGN(
      SboxReport baseline,
      ShardedSboxEstimate(fx.q1.plan, fx.catalog, 29, ExecMode::kSampled,
                          coarse, /*num_shards=*/1, fx.q1.aggregate,
                          fx.soa.top, fx.options));
  ExecOptions exec = coarse;
  exec.retry.max_attempts = 1;
  exec.allow_partial = true;
  {
    ScopedFaultPlan plan("worker.start@0=fail*0");  // kill an empty shard
    ASSERT_OK_AND_ASSIGN(
        FaultTolerantResult ft,
        FaultTolerantShardedSboxEstimate(fx.q1.plan, fx.catalog, 29,
                                         ExecMode::kSampled, exec, 4,
                                         fx.q1.aggregate, fx.soa.top,
                                         fx.options));
    EXPECT_FALSE(ft.degraded);
    ExpectReportsIdentical(baseline, ft.report);
  }
  // ...while losing THE data-bearing shard leaves nothing to estimate.
  ScopedFaultPlan plan2("worker.start@3=fail*0");
  EXPECT_STATUS_CODE(kUnavailable,
                     FaultTolerantShardedSboxEstimate(
                         fx.q1.plan, fx.catalog, 29, ExecMode::kSampled,
                         exec, 4, fx.q1.aggregate, fx.soa.top, fx.options)
                         .status());
}

/// A streambuf that dribbles at most one byte per sgetn/sputn call —
/// the worst-case socket: every transfer is partial. The frame codec's
/// ReadFully/WriteFully loops must still move whole frames.
class DribbleBuf : public std::streambuf {
 public:
  explicit DribbleBuf(std::string bytes) : bytes_(std::move(bytes)) {}

  const std::string& written() const { return out_; }

 protected:
  std::streamsize xsgetn(char* s, std::streamsize n) override {
    if (pos_ >= bytes_.size() || n < 1) return 0;
    *s = bytes_[pos_++];
    return 1;
  }
  int underflow() override {
    // No buffered area: sgetn goes through xsgetn; a stray istream read
    // would see one char at a time too.
    if (pos_ >= bytes_.size()) return traits_type::eof();
    return traits_type::to_int_type(bytes_[pos_]);
  }
  int uflow() override {
    if (pos_ >= bytes_.size()) return traits_type::eof();
    return traits_type::to_int_type(bytes_[pos_++]);
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    if (n < 1) return 0;
    out_.push_back(*s);
    return 1;
  }
  int overflow(int ch) override {
    if (ch == traits_type::eof()) return traits_type::eof();
    out_.push_back(static_cast<char>(ch));
    return ch;
  }

 private:
  std::string bytes_;
  size_t pos_ = 0;
  std::string out_;
};

TEST(DistTest, FrameCodecLoopsOverPartialTransfers) {
  // Write through a one-byte-at-a-time sink, read back through a
  // one-byte-at-a-time source: both directions must loop to completion.
  const std::string payload(10000, 'x');
  DribbleBuf sink("");
  std::ostream out(&sink);
  ASSERT_OK(WriteFrame(&out, payload));
  EXPECT_EQ(4 + 8 + payload.size() + 8, sink.written().size());

  DribbleBuf source(sink.written());
  std::istream in(&source);
  bool clean_eof = true;
  ASSERT_OK_AND_ASSIGN(std::string read, ReadFrame(&in, &clean_eof));
  EXPECT_EQ(payload, read);
  EXPECT_FALSE(clean_eof);
}

TEST(DistTest, ReadFrameDistinguishesCleanEofFromTruncation) {
  const std::string payload = "partial-read-contract";
  DribbleBuf sink("");
  std::ostream out(&sink);
  ASSERT_OK(WriteFrame(&out, payload));
  const std::string frame = sink.written();

  // An exhausted stream before any frame byte: clean EOF, not damage.
  {
    DribbleBuf source("");
    std::istream in(&source);
    bool clean_eof = false;
    auto r = ReadFrame(&in, &clean_eof);
    EXPECT_FALSE(r.ok());
    EXPECT_TRUE(clean_eof);
  }
  // After one complete frame the next read is also a clean EOF.
  {
    DribbleBuf source(frame);
    std::istream in(&source);
    bool clean_eof = true;
    ASSERT_OK_AND_ASSIGN(std::string read, ReadFrame(&in, &clean_eof));
    EXPECT_EQ(payload, read);
    EXPECT_FALSE(clean_eof);
    auto r = ReadFrame(&in, &clean_eof);
    EXPECT_FALSE(r.ok());
    EXPECT_TRUE(clean_eof);
  }
  // EOF anywhere inside a frame is truncation — clean_eof stays false
  // and the error says "truncated" (a killed peer, not a finished one).
  for (const size_t cut : {1ul, 3ul, 4ul, 11ul, 12ul, frame.size() - 9,
                           frame.size() - 1}) {
    SCOPED_TRACE(cut);
    DribbleBuf source(frame.substr(0, cut));
    std::istream in(&source);
    bool clean_eof = true;
    auto r = ReadFrame(&in, &clean_eof);
    EXPECT_FALSE(r.ok());
    EXPECT_FALSE(clean_eof);
    EXPECT_NE(std::string::npos, r.status().ToString().find("truncated"))
        << r.status().ToString();
  }
}

}  // namespace
}  // namespace gus
