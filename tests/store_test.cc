// The storage layer (src/store/): segment file round trips, fingerprint
// parity with the in-memory catalog, zone-map boundary semantics, the
// pinned-segment LRU cache, loud checksum failures, CSV ingestion, and —
// the load-bearing property — pruned vs unpruned bit-identical estimates
// across engines, thread counts, and shard counts.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "algebra/translate.h"
#include "data/tpch_gen.h"
#include "dist/coordinator.h"
#include "est/streaming.h"
#include "plan/columnar_executor.h"
#include "plan/exec_stats.h"
#include "plan/executor.h"
#include "plan/parallel_executor.h"
#include "plan/soa_transform.h"
#include "rel/expression.h"
#include "store/csv_import.h"
#include "store/pruner.h"
#include "store/segment_cache.h"
#include "store/segment_catalog.h"
#include "store/segment_store.h"
#include "test_util.h"

namespace gus {
namespace {

std::string FreshDir(const std::string& tag) {
  static int counter = 0;
  const std::string dir = ::testing::TempDir() + "/gus_store_" + tag + "_" +
                          std::to_string(counter++);
  std::filesystem::remove_all(dir);
  return dir;
}

TpchConfig SmallTpch() {
  TpchConfig config;
  config.num_orders = 300;
  config.num_customers = 40;
  config.num_parts = 50;
  config.seed = 0xC0FFEE;
  return config;
}

// ---------------------------------------------------------------------------
// Round trip + fingerprint parity

TEST(SegmentStoreTest, RoundTripAndFingerprintParity) {
  const TpchData data = GenerateTpch(SmallTpch());
  Catalog catalog = data.MakeCatalog();
  const std::string dir = FreshDir("roundtrip");
  ASSERT_OK(WriteCatalogSegments(catalog, dir, /*segment_rows=*/64));

  ASSERT_OK_AND_ASSIGN(auto stored_catalog, SegmentCatalog::Open(dir));
  ColumnarCatalog mem_catalog(&catalog);
  for (const auto& [name, rel] : catalog) {
    SCOPED_TRACE(name);
    ASSERT_OK_AND_ASSIGN(const StoredRelation* stored,
                         stored_catalog->Stored(name));
    ASSERT_NE(stored, nullptr);
    EXPECT_EQ(rel.num_rows(), stored->num_rows());
    EXPECT_EQ(64, stored->segment_rows());
    EXPECT_EQ((rel.num_rows() + 63) / 64, stored->num_segments());

    // Fingerprint parity: the header value, a fresh streaming recompute,
    // and the in-memory catalog all agree.
    ASSERT_OK_AND_ASSIGN(const uint64_t mem_fp, mem_catalog.Fingerprint(name));
    ASSERT_OK_AND_ASSIGN(const uint64_t stored_fp,
                         stored_catalog->Fingerprint(name));
    ASSERT_OK_AND_ASSIGN(const uint64_t recomputed,
                         stored->ComputeContentFingerprint());
    EXPECT_EQ(mem_fp, stored_fp);
    EXPECT_EQ(mem_fp, recomputed);

    // Materialization reproduces the rows exactly.
    ASSERT_OK_AND_ASSIGN(const ColumnarRelation* materialized,
                         stored_catalog->Get(name));
    const Relation back = materialized->ToRelation();
    ASSERT_EQ(rel.num_rows(), back.num_rows());
    for (int64_t i = 0; i < rel.num_rows(); ++i) {
      ASSERT_EQ(rel.lineage(i), back.lineage(i)) << "row " << i;
      const Row& a = rel.row(i);
      const Row& b = back.row(i);
      ASSERT_EQ(a.size(), b.size());
      for (size_t c = 0; c < a.size(); ++c) {
        ASSERT_TRUE(a[c] == b[c]) << "row " << i << " col " << c;
      }
    }
  }
}

TEST(SegmentStoreTest, RowCatalogMaterializationMatches) {
  const TpchData data = GenerateTpch(SmallTpch());
  Catalog catalog = data.MakeCatalog();
  const std::string dir = FreshDir("rowcat");
  ASSERT_OK(WriteCatalogSegments(catalog, dir, /*segment_rows=*/128));
  ASSERT_OK_AND_ASSIGN(auto stored_catalog, SegmentCatalog::Open(dir));
  ASSERT_OK_AND_ASSIGN(Catalog rows, stored_catalog->MaterializeRowCatalog());
  ASSERT_EQ(catalog.size(), rows.size());
  for (const auto& [name, rel] : catalog) {
    ASSERT_EQ(rel.num_rows(), rows.at(name).num_rows()) << name;
  }
}

// ---------------------------------------------------------------------------
// Zone-map boundary semantics

TEST(ZoneMapTest, SingleRowSegmentsAndMinEqMax) {
  // 5 rows, segment_rows=1: every segment is a single row, every numeric
  // zone has min == max.
  std::vector<Row> rows;
  for (int i = 0; i < 5; ++i) {
    rows.push_back(Row{Value(int64_t{10 * i}), Value(0.5 * i)});
  }
  Relation rel = Relation::MakeBase(
      "one",
      Schema({{"k", ValueType::kInt64}, {"x", ValueType::kFloat64}}),
      std::move(rows));
  ASSERT_OK_AND_ASSIGN(ColumnarRelation crel,
                       ColumnarRelation::FromRelation(rel));
  const std::string dir = FreshDir("single");
  std::filesystem::create_directories(dir);
  ASSERT_OK_AND_ASSIGN(
      auto summary,
      WriteRelationSegments("one", crel, dir + "/one.gseg",
                            /*segment_rows=*/1));
  EXPECT_EQ(5, summary.num_segments);

  ASSERT_OK_AND_ASSIGN(auto stored, StoredRelation::Open(dir + "/one.gseg"));
  for (int64_t s = 0; s < 5; ++s) {
    const ColumnZone& zk = stored->segment(s).zones[0];
    ASSERT_EQ(ColumnZone::kRanged, zk.kind);
    EXPECT_EQ(10 * s, zk.min_i64);
    EXPECT_EQ(zk.min_i64, zk.max_i64);  // min == max by construction

    // kEq prunes exactly the non-matching single-row segments.
    EXPECT_TRUE(ZoneMayMatch(zk, ValueType::kInt64, ExprOp::kEq,
                             Value(int64_t{10 * s})));
    EXPECT_FALSE(ZoneMayMatch(zk, ValueType::kInt64, ExprOp::kEq,
                              Value(int64_t{10 * s + 1})));
    // kNe on a min==max zone excludes iff the constant equals the value.
    EXPECT_FALSE(ZoneMayMatch(zk, ValueType::kInt64, ExprOp::kNe,
                              Value(int64_t{10 * s})));
    EXPECT_TRUE(ZoneMayMatch(zk, ValueType::kInt64, ExprOp::kNe,
                             Value(int64_t{10 * s + 1})));
    // Inclusive boundary ops at the exact edge.
    EXPECT_TRUE(ZoneMayMatch(zk, ValueType::kInt64, ExprOp::kLe,
                             Value(int64_t{10 * s})));
    EXPECT_FALSE(ZoneMayMatch(zk, ValueType::kInt64, ExprOp::kLt,
                              Value(int64_t{10 * s})));
    EXPECT_TRUE(ZoneMayMatch(zk, ValueType::kInt64, ExprOp::kGe,
                             Value(int64_t{10 * s})));
    EXPECT_FALSE(ZoneMayMatch(zk, ValueType::kInt64, ExprOp::kGt,
                              Value(int64_t{10 * s})));
  }
}

TEST(ZoneMapTest, EmptyUnknownAndAllNullZones) {
  // kEmpty can never match; kUnknown always may.
  ColumnZone empty;
  empty.kind = ColumnZone::kEmpty;
  ColumnZone unknown;
  unknown.kind = ColumnZone::kUnknown;
  for (const ExprOp op : {ExprOp::kEq, ExprOp::kNe, ExprOp::kLt, ExprOp::kLe,
                          ExprOp::kGt, ExprOp::kGe}) {
    EXPECT_FALSE(ZoneMayMatch(empty, ValueType::kInt64, op, Value(int64_t{0})));
    EXPECT_TRUE(
        ZoneMayMatch(unknown, ValueType::kFloat64, op, Value(1.5)));
  }
}

TEST(ZoneMapTest, NaNPagesAreUnknownAndNeverPruned) {
  // A float page containing NaN must get a kUnknown zone: NaN breaks the
  // min/max ordering, so no bound is trustworthy.
  std::vector<Row> rows;
  rows.push_back(Row{Value(std::nan(""))});
  rows.push_back(Row{Value(1.0)});
  Relation rel = Relation::MakeBase(
      "nanrel", Schema({{"x", ValueType::kFloat64}}), std::move(rows));
  ASSERT_OK_AND_ASSIGN(ColumnarRelation crel,
                       ColumnarRelation::FromRelation(rel));
  const std::string dir = FreshDir("nan");
  std::filesystem::create_directories(dir);
  ASSERT_OK(WriteRelationSegments("nanrel", crel, dir + "/nanrel.gseg",
                                  /*segment_rows=*/8)
                .status());
  ASSERT_OK_AND_ASSIGN(auto stored,
                       StoredRelation::Open(dir + "/nanrel.gseg"));
  const ColumnZone& zone = stored->segment(0).zones[0];
  EXPECT_EQ(ColumnZone::kUnknown, zone.kind);
  EXPECT_TRUE(ZoneMayMatch(zone, ValueType::kFloat64, ExprOp::kLt,
                           Value(-1e300)));
}

TEST(ZoneMapTest, StringZonesAreLexicographic) {
  std::vector<Row> rows;
  for (const char* s : {"delta", "alpha", "charlie"}) {
    rows.push_back(Row{Value(s)});
  }
  Relation rel = Relation::MakeBase(
      "strs", Schema({{"s", ValueType::kString}}), std::move(rows));
  ASSERT_OK_AND_ASSIGN(ColumnarRelation crel,
                       ColumnarRelation::FromRelation(rel));
  const std::string dir = FreshDir("strz");
  std::filesystem::create_directories(dir);
  ASSERT_OK(WriteRelationSegments("strs", crel, dir + "/strs.gseg",
                                  /*segment_rows=*/8)
                .status());
  ASSERT_OK_AND_ASSIGN(auto stored, StoredRelation::Open(dir + "/strs.gseg"));
  const ColumnZone& zone = stored->segment(0).zones[0];
  ASSERT_EQ(ColumnZone::kRanged, zone.kind);
  EXPECT_EQ("alpha", zone.min_str);
  EXPECT_EQ("delta", zone.max_str);
  EXPECT_TRUE(
      ZoneMayMatch(zone, ValueType::kString, ExprOp::kEq, Value("bravo")));
  EXPECT_FALSE(
      ZoneMayMatch(zone, ValueType::kString, ExprOp::kEq, Value("zulu")));
  EXPECT_FALSE(
      ZoneMayMatch(zone, ValueType::kString, ExprOp::kLt, Value("alpha")));
  EXPECT_TRUE(
      ZoneMayMatch(zone, ValueType::kString, ExprOp::kLe, Value("alpha")));
  EXPECT_FALSE(
      ZoneMayMatch(zone, ValueType::kString, ExprOp::kGt, Value("delta")));
}

// ---------------------------------------------------------------------------
// Pinned-segment cache

TEST(SegmentCacheTest, LruEvictionAndPinsSurvive) {
  const TpchData data = GenerateTpch(SmallTpch());
  Catalog catalog = data.MakeCatalog();
  const std::string dir = FreshDir("cache");
  ASSERT_OK(WriteCatalogSegments(catalog, dir, /*segment_rows=*/32));
  ASSERT_OK_AND_ASSIGN(auto stored, StoredRelation::Open(dir + "/l.gseg"));
  ASSERT_GE(stored->num_segments(), 8);

  // Budget of ~two segments: touching them all must evict.
  SegmentCacheOptions options;
  options.max_bytes = 2 * stored->segment(0).page_bytes + 1;
  SegmentCache cache(options);

  ASSERT_OK_AND_ASSIGN(auto pin0, cache.Fault(*stored, 0));
  const int64_t pinned_rows = pin0->num_rows();
  for (int64_t s = 0; s < stored->num_segments(); ++s) {
    ASSERT_OK(cache.Fault(*stored, s).status());
  }
  SegmentCacheCounters c = cache.counters();
  // One decode per segment, plus one hit: the pinned segment 0 was still
  // resident when the sweep touched it.
  EXPECT_EQ(stored->num_segments(), c.faults);
  EXPECT_EQ(1, c.hits);
  EXPECT_GT(c.evictions, 0);
  EXPECT_LE(c.resident_bytes, options.max_bytes);
  EXPECT_GT(c.bytes_read, 0);

  // Re-faulting a hot segment is a hit, a cold (evicted) one a miss.
  const int64_t last = stored->num_segments() - 1;
  const int64_t hits_before = cache.counters().hits;
  ASSERT_OK(cache.Fault(*stored, last).status());
  EXPECT_EQ(hits_before + 1, cache.counters().hits);

  // The pin taken before the eviction storm still reads good data, even
  // after a full Clear.
  cache.Clear();
  EXPECT_EQ(0, cache.counters().resident_bytes);
  EXPECT_EQ(pinned_rows, pin0->num_rows());
}

TEST(SegmentCacheTest, ChecksumCorruptionFailsLoudly) {
  const TpchData data = GenerateTpch(SmallTpch());
  Catalog catalog = data.MakeCatalog();
  const std::string dir = FreshDir("corrupt");
  ASSERT_OK(WriteCatalogSegments(catalog, dir, /*segment_rows=*/64));
  const std::string path = dir + "/o.gseg";

  ASSERT_OK_AND_ASSIGN(auto stored, StoredRelation::Open(path));
  const auto [page_off, page_len] = stored->segment(0).column_pages[0];
  ASSERT_GT(page_len, 0u);
  stored.reset();  // unmap before mutating the file

  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekg(static_cast<std::streamoff>(page_off));
    char byte = 0;
    f.read(&byte, 1);
    byte ^= 0x5A;
    f.seekp(static_cast<std::streamoff>(page_off));
    f.write(&byte, 1);
  }

  ASSERT_OK_AND_ASSIGN(auto reopened, StoredRelation::Open(path));
  EXPECT_FALSE(reopened->DecodeSegment(0).ok());
  SegmentCache cache;
  EXPECT_FALSE(cache.Fault(*reopened, 0).ok());
}

/// Flips bit `bit` of the byte at `offset` of the file at `path`.
void FlipBit(const std::string& path, uint64_t offset, int bit) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.good());
  f.seekg(static_cast<std::streamoff>(offset));
  char byte = 0;
  f.read(&byte, 1);
  byte = static_cast<char>(byte ^ (1 << bit));
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(&byte, 1);
  ASSERT_TRUE(f.good());
}

TEST(SegmentCacheTest, EverySingleBitFlipInEveryPageIsDetected) {
  // 17 rows in segments of 7: two full segments and a short one. A 7-row
  // int64/float64/lineage page is 56 bytes (one full 32-byte checksum
  // stride plus a 24-byte word tail), a string-code page is 28 bytes (tail
  // only, ending in a 4-byte byte tail), and the short segment's pages are
  // 24 and 12 bytes.
  std::vector<Row> rows;
  for (int i = 0; i < 17; ++i) {
    rows.push_back(Row{Value(int64_t{1000 + 37 * i}), Value(0.25 * i - 1.0),
                       Value(i % 3 == 0 ? "alpha" : "beta")});
  }
  Relation rel = Relation::MakeBase(
      "tiny",
      Schema({{"k", ValueType::kInt64},
              {"x", ValueType::kFloat64},
              {"s", ValueType::kString}}),
      std::move(rows));
  ASSERT_OK_AND_ASSIGN(ColumnarRelation crel,
                       ColumnarRelation::FromRelation(rel));
  const std::string dir = FreshDir("bitflip");
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/tiny.gseg";
  ASSERT_OK(WriteRelationSegments("tiny", crel, path, /*segment_rows=*/7)
                .status());

  std::vector<std::pair<uint64_t, uint64_t>> pages;  // (offset, bytes)
  std::vector<int64_t> page_segment;                 // segment of each page
  {
    ASSERT_OK_AND_ASSIGN(auto stored, StoredRelation::Open(path));
    ASSERT_EQ(3, stored->num_segments());
    ASSERT_EQ(3, stored->segment(2).row_count);
    for (int64_t s = 0; s < stored->num_segments(); ++s) {
      ASSERT_OK(stored->DecodeSegment(s).status());
      std::vector<std::pair<uint64_t, uint64_t>> extents =
          stored->segment(s).column_pages;
      extents.push_back(stored->segment(s).lineage_page);
      for (const auto& extent : extents) {
        ASSERT_GT(extent.second, 0u);
        pages.push_back(extent);
        page_segment.push_back(s);
      }
    }
  }
  EXPECT_EQ(56u, pages[0].second);  // int64: stride + word tail
  EXPECT_EQ(28u, pages[2].second);  // string codes: tail only

  int64_t flips = 0;
  for (size_t p = 0; p < pages.size(); ++p) {
    const auto [offset, bytes] = pages[p];
    const int64_t s = page_segment[p];
    for (uint64_t at = offset; at < offset + bytes; ++at) {
      for (int bit = 0; bit < 8; ++bit) {
        SCOPED_TRACE("segment " + std::to_string(s) + " byte " +
                     std::to_string(at) + " bit " + std::to_string(bit));
        FlipBit(path, at, bit);
        {
          ASSERT_OK_AND_ASSIGN(auto stored, StoredRelation::Open(path));
          const Result<ColumnBatch> decoded = stored->DecodeSegment(s);
          EXPECT_STATUS_CODE(kInternal, decoded.status());
          EXPECT_NE(std::string::npos,
                    decoded.status().ToString().find("checksum"));
          SegmentCache cache;
          EXPECT_STATUS_CODE(kInternal, cache.Fault(*stored, s).status());
        }
        FlipBit(path, at, bit);  // restore
        ++flips;
      }
    }
  }
  EXPECT_EQ(8 * (2 * (56 + 56 + 28 + 56) + (24 + 24 + 12 + 24)), flips);

  // Restored byte for byte: every segment decodes again.
  ASSERT_OK_AND_ASSIGN(auto restored, StoredRelation::Open(path));
  for (int64_t s = 0; s < restored->num_segments(); ++s) {
    EXPECT_TRUE(restored->DecodeSegment(s).ok()) << "segment " << s;
  }
}

TEST(SegmentStoreTest, VersionOneFilesAreRefused) {
  const TpchData data = GenerateTpch(SmallTpch());
  Catalog catalog = data.MakeCatalog();
  const std::string dir = FreshDir("v1");
  ASSERT_OK(WriteCatalogSegments(catalog, dir, /*segment_rows=*/64));
  const std::string path = dir + "/o.gseg";
  {
    // Header: u32 magic, then u32 version.
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    const uint32_t version = 1;
    f.seekp(4);
    f.write(reinterpret_cast<const char*>(&version), sizeof(version));
    ASSERT_TRUE(f.good());
  }
  const Result<std::unique_ptr<StoredRelation>> opened =
      StoredRelation::Open(path);
  EXPECT_STATUS_CODE(kInvalidArgument, opened.status());
  EXPECT_NE(std::string::npos,
            opened.status().ToString().find("unsupported version 1"));
}

// ---------------------------------------------------------------------------
// CSV ingestion

TEST(CsvImportTest, InfersTypesAndHandlesQuoting) {
  const std::string text =
      "id,price,name\n"
      "1,1.5,widget\n"
      "2,2,\"gad,get\"\n"
      "3,-0.25,\"say \"\"hi\"\"\"\n";
  ASSERT_OK_AND_ASSIGN(Relation rel, ImportCsvText("t", text));
  ASSERT_EQ(3, rel.num_rows());
  ASSERT_EQ(3, rel.schema().num_columns());
  EXPECT_EQ(ValueType::kInt64, rel.schema().column(0).type);
  EXPECT_EQ(ValueType::kFloat64, rel.schema().column(1).type);
  EXPECT_EQ(ValueType::kString, rel.schema().column(2).type);
  EXPECT_EQ("gad,get", rel.row(1)[2].AsString());
  EXPECT_EQ("say \"hi\"", rel.row(2)[2].AsString());
  // Base lineage: id = row position.
  EXPECT_EQ(LineageRow{2}, rel.lineage(2));
}

TEST(CsvImportTest, PinnedTypesRejectBadFields) {
  CsvImportOptions options;
  options.column_types = {"int64"};
  EXPECT_FALSE(ImportCsvText("t", "k\n1\nx\n", options).ok());
  // A missing trailing newline is fine.
  ASSERT_OK_AND_ASSIGN(Relation ok_rel, ImportCsvText("t", "k\n1\n2\n3"));
  EXPECT_EQ(3, ok_rel.num_rows());
}

TEST(CsvImportTest, CsvToSegmentsRoundTrip) {
  const std::string text =
      "k,v\n"
      "0,0.5\n"
      "1,1.5\n"
      "2,2.5\n"
      "3,3.5\n";
  ASSERT_OK_AND_ASSIGN(Relation rel, ImportCsvText("r", text));
  Catalog catalog;
  catalog["r"] = rel;
  const std::string dir = FreshDir("csvseg");
  ASSERT_OK(WriteCatalogSegments(catalog, dir, /*segment_rows=*/2));
  ASSERT_OK_AND_ASSIGN(auto stored_catalog, SegmentCatalog::Open(dir));
  ColumnarCatalog mem_catalog(&catalog);
  ASSERT_OK_AND_ASSIGN(const uint64_t a, mem_catalog.Fingerprint("r"));
  ASSERT_OK_AND_ASSIGN(const uint64_t b, stored_catalog->Fingerprint("r"));
  EXPECT_EQ(a, b);
}

// ---------------------------------------------------------------------------
// The tentpole property: pruned == unpruned == in-memory, bit for bit

struct ParityCase {
  std::string label;
  PlanPtr plan;
};

std::vector<ParityCase> ParityCases(int64_t lineitem_rows) {
  // Predicates over l_orderkey exploit the generator's sorted order (rows
  // are emitted order-by-order), so zone maps genuinely prune; the WOR /
  // block / lineage samplers exercise keep-set pruning.
  std::vector<ParityCase> cases;
  cases.push_back(
      {"select_wor",
       PlanNode::SelectNode(
           Lt(Col("l_orderkey"), Lit(int64_t{40})),
           PlanNode::Sample(
               SamplingSpec::WithoutReplacement(25, lineitem_rows),
               PlanNode::Scan("l")))});
  cases.push_back(
      {"bernoulli_select",
       PlanNode::SelectNode(
           Lt(Col("l_orderkey"), Lit(int64_t{30})),
           PlanNode::Sample(SamplingSpec::Bernoulli(0.5),
                            PlanNode::Scan("l")))});
  cases.push_back(
      {"block_sample",
       PlanNode::SelectNode(
           Ge(Col("l_orderkey"), Lit(int64_t{250})),
           PlanNode::Sample(SamplingSpec::BlockBernoulli(0.4, 16),
                            PlanNode::Scan("l")))});
  cases.push_back(
      {"join_selective",
       PlanNode::Join(
           PlanNode::SelectNode(
               Lt(Col("l_orderkey"), Lit(int64_t{25})),
               PlanNode::Sample(
                   SamplingSpec::WithoutReplacement(20, lineitem_rows),
                   PlanNode::Scan("l"))),
           PlanNode::Scan("o"), "l_orderkey", "o_orderkey")});
  return cases;
}

void ExpectReportsBitIdentical(const SboxReport& a, const SboxReport& b) {
  EXPECT_EQ(a.estimate, b.estimate);
  EXPECT_EQ(a.variance, b.variance);
  EXPECT_EQ(a.interval.lo, b.interval.lo);
  EXPECT_EQ(a.interval.hi, b.interval.hi);
  EXPECT_EQ(a.sample_rows, b.sample_rows);
  EXPECT_EQ(a.variance_rows, b.variance_rows);
}

TEST(PruningParityTest, PrunedRunsAreBitIdenticalAcrossEnginesAndShards) {
  const TpchData data = GenerateTpch(SmallTpch());
  Catalog catalog = data.MakeCatalog();
  const int64_t lineitem_rows = catalog.at("l").num_rows();
  const std::string dir = FreshDir("parity");
  constexpr int64_t kSegmentRows = 64;
  ASSERT_OK(WriteCatalogSegments(catalog, dir, kSegmentRows));

  for (const uint64_t seed : {7u, 1234u}) {
    for (const ParityCase& pc : ParityCases(lineitem_rows)) {
      SCOPED_TRACE(pc.label + " seed=" + std::to_string(seed));
      ASSERT_OK_AND_ASSIGN(SoaResult soa, SoaTransform(pc.plan));
      const ExprPtr f = Col("l_quantity");
      SboxOptions sbox;

      ExecOptions exec;
      exec.engine = ExecEngine::kMorselParallel;
      // Explicit, segment-aligned morsels: geometry identical with and
      // without the store, so even plain streaming Bernoulli agrees.
      exec.morsel_rows = 2 * kSegmentRows;

      // In-memory baseline.
      ColumnarCatalog mem_catalog(&catalog);
      Rng rng_mem(seed);
      ASSERT_OK_AND_ASSIGN(
          SboxReport baseline,
          EstimatePlanParallel(pc.plan, &mem_catalog, &rng_mem, f, soa.top,
                               sbox, ExecMode::kSampled, exec));

      for (const int threads : {1, 4}) {
        for (const bool prune : {false, true}) {
          SCOPED_TRACE("threads=" + std::to_string(threads) +
                       " prune=" + std::to_string(prune));
          ASSERT_OK_AND_ASSIGN(auto stored_catalog, SegmentCatalog::Open(dir));
          ExecOptions stored_exec = exec;
          stored_exec.num_threads = threads;
          stored_exec.prune_segments = prune;
          ExecStats stats;
          stored_exec.stats = &stats;
          Rng rng(seed);
          ASSERT_OK_AND_ASSIGN(
              SboxReport report,
              EstimatePlanParallel(pc.plan, stored_catalog.get(), &rng, f,
                                   soa.top, sbox, ExecMode::kSampled,
                                   stored_exec));
          ExpectReportsBitIdentical(baseline, report);
          EXPECT_GT(stats.segments_total, 0);
          if (!prune) {
            EXPECT_EQ(0, stats.segments_skipped);
          }
        }
      }

      // Sharded over the stored catalog, pruning on: still bit-identical,
      // for every shard count.
      for (const int shards : {1, 2}) {
        SCOPED_TRACE("shards=" + std::to_string(shards));
        ASSERT_OK_AND_ASSIGN(auto stored_catalog, SegmentCatalog::Open(dir));
        ExecOptions shard_exec = exec;
        shard_exec.engine = ExecEngine::kSharded;
        ASSERT_OK_AND_ASSIGN(
            SboxReport report,
            ShardedSboxEstimateOverCatalog(pc.plan, stored_catalog.get(),
                                           seed, ExecMode::kSampled,
                                           shard_exec, shards, f, soa.top,
                                           sbox));
        // The sharded gather runs the same units with the same streams;
        // against the morsel baseline only the estimate-bearing fields
        // are comparable (and must match exactly).
        ExpectReportsBitIdentical(baseline, report);
      }
    }
  }
}

TEST(PruningParityTest, SelectiveQueryActuallySkipsSegments) {
  const TpchData data = GenerateTpch(SmallTpch());
  Catalog catalog = data.MakeCatalog();
  const int64_t lineitem_rows = catalog.at("l").num_rows();
  const std::string dir = FreshDir("skips");
  constexpr int64_t kSegmentRows = 64;
  ASSERT_OK(WriteCatalogSegments(catalog, dir, kSegmentRows));
  ASSERT_OK_AND_ASSIGN(auto stored_catalog, SegmentCatalog::Open(dir));

  // l_orderkey < 20 touches only the head of the sorted lineitem file.
  PlanPtr plan = PlanNode::SelectNode(
      Lt(Col("l_orderkey"), Lit(int64_t{20})),
      PlanNode::Sample(SamplingSpec::WithoutReplacement(10, lineitem_rows),
                       PlanNode::Scan("l")));
  ASSERT_OK_AND_ASSIGN(SoaResult soa, SoaTransform(plan));
  ExecOptions exec;
  exec.engine = ExecEngine::kMorselParallel;
  exec.morsel_rows = kSegmentRows;
  ExecStats stats;
  exec.stats = &stats;
  Rng rng(3);
  ASSERT_OK_AND_ASSIGN(
      SboxReport report,
      EstimatePlanParallel(plan, stored_catalog.get(), &rng, Col("l_quantity"),
                           soa.top, SboxOptions{}, ExecMode::kSampled, exec));
  (void)report;
  EXPECT_GT(stats.segments_skipped, stats.segments_total / 2)
      << "selective scan should skip most segments";
  // Cold cache + single relation: every segment is either skipped or
  // faulted exactly once.
  EXPECT_EQ(stats.segments_total,
            stats.segments_skipped + stats.segments_faulted);
  EXPECT_GT(stats.store_bytes_read, 0);
}

}  // namespace
}  // namespace gus
