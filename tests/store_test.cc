// The storage layer (src/store/): segment file round trips, fingerprint
// parity with the in-memory catalog, zone-map boundary semantics, the
// pinned-segment LRU cache, loud checksum failures, CSV ingestion, and —
// the load-bearing property — pruned vs unpruned bit-identical estimates
// across engines, thread counts, and shard counts.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <numeric>
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

/// Writes the 17-row, three-column (int64, float64, string) relation of
/// EverySingleBitFlipInEveryPageIsDetected in segments of 7 rows.
std::string WriteTinyThreeColumnFile(const std::string& tag) {
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
  const std::string dir = FreshDir(tag);
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/tiny.gseg";
  Result<ColumnarRelation> crel = ColumnarRelation::FromRelation(rel);
  EXPECT_TRUE(crel.ok());
  EXPECT_TRUE(WriteRelationSegments("tiny", *crel, path, /*segment_rows=*/7)
                  .ok());
  return path;
}

/// The columns flagged in `cols` and the lineage of `got` equal `want`'s
/// bit for bit; the unflagged columns of `got` are empty (never decoded).
void ExpectProjectedBitIdentical(const ColumnBatch& want,
                                 const ColumnBatch& got,
                                 const std::vector<char>& cols) {
  ASSERT_EQ(want.num_rows(), got.num_rows());
  EXPECT_EQ(want.lineage(), got.lineage());
  for (int c = 0; c < got.num_columns(); ++c) {
    SCOPED_TRACE("column " + std::to_string(c));
    const ColumnData& a = want.column(c);
    const ColumnData& b = got.column(c);
    if (!cols[static_cast<size_t>(c)]) {
      EXPECT_EQ(0, b.size());
      continue;
    }
    EXPECT_EQ(a.i64, b.i64);
    EXPECT_EQ(a.codes, b.codes);
    ASSERT_EQ(a.f64.size(), b.f64.size());
    for (size_t i = 0; i < a.f64.size(); ++i) {
      EXPECT_EQ(std::bit_cast<uint64_t>(a.f64[i]),
                std::bit_cast<uint64_t>(b.f64[i]));
    }
  }
}

TEST(SegmentCacheTest, ProjectedFaultsFailIffTheyReadTheFlippedPage) {
  // Every single-bit flip of every page: a fault whose footprint includes
  // the page fails with kInternal; one that excludes it succeeds and
  // decodes its columns bit-identical to the intact file. The lineage
  // page is part of every footprint.
  const std::string path = WriteTinyThreeColumnFile("projflip");
  struct Page {
    int64_t segment;
    int column;  // -1: the lineage page
    uint64_t offset, bytes;
  };
  std::vector<Page> pages;
  std::vector<ColumnBatch> intact;
  int num_columns = 0;
  {
    ASSERT_OK_AND_ASSIGN(auto stored, StoredRelation::Open(path));
    num_columns = static_cast<int>(stored->all_columns().size());
    ASSERT_EQ(3, num_columns);
    for (int64_t s = 0; s < stored->num_segments(); ++s) {
      ASSERT_OK_AND_ASSIGN(ColumnBatch batch, stored->DecodeSegment(s));
      intact.push_back(std::move(batch));
      const SegmentInfo& seg = stored->segment(s);
      for (int c = 0; c < num_columns; ++c) {
        pages.push_back({s, c, seg.column_pages[static_cast<size_t>(c)].first,
                         seg.column_pages[static_cast<size_t>(c)].second});
      }
      pages.push_back(
          {s, -1, seg.lineage_page.first, seg.lineage_page.second});
    }
  }

  int64_t flips = 0;
  for (const Page& page : pages) {
    // `only` reads just this page (plus the lineage); `others` reads every
    // column but this one.
    std::vector<char> only(static_cast<size_t>(num_columns), 0);
    std::vector<char> others(static_cast<size_t>(num_columns), 1);
    if (page.column >= 0) {
      only[static_cast<size_t>(page.column)] = 1;
      others[static_cast<size_t>(page.column)] = 0;
    }
    for (uint64_t at = page.offset; at < page.offset + page.bytes; ++at) {
      for (int bit = 0; bit < 8; ++bit) {
        SCOPED_TRACE("segment " + std::to_string(page.segment) + " column " +
                     std::to_string(page.column) + " byte " +
                     std::to_string(at) + " bit " + std::to_string(bit));
        FlipBit(path, at, bit);
        {
          ASSERT_OK_AND_ASSIGN(auto stored, StoredRelation::Open(path));
          EXPECT_STATUS_CODE(kInternal,
                             stored->DecodeSegment(page.segment, only)
                                 .status());
          SegmentCache cache;
          EXPECT_STATUS_CODE(kInternal,
                             cache.Fault(*stored, page.segment, only)
                                 .status());
          if (page.column >= 0) {
            ASSERT_OK_AND_ASSIGN(auto pin,
                                 cache.Fault(*stored, page.segment, others));
            ExpectProjectedBitIdentical(
                intact[static_cast<size_t>(page.segment)], *pin, others);
          }
        }
        FlipBit(path, at, bit);  // restore
        ++flips;
      }
    }
  }
  EXPECT_EQ(8 * (2 * (56 + 56 + 28 + 56) + (24 + 24 + 12 + 24)), flips);
}

TEST(SegmentCacheTest, FaultsAreKeyedAndChargedByFootprint) {
  const std::string path = WriteTinyThreeColumnFile("footprint");
  ASSERT_OK_AND_ASSIGN(auto stored, StoredRelation::Open(path));
  const std::vector<char> key_only = {1, 0, 0};
  const SegmentInfo& seg = stored->segment(0);
  EXPECT_EQ(static_cast<int64_t>(seg.column_pages[0].second +
                                 seg.lineage_page.second),
            stored->PageBytes(0, key_only));
  EXPECT_EQ(seg.page_bytes, stored->PageBytes(0, stored->all_columns()));

  SegmentCache cache;
  ASSERT_OK_AND_ASSIGN(auto projected, cache.Fault(*stored, 0, key_only));
  ExpectProjectedBitIdentical(*stored->DecodeSegment(0), *projected,
                              key_only);
  SegmentCacheCounters c = cache.counters();
  EXPECT_EQ(1, c.faults);
  EXPECT_EQ(stored->PageBytes(0, key_only), c.bytes_read);
  EXPECT_EQ(stored->PageBytes(0, key_only), c.resident_bytes);

  // The same footprint hits; another footprint is its own entry.
  ASSERT_OK(cache.Fault(*stored, 0, key_only).status());
  ASSERT_OK(cache.Fault(*stored, 0).status());
  c = cache.counters();
  EXPECT_EQ(1, c.hits);
  EXPECT_EQ(2, c.faults);
  EXPECT_EQ(stored->PageBytes(0, key_only) + seg.page_bytes, c.bytes_read);

  // A footprint of the wrong width is refused, not read past.
  EXPECT_STATUS_CODE(kInvalidArgument,
                     cache.Fault(*stored, 0, std::vector<char>{1}).status());
}

TEST(SegmentStoreTest, VersionTwoFilesAreRefused) {
  const TpchData data = GenerateTpch(SmallTpch());
  Catalog catalog = data.MakeCatalog();
  const std::string dir = FreshDir("v2");
  ASSERT_OK(WriteCatalogSegments(catalog, dir, /*segment_rows=*/64));
  const std::string path = dir + "/o.gseg";
  {
    // Header: u32 magic, then u32 version.
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    const uint32_t version = 2;
    f.seekp(4);
    f.write(reinterpret_cast<const char*>(&version), sizeof(version));
    ASSERT_TRUE(f.good());
  }
  const Result<std::unique_ptr<StoredRelation>> opened =
      StoredRelation::Open(path);
  EXPECT_STATUS_CODE(kInvalidArgument, opened.status());
  EXPECT_NE(std::string::npos,
            opened.status().ToString().find("unsupported version 2"));
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
  // Stacked plain Bernoullis: the upper one runs as a breaker that
  // gathers whole rows, so the pivot must fault every column.
  cases.push_back(
      {"bernoulli_breaker",
       PlanNode::SelectNode(
           Lt(Col("l_orderkey"), Lit(int64_t{60})),
           PlanNode::Sample(
               SamplingSpec::Bernoulli(0.7),
               PlanNode::Sample(SamplingSpec::Bernoulli(0.6),
                                PlanNode::Scan("l"))))});
  cases.push_back(
      {"lineage_bernoulli",
       PlanNode::SelectNode(
           Ge(Col("l_discount"), Lit(0.02)),
           PlanNode::Sample(SamplingSpec::LineageBernoulli("l", 0.5, 99),
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

TEST(PruningParityTest, ProjectedScanReadsOnlyItsFootprintPages) {
  // segment_scan's shape: an l_orderkey range over Bernoulli lineitem,
  // SUM(l_extendedprice). The pivot faults l_orderkey (the predicate),
  // l_extendedprice (the estimator's f) and the lineage — nothing else.
  const TpchData data = GenerateTpch(SmallTpch());
  Catalog catalog = data.MakeCatalog();
  const std::string dir = FreshDir("projected");
  constexpr int64_t kSegmentRows = 64;
  ASSERT_OK(WriteCatalogSegments(catalog, dir, kSegmentRows));

  PlanPtr plan = PlanNode::SelectNode(
      And(Ge(Col("l_orderkey"), Lit(int64_t{0})),
          Lt(Col("l_orderkey"), Lit(int64_t{20}))),
      PlanNode::Sample(SamplingSpec::Bernoulli(0.5), PlanNode::Scan("l")));
  ASSERT_OK_AND_ASSIGN(SoaResult soa, SoaTransform(plan));
  const ExprPtr f = Col("l_extendedprice");
  ExecOptions exec;
  exec.engine = ExecEngine::kMorselParallel;
  exec.num_threads = 4;
  exec.morsel_rows = kSegmentRows;  // unit m == segment m

  ColumnarCatalog mem_catalog(&catalog);
  Rng rng_mem(11);
  ASSERT_OK_AND_ASSIGN(
      SboxReport baseline,
      EstimatePlanParallel(plan, &mem_catalog, &rng_mem, f, soa.top,
                           SboxOptions{}, ExecMode::kSampled, exec));

  for (const bool prune : {false, true}) {
    SCOPED_TRACE("prune=" + std::to_string(prune));
    ASSERT_OK_AND_ASSIGN(auto stored_catalog, SegmentCatalog::Open(dir));
    ASSERT_OK_AND_ASSIGN(const StoredRelation* l,
                         stored_catalog->Stored("l"));
    const Schema& schema = l->layout_ptr()->schema;
    std::vector<char> footprint(static_cast<size_t>(schema.num_columns()), 0);
    for (const char* name : {"l_orderkey", "l_extendedprice"}) {
      ASSERT_OK_AND_ASSIGN(const int c, schema.IndexOf(name));
      footprint[static_cast<size_t>(c)] = 1;
    }
    ExecOptions stored_exec = exec;
    stored_exec.prune_segments = prune;
    ExecStats stats;
    stored_exec.stats = &stats;
    Rng rng(11);
    ASSERT_OK_AND_ASSIGN(
        SboxReport report,
        EstimatePlanParallel(plan, stored_catalog.get(), &rng, f, soa.top,
                             SboxOptions{}, ExecMode::kSampled, stored_exec));
    ExpectReportsBitIdentical(baseline, report);

    int64_t expect_bytes = 0;
    if (prune) {
      // The range covers the head of the sorted file only, so every
      // faulted segment is a full one.
      EXPECT_GT(stats.segments_skipped, 0);
      expect_bytes = stats.segments_faulted * l->PageBytes(0, footprint);
    } else {
      EXPECT_EQ(l->num_segments(), stats.segments_faulted);
      for (int64_t s = 0; s < l->num_segments(); ++s) {
        expect_bytes += l->PageBytes(s, footprint);
      }
    }
    EXPECT_EQ(expect_bytes, stats.store_bytes_read);
    EXPECT_LT(stats.store_bytes_read,
              stats.segments_faulted * l->segment(0).page_bytes);

    // Pruned units are not work: the workers' counts plus the skipped
    // units (== skipped segments, units being segment-aligned) make up
    // every morsel.
    const int64_t executed = std::accumulate(
        stats.worker_morsels.begin(), stats.worker_morsels.end(), int64_t{0});
    EXPECT_EQ(stats.morsels, executed + stats.segments_skipped);
    EXPECT_EQ(stats.morsels, stats.sinks_created + stats.sinks_recycled);
  }
}

/// Materializes every consumed row. Declares no column footprint, so the
/// engine must hand it every column.
class CollectSink final : public MergeableBatchSink {
 public:
  explicit CollectSink(const BatchLayout& layout)
      : rel_(std::make_shared<BatchLayout>(layout)) {}

  Status Consume(const ColumnBatch& batch) override {
    rel_.AppendBatch(batch);
    return Status::OK();
  }
  Status MergeFrom(BatchSink* other) override {
    rel_.AppendBatch(static_cast<CollectSink*>(other)->rel_.data());
    return Status::OK();
  }
  const ColumnarRelation& rel() const { return rel_; }

 private:
  ColumnarRelation rel_;
};

TEST(PruningParityTest, MaterializedStoredResultsMatchInMemoryBitForBit) {
  const TpchData data = GenerateTpch(SmallTpch());
  Catalog catalog = data.MakeCatalog();
  const int64_t lineitem_rows = catalog.at("l").num_rows();
  const std::string dir = FreshDir("materialize");
  constexpr int64_t kSegmentRows = 64;
  ASSERT_OK(WriteCatalogSegments(catalog, dir, kSegmentRows));
  const MorselSinkFactory make_sink =
      [](const BatchLayout& layout)
      -> Result<std::unique_ptr<MergeableBatchSink>> {
    return std::unique_ptr<MergeableBatchSink>(new CollectSink(layout));
  };

  for (const ParityCase& pc : ParityCases(lineitem_rows)) {
    SCOPED_TRACE(pc.label);
    ExecOptions exec;
    exec.engine = ExecEngine::kMorselParallel;
    exec.num_threads = 4;
    exec.morsel_rows = kSegmentRows;

    ColumnarCatalog mem_catalog(&catalog);
    Rng rng_mem(5);
    std::unique_ptr<MergeableBatchSink> mem_out;
    ASSERT_OK(ExecutePlanToSink(pc.plan, &mem_catalog, &rng_mem,
                                ExecMode::kSampled, exec, make_sink,
                                &mem_out));
    const ColumnBatch& want = static_cast<CollectSink*>(mem_out.get())->rel().data();
    ASSERT_GT(want.num_rows(), 0);

    ASSERT_OK_AND_ASSIGN(auto stored_catalog, SegmentCatalog::Open(dir));
    Rng rng(5);
    std::unique_ptr<MergeableBatchSink> stored_out;
    ASSERT_OK(ExecutePlanToSink(pc.plan, stored_catalog.get(), &rng,
                                ExecMode::kSampled, exec, make_sink,
                                &stored_out));
    const ColumnBatch& got =
        static_cast<CollectSink*>(stored_out.get())->rel().data();
    // Every column value (floats by bit pattern, strings by content) and
    // the lineage matrix.
    ASSERT_EQ(want.num_rows(), got.num_rows());
    for (int c = 0; c < got.num_columns(); ++c) {
      ASSERT_EQ(want.num_rows(), got.column(c).size()) << "column " << c;
    }
    EXPECT_EQ(ContentFingerprint(pc.label, want),
              ContentFingerprint(pc.label, got));
  }
}

}  // namespace
}  // namespace gus
