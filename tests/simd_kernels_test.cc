// Bit-parity tests for the runtime-dispatched SIMD kernels (kernels/simd).
//
// The dispatch contract is strict: for any input, every tier (scalar,
// AVX2, AVX-512) produces byte-identical selection vectors, hashes,
// keep-sets, pair compactions, and converts — and therefore byte-identical
// estimates end to end. These tests force each tier in turn (skipping
// tiers the host cannot run) and compare against the scalar tier:
//
//   * unaligned/tail lengths (1, 7, 8, 9, 63, 64, 65) for every kernel,
//     with NaN, -0.0 and extreme values in the data;
//   * the integer-threshold Bernoulli keep test vs the float compare it
//     replaces, across the full range of p;
//   * the exact-i64-to-f64 convert at the 2^52/2^53 rounding boundaries;
//   * FilterEqualKeyPairs randomized parity on every key type;
//   * JoinHashTable::StateDigest and full query estimates across engines,
//     identical per tier.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "data/tpch_gen.h"
#include "dist/coordinator.h"
#include "kernels/key_hash.h"
#include "kernels/join_hash_table.h"
#include "kernels/simd/simd_dispatch.h"
#include "plan/soa_transform.h"
#include "rel/column_batch.h"
#include "sqlish/planner.h"
#include "test_util.h"
#include "util/hash.h"
#include "util/random.h"

namespace gus {
namespace {

using simd::CmpOp;
using simd::SimdTier;

const std::vector<SimdTier>& AllTiers() {
  static const std::vector<SimdTier> kTiers = {
      SimdTier::kScalar, SimdTier::kAvx2, SimdTier::kAvx512};
  return kTiers;
}

/// Forces a tier for the enclosing scope; ok() is false when the host (or
/// the build) cannot run it and the dispatcher clamped the request down.
class ScopedTier {
 public:
  explicit ScopedTier(SimdTier tier)
      : ok_(simd::SetSimdTierForTesting(tier) == tier) {}
  ~ScopedTier() { simd::ResetSimdTierForTesting(); }
  bool ok() const { return ok_; }

 private:
  bool ok_;
};

TEST(SimdDispatchTest, ForcingAboveDetectedClamps) {
  const SimdTier detected = simd::DetectedSimdTier();
  for (SimdTier tier : AllTiers()) {
    const SimdTier installed = simd::SetSimdTierForTesting(tier);
    if (tier <= detected) {
      EXPECT_EQ(tier, installed) << simd::SimdTierName(tier);
    } else {
      EXPECT_EQ(detected, installed) << simd::SimdTierName(tier);
    }
  }
  simd::ResetSimdTierForTesting();
}

TEST(SimdDispatchTest, KeepThresholdMatchesFloatCompare) {
  // The SIMD tiers keep a lineage id iff (h >> 11) < LineageKeepThreshold(p);
  // the scalar semantics is HashToUnit(h) < p. The header proves these
  // agree for every h and p — spot-check the proof across magnitudes and
  // at the edges.
  std::vector<double> ps = {0.0,  1e-300, 1e-17, 1e-9, 0.01, 0.3,
                            0.5,  0.999,  1.0,   1.5,  -0.5};
  ps.push_back(std::nextafter(1.0, 0.0));
  ps.push_back(std::nextafter(0.0, 1.0));
  Rng rng(7);
  std::vector<uint64_t> hs = {0, 1, (uint64_t{1} << 11) - 1, uint64_t{1} << 11,
                              ~uint64_t{0}, ~uint64_t{0} - 2047};
  for (int i = 0; i < 256; ++i) hs.push_back(rng.Next());
  for (double p : ps) {
    const uint64_t threshold = simd::LineageKeepThreshold(p);
    for (uint64_t h : hs) {
      EXPECT_EQ(HashToUnit(h) < p, (h >> 11) < threshold)
          << "p=" << p << " h=" << h;
    }
  }
}

// ---- Per-kernel tail/parity sweep -------------------------------------------

/// Inputs for one length, shared across tiers; values include NaN, -0.0,
/// zeros (SelNonZero must skip them) and huge magnitudes.
struct KernelInputs {
  int64_t n = 0;
  std::vector<int64_t> i64a, i64b;
  std::vector<double> f64a, f64b;
  std::vector<uint32_t> codes;
  std::vector<uint64_t> dict_hashes;
  std::vector<int64_t> rows;       // gather indexes into the above
  std::vector<uint64_t> lineage;   // arity-3 lineage block
  static constexpr int64_t kArity = 3;

  static KernelInputs Make(int64_t n, uint64_t seed) {
    KernelInputs in;
    in.n = n;
    Rng rng(seed);
    const double kNan = std::numeric_limits<double>::quiet_NaN();
    for (int64_t i = 0; i < n; ++i) {
      in.i64a.push_back(static_cast<int64_t>(rng.Next() >> (i % 2 ? 1 : 40)) -
                        (1 << 20));
      in.i64b.push_back(i % 5 == 0 ? in.i64a.back()
                                   : static_cast<int64_t>(rng.Next() >> 40));
      double a = static_cast<double>(static_cast<int64_t>(rng.Next() >> 44)) /
                 8.0;
      if (i % 11 == 3) a = kNan;
      if (i % 13 == 5) a = -0.0;
      if (i % 13 == 6) a = 0.0;
      in.f64a.push_back(a);
      in.f64b.push_back(i % 7 == 0 ? a : static_cast<double>(
                                             static_cast<int64_t>(rng.Next() >>
                                                                  44)) /
                                             8.0);
      in.codes.push_back(static_cast<uint32_t>(rng.Next() % 17));
      in.rows.push_back(static_cast<int64_t>(rng.Next() % n));
      for (int64_t d = 0; d < kArity; ++d) in.lineage.push_back(rng.Next());
    }
    for (int i = 0; i < 17; ++i) in.dict_hashes.push_back(Mix64(seed + i));
    return in;
  }
};

/// Everything the kernels emit for one input set, in one comparable bag.
struct KernelOutputs {
  std::vector<std::vector<int64_t>> sels;
  std::vector<std::vector<uint64_t>> hashes;
  std::vector<std::vector<int64_t>> gathers_i64;
  std::vector<double> gathered_f64;
  std::vector<uint32_t> gathered_u32;
  std::vector<uint64_t> gathered_u64;
  std::vector<double> converted;

  bool operator==(const KernelOutputs& o) const {
    if (sels != o.sels || hashes != o.hashes ||
        gathers_i64 != o.gathers_i64 || gathered_u32 != o.gathered_u32 ||
        gathered_u64 != o.gathered_u64) {
      return false;
    }
    // Doubles compare by bits (NaN payloads included).
    auto bits_equal = [](const std::vector<double>& x,
                         const std::vector<double>& y) {
      if (x.size() != y.size()) return false;
      return std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) == 0;
    };
    return bits_equal(gathered_f64, o.gathered_f64) &&
           bits_equal(converted, o.converted);
  }
};

KernelOutputs RunAllKernels(const KernelInputs& in) {
  KernelOutputs out;
  const int64_t n = in.n;
  auto sel = [&](auto&& fn) {
    std::vector<int64_t> s(n);
    s.resize(fn(s.data()));
    out.sels.push_back(std::move(s));
  };
  sel([&](int64_t* o) { return simd::SelNonZeroI64(in.i64a.data(), n, o); });
  sel([&](int64_t* o) { return simd::SelNonZeroF64(in.f64a.data(), n, o); });
  const double lit = 16.0;
  for (CmpOp op : {CmpOp::kEq, CmpOp::kNe, CmpOp::kLt, CmpOp::kLe, CmpOp::kGt,
                   CmpOp::kGe}) {
    sel([&](int64_t* o) {
      return simd::SelCmpI64Lit(op, in.i64a.data(), n, lit, o);
    });
    sel([&](int64_t* o) {
      return simd::SelCmpF64Lit(op, in.f64a.data(), n, lit, o);
    });
    sel([&](int64_t* o) {
      return simd::SelCmpI64I64(op, in.i64a.data(), in.i64b.data(), n, o);
    });
    sel([&](int64_t* o) {
      return simd::SelCmpF64F64(op, in.f64a.data(), in.f64b.data(), n, o);
    });
    sel([&](int64_t* o) {
      return simd::SelCmpI64F64(op, in.i64a.data(), in.f64b.data(), n, o);
    });
    sel([&](int64_t* o) {
      return simd::SelCmpF64I64(op, in.f64a.data(), in.i64b.data(), n, o);
    });
  }
  auto hash = [&](auto&& fn) {
    std::vector<uint64_t> h(n);
    fn(h.data());
    out.hashes.push_back(std::move(h));
  };
  hash([&](uint64_t* o) { simd::HashI64Keys(in.i64a.data(), n, o); });
  hash([&](uint64_t* o) {
    simd::HashI64KeysGather(in.i64a.data(), in.rows.data(), n, o);
  });
  hash([&](uint64_t* o) {
    simd::HashDictCodes(in.dict_hashes.data(), in.codes.data(), n, o);
  });
  hash([&](uint64_t* o) {
    simd::HashDictCodesGather(in.dict_hashes.data(), in.codes.data(),
                              in.rows.data(), n, o);
  });
  // Lineage keep masks at several p (dense with both strides, and gather).
  for (double p : {0.0, 0.25, 0.6, 1.0}) {
    const uint64_t threshold = simd::LineageKeepThreshold(p);
    sel([&](int64_t* o) {
      return simd::LineageKeepDense(/*seed=*/42, threshold, in.lineage.data(),
                                    /*stride=*/1, /*begin=*/3, n, o);
    });
    sel([&](int64_t* o) {
      return simd::LineageKeepDense(
          /*seed=*/42, threshold, in.lineage.data() + 1, KernelInputs::kArity,
          /*begin=*/0, n, o);
    });
    sel([&](int64_t* o) {
      return simd::LineageKeepGather(/*seed=*/42, threshold, in.lineage.data(),
                                     KernelInputs::kArity, /*dim=*/2,
                                     in.rows.data(), n, o);
    });
  }
  out.gathers_i64.emplace_back(n);
  simd::GatherI64(in.i64a.data(), in.rows.data(), n,
                  out.gathers_i64.back().data());
  out.gathered_f64.resize(n);
  simd::GatherF64(in.f64a.data(), in.rows.data(), n, out.gathered_f64.data());
  out.gathered_u32.resize(n);
  simd::GatherU32(in.codes.data(), in.rows.data(), n, out.gathered_u32.data());
  out.gathered_u64.resize(n);
  simd::GatherU64(in.lineage.data(), in.rows.data(), n,
                  out.gathered_u64.data());
  out.converted.resize(n);
  simd::ConvertI64ToF64(in.i64a.data(), n, out.converted.data());
  return out;
}

TEST(SimdKernelsTest, AllKernelsTailLengthParity) {
  for (int64_t n : {1, 7, 8, 9, 63, 64, 65, 1000}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    const KernelInputs in = KernelInputs::Make(n, 1000 + n);
    KernelOutputs reference;
    {
      ScopedTier force(SimdTier::kScalar);
      ASSERT_TRUE(force.ok());
      reference = RunAllKernels(in);
    }
    for (SimdTier tier : {SimdTier::kAvx2, SimdTier::kAvx512}) {
      SCOPED_TRACE(simd::SimdTierName(tier));
      ScopedTier force(tier);
      if (!force.ok()) continue;  // host can't run this tier
      EXPECT_TRUE(reference == RunAllKernels(in));
    }
  }
}

TEST(SimdKernelsTest, ConvertI64ToF64Boundaries) {
  // The AVX2 tier converts full-range int64 to double with the
  // magic-number trick; it must round identically to a scalar
  // static_cast at every boundary, especially around 2^52/2^53 where
  // ties appear and beyond 2^53 where rounding starts losing bits.
  std::vector<int64_t> src = {0,
                              1,
                              -1,
                              (int64_t{1} << 52) - 1,
                              int64_t{1} << 52,
                              (int64_t{1} << 53) - 1,
                              int64_t{1} << 53,
                              (int64_t{1} << 53) + 1,
                              (int64_t{1} << 53) + 2,
                              (int64_t{1} << 53) + 3,
                              (int64_t{1} << 54) + 2,
                              (int64_t{1} << 54) + 6,
                              (int64_t{1} << 62) + 12345,
                              std::numeric_limits<int64_t>::max(),
                              std::numeric_limits<int64_t>::max() - 1,
                              std::numeric_limits<int64_t>::min(),
                              std::numeric_limits<int64_t>::min() + 1};
  for (int64_t v : std::vector<int64_t>(src)) src.push_back(-v);
  Rng rng(3);
  for (int i = 0; i < 500; ++i) {
    src.push_back(static_cast<int64_t>(rng.Next()));
  }
  std::vector<double> got(src.size());
  for (SimdTier tier : AllTiers()) {
    SCOPED_TRACE(simd::SimdTierName(tier));
    ScopedTier force(tier);
    if (!force.ok()) continue;
    simd::ConvertI64ToF64(src.data(), static_cast<int64_t>(src.size()),
                          got.data());
    for (size_t i = 0; i < src.size(); ++i) {
      const double want = static_cast<double>(src[i]);
      EXPECT_EQ(want, got[i]) << "src=" << src[i];
    }
  }
}

// ---- FilterEqualKeyPairs randomized parity ----------------------------------

ColumnData MakeKeyColumn(ValueType type, int64_t n, uint64_t seed,
                         const DictPtr& dict, bool with_nan = true) {
  ColumnData col;
  col.type = type;
  Rng rng(seed);
  for (int64_t i = 0; i < n; ++i) {
    switch (type) {
      case ValueType::kInt64:
        col.i64.push_back(static_cast<int64_t>(rng.Next() % 13));
        break;
      case ValueType::kFloat64: {
        double v = static_cast<double>(rng.Next() % 13) / 4.0;
        if (with_nan && i % 17 == 3) {
          v = std::numeric_limits<double>::quiet_NaN();
        }
        if (i % 17 == 4) v = (rng.Next() % 2) ? 0.0 : -0.0;
        col.f64.push_back(v);
        break;
      }
      case ValueType::kString:
        col.dict = dict;
        col.codes.push_back(static_cast<uint32_t>(rng.Next() %
                                                  dict->values.size()));
        break;
    }
  }
  return col;
}

TEST(SimdKernelsTest, FilterEqualKeyPairsRandomizedParity) {
  auto dict = std::make_shared<StringDict>();
  for (int i = 0; i < 9; ++i) dict->Intern("k" + std::to_string(i));
  const int64_t kProbe = 211, kBuild = 173, kPairs = 997;
  for (ValueType type :
       {ValueType::kInt64, ValueType::kFloat64, ValueType::kString}) {
    SCOPED_TRACE(static_cast<int>(type));
    const ColumnData probe = MakeKeyColumn(type, kProbe, 11, dict);
    const ColumnData build = MakeKeyColumn(type, kBuild, 12, dict);
    Rng rng(13);
    std::vector<int64_t> probe_rows, build_rows;
    for (int64_t k = 0; k < kPairs; ++k) {
      probe_rows.push_back(static_cast<int64_t>(rng.Next() % kProbe));
      build_rows.push_back(static_cast<int64_t>(rng.Next() % kBuild));
    }
    for (int64_t begin : {int64_t{0}, int64_t{5}}) {
      SCOPED_TRACE("begin=" + std::to_string(begin));
      std::vector<int64_t> want_p, want_b;
      {
        ScopedTier force(SimdTier::kScalar);
        ASSERT_TRUE(force.ok());
        want_p = probe_rows;
        want_b = build_rows;
        FilterEqualKeyPairs(probe, build, &want_p, &want_b, begin);
      }
      EXPECT_LT(want_p.size(), probe_rows.size());  // some pairs pruned
      EXPECT_GT(want_p.size(), static_cast<size_t>(begin));  // some kept
      for (SimdTier tier : {SimdTier::kAvx2, SimdTier::kAvx512}) {
        SCOPED_TRACE(simd::SimdTierName(tier));
        ScopedTier force(tier);
        if (!force.ok()) continue;
        std::vector<int64_t> got_p = probe_rows, got_b = build_rows;
        FilterEqualKeyPairs(probe, build, &got_p, &got_b, begin);
        EXPECT_EQ(want_p, got_p);
        EXPECT_EQ(want_b, got_b);
      }
    }
  }
}

TEST(SimdKernelsTest, JoinHashTableStateDigestIdenticalPerTier) {
  auto dict = std::make_shared<StringDict>();
  for (int i = 0; i < 9; ++i) dict->Intern("k" + std::to_string(i));
  for (ValueType type :
       {ValueType::kInt64, ValueType::kFloat64, ValueType::kString}) {
    SCOPED_TRACE(static_cast<int>(type));
    // No NaN keys: the build-side collision check compares equal-hash rows
    // with KeyEquals, which a NaN key can never satisfy.
    const ColumnData key = MakeKeyColumn(type, 1021, 21, dict,
                                         /*with_nan=*/false);
    uint64_t reference = 0;
    {
      ScopedTier force(SimdTier::kScalar);
      ASSERT_TRUE(force.ok());
      JoinHashTable table;
      ASSERT_OK(table.BuildFrom(key, key.size()));
      reference = table.StateDigest();
    }
    for (SimdTier tier : {SimdTier::kAvx2, SimdTier::kAvx512}) {
      SCOPED_TRACE(simd::SimdTierName(tier));
      ScopedTier force(tier);
      if (!force.ok()) continue;
      JoinHashTable table;
      ASSERT_OK(table.BuildFrom(key, key.size()));
      EXPECT_EQ(reference, table.StateDigest());
    }
  }
}

// ---- End-to-end: estimates are bit-identical per tier across engines --------

class SimdEngineParityTest : public ::testing::Test {
 protected:
  SimdEngineParityTest() {
    TpchConfig config;
    config.num_orders = 300;
    config.num_customers = 8;
    config.num_parts = 40;
    data_ = GenerateTpch(config);
    catalog_ = data_.MakeCatalog();
  }
  TpchData data_;
  Catalog catalog_;
};

void ExpectValuesBitIdentical(const sqlish::ApproxResult& x,
                              const sqlish::ApproxResult& y) {
  ASSERT_EQ(x.values.size(), y.values.size());
  EXPECT_EQ(x.sample_rows, y.sample_rows);
  for (size_t i = 0; i < x.values.size(); ++i) {
    const sqlish::ApproxValue& a = x.values[i];
    const sqlish::ApproxValue& b = y.values[i];
    EXPECT_EQ(a.label, b.label);
    EXPECT_EQ(a.group, b.group);
    EXPECT_EQ(a.value, b.value) << a.label << " " << a.group;
    EXPECT_EQ(a.stddev, b.stddev) << a.label << " " << a.group;
    EXPECT_EQ(a.lo, b.lo) << a.label << " " << a.group;
    EXPECT_EQ(a.hi, b.hi) << a.label << " " << a.group;
  }
}

/// Runs `sql` under every (tier x engine x thread count) cell, then its
/// plan through the shard wire path (ShardedSboxEstimate) at 1 and 3
/// shards per tier. The SIMD contract is per cell: each engine
/// configuration must produce bit-identical estimates no matter which tier
/// computes it. (The row and morsel engines may legitimately draw
/// different PERCENT Bernoulli samples — that is Rng-partitioning, not
/// tier, behavior — so cells are compared across tiers, not across
/// engines.)
void ExpectTierMatrixParity(const std::string& sql, const Catalog& catalog,
                            uint64_t seed) {
  struct EngineCell {
    std::string name;
    ExecOptions exec;
  };
  std::vector<EngineCell> cells;
  {
    ExecOptions exec;
    exec.engine = ExecEngine::kRowAtATime;
    cells.push_back({"row", exec});
    exec.engine = ExecEngine::kColumnar;
    cells.push_back({"columnar", exec});
    for (const int threads : {1, 2, 4}) {
      exec.engine = ExecEngine::kMorselParallel;
      exec.num_threads = threads;
      exec.morsel_rows = 64;
      cells.push_back({"threads=" + std::to_string(threads), exec});
    }
  }
  for (const EngineCell& cell : cells) {
    SCOPED_TRACE(cell.name);
    sqlish::ApproxResult reference;
    {
      ScopedTier force(SimdTier::kScalar);
      ASSERT_TRUE(force.ok());
      ASSERT_OK_AND_ASSIGN(reference,
                           sqlish::RunApproxQuery(sql, catalog, seed,
                                                  SboxOptions{}, cell.exec));
    }
    ASSERT_FALSE(reference.values.empty());
    for (SimdTier tier : {SimdTier::kAvx2, SimdTier::kAvx512}) {
      SCOPED_TRACE(simd::SimdTierName(tier));
      ScopedTier force(tier);
      if (!force.ok()) continue;
      ASSERT_OK_AND_ASSIGN(
          sqlish::ApproxResult got,
          sqlish::RunApproxQuery(sql, catalog, seed, SboxOptions{},
                                 cell.exec));
      ExpectValuesBitIdentical(reference, got);
    }
  }

  // The shard cells estimate the first select item's SUM over the planned
  // plan: GROUP BY is a sink-side fold, so a grouped query's plan yields
  // the ungrouped total — still every kernel of the plan, per shard, plus
  // the bundle encode, decode and merge.
  ASSERT_OK_AND_ASSIGN(sqlish::ParsedQuery parsed, sqlish::ParseQuery(sql));
  ASSERT_OK_AND_ASSIGN(sqlish::PlannedQuery planned,
                       sqlish::PlanQuery(parsed, catalog));
  ASSERT_OK_AND_ASSIGN(SoaResult soa, SoaTransform(planned.plan));
  const ExprPtr& f = planned.items.front().expr;
  ExecOptions exec;
  exec.num_threads = 2;
  exec.morsel_rows = 64;
  const auto sharded = [&](int shards) {
    return ShardedSboxEstimate(planned.plan, catalog, seed,
                               ExecMode::kSampled, exec, shards, f, soa.top,
                               SboxOptions{});
  };
  for (const int shards : {1, 3}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    SboxReport reference;
    {
      ScopedTier force(SimdTier::kScalar);
      ASSERT_TRUE(force.ok());
      ASSERT_OK_AND_ASSIGN(reference, sharded(shards));
    }
    EXPECT_GT(reference.sample_rows, 0);
    for (SimdTier tier : {SimdTier::kAvx2, SimdTier::kAvx512}) {
      SCOPED_TRACE(simd::SimdTierName(tier));
      ScopedTier force(tier);
      if (!force.ok()) continue;
      ASSERT_OK_AND_ASSIGN(SboxReport got, sharded(shards));
      EXPECT_EQ(reference.estimate, got.estimate);
      EXPECT_EQ(reference.variance, got.variance);
      EXPECT_EQ(reference.stddev, got.stddev);
      EXPECT_EQ(reference.interval.lo, got.interval.lo);
      EXPECT_EQ(reference.interval.hi, got.interval.hi);
      EXPECT_EQ(reference.sample_rows, got.sample_rows);
      EXPECT_EQ(reference.variance_rows, got.variance_rows);
      EXPECT_EQ(reference.y_hat, got.y_hat);
    }
  }
}

TEST_F(SimdEngineParityTest, SampledJoinWithPredicate) {
  // Exercises the fused predicate kernels, SIMD key hashing, the pair
  // recheck, batch join emit, and the lineage keep-mask in one query.
  ExpectTierMatrixParity(R"(
    SELECT SUM(l_discount*(1.0-l_tax)), SUM(l_extendedprice)
    FROM l TABLESAMPLE (20 PERCENT), o TABLESAMPLE (150 ROWS)
    WHERE l_orderkey = o_orderkey AND l_extendedprice > 100.0;
  )",
                         catalog_, 301);
}

TEST_F(SimdEngineParityTest, GroupedAggregate) {
  // Exercises the gather-free grouped accumulation (SIMD key hashing over
  // borrowed selections) in every engine.
  ExpectTierMatrixParity(
      "SELECT SUM(o_totalprice) FROM o TABLESAMPLE (40 PERCENT) "
      "GROUP BY o_custkey",
      catalog_, 302);
}

}  // namespace
}  // namespace gus
