// Unit tests for src/util: hashing, RNG, statistics, subset masks, Zipf,
// table printing, Status/Result.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <set>
#include <unordered_set>
#include <vector>

#include "util/bits.h"
#include "util/hash.h"
#include "util/random.h"
#include "util/stats.h"
#include "util/status.h"
#include "util/table.h"
#include "util/thread_pool.h"
#include "util/zipf.h"

namespace gus {
namespace {

// ---------------------------------------------------------------- Status

TEST(StatusTest, OkByDefault) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ("OK", st.ToString());
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = Status::InvalidArgument("bad p");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(StatusCode::kInvalidArgument, st.code());
  EXPECT_EQ("InvalidArgument: bad p", st.ToString());
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(42, r.ValueOrDie());
}

TEST(ResultTest, HoldsStatus) {
  Result<int> r(Status::KeyError("missing"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(StatusCode::kKeyError, r.status().code());
}

Result<int> HalveEven(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Result<int> QuarterViaMacro(int x) {
  GUS_ASSIGN_OR_RETURN(int half, HalveEven(x));
  GUS_ASSIGN_OR_RETURN(int quarter, HalveEven(half));
  return quarter;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(3, QuarterViaMacro(12).ValueOrDie());
  EXPECT_FALSE(QuarterViaMacro(6).ok());   // 3 is odd at the second step
  EXPECT_FALSE(QuarterViaMacro(7).ok());
}

// ---------------------------------------------------------------- Hashing

TEST(HashTest, Mix64IsDeterministicAndSpreads) {
  EXPECT_EQ(Mix64(1), Mix64(1));
  std::unordered_set<uint64_t> seen;
  for (uint64_t i = 0; i < 10000; ++i) seen.insert(Mix64(i));
  EXPECT_EQ(10000u, seen.size());
}

TEST(HashTest, HashToUnitInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = HashToUnit(rng.Next());
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(HashTest, LineageUnitValueIsConsistent) {
  // The Section 7 requirement: the same (seed, id) always maps to the same
  // unit value, so a base tuple gets one decision everywhere it appears.
  for (uint64_t id = 0; id < 100; ++id) {
    EXPECT_EQ(LineageUnitValue(99, id), LineageUnitValue(99, id));
  }
  // Different seeds give (essentially always) different values.
  int diffs = 0;
  for (uint64_t id = 0; id < 100; ++id) {
    if (LineageUnitValue(1, id) != LineageUnitValue(2, id)) ++diffs;
  }
  EXPECT_EQ(100, diffs);
}

TEST(HashTest, LineageUnitValueApproxUniform) {
  int in_lower_half = 0;
  const int n = 20000;
  for (int id = 0; id < n; ++id) {
    if (LineageUnitValue(42, id) < 0.5) ++in_lower_half;
  }
  EXPECT_NEAR(0.5, static_cast<double>(in_lower_half) / n, 0.02);
}

// ---------------------------------------------------------------- Rng

TEST(RngTest, DeterministicGivenSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_EQ(0, same);
}

TEST(RngTest, UniformIntBounds) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.UniformInt(uint64_t{17}), 17u);
  }
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.UniformInt(int64_t{-3}, int64_t{3});
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
  }
}

TEST(RngTest, UniformIntCoversAllValues) {
  Rng rng(6);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.UniformInt(uint64_t{5}));
  EXPECT_EQ(5u, seen.size());
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(8);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (rng.Bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(0.3, static_cast<double>(hits) / n, 0.01);
}

TEST(RngTest, NormalMoments) {
  Rng rng(9);
  MeanVar mv;
  for (int i = 0; i < 200000; ++i) mv.Add(rng.Normal());
  EXPECT_NEAR(0.0, mv.mean(), 0.01);
  EXPECT_NEAR(1.0, mv.variance_sample(), 0.02);
}

TEST(RngTest, ForkDecorrelates) {
  Rng rng(11);
  Rng f1 = rng.Fork(1);
  Rng f2 = rng.Fork(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (f1.Next() == f2.Next()) ++same;
  }
  EXPECT_EQ(0, same);
}

// ---------------------------------------------------------------- Stats

TEST(StatsTest, NormalCdfKnownValues) {
  EXPECT_NEAR(0.5, NormalCdf(0.0), 1e-12);
  EXPECT_NEAR(0.9750021048517795, NormalCdf(1.96), 1e-9);
  EXPECT_NEAR(0.0249978951482205, NormalCdf(-1.96), 1e-9);
}

TEST(StatsTest, NormalQuantileInvertsCdf) {
  for (double p : {0.001, 0.01, 0.05, 0.25, 0.5, 0.8, 0.95, 0.999}) {
    EXPECT_NEAR(p, NormalCdf(NormalQuantile(p)), 1e-9) << "p=" << p;
  }
}

TEST(StatsTest, NormalQuantileKnownValues) {
  EXPECT_NEAR(0.0, NormalQuantile(0.5), 1e-9);
  EXPECT_NEAR(1.959963984540054, NormalQuantile(0.975), 1e-8);
  EXPECT_NEAR(-1.281551565544600, NormalQuantile(0.10), 1e-8);
}

TEST(StatsTest, ChebyshevMatchesPaper) {
  // Paper Section 6.4: 95% Chebyshev interval uses 4.47 sigma.
  EXPECT_NEAR(4.47, ChebyshevMultiplier(0.95), 0.01);
  EXPECT_NEAR(std::sqrt(10.0), ChebyshevMultiplier(0.90), 1e-12);
}

TEST(StatsTest, CantelliMultiplier) {
  EXPECT_NEAR(std::sqrt(19.0), CantelliMultiplier(0.05), 1e-12);
  EXPECT_NEAR(1.0, CantelliMultiplier(0.5), 1e-12);
}

TEST(StatsTest, MeanVarWelford) {
  MeanVar mv;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) mv.Add(x);
  EXPECT_EQ(8, mv.count());
  EXPECT_NEAR(5.0, mv.mean(), 1e-12);
  EXPECT_NEAR(4.0, mv.variance_population(), 1e-12);
  EXPECT_NEAR(32.0 / 7.0, mv.variance_sample(), 1e-12);
}

TEST(StatsTest, MeanVarMergeEqualsSequential) {
  MeanVar all, a, b;
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.Uniform(-5, 5);
    all.Add(x);
    (i % 2 ? a : b).Add(x);
  }
  a.Merge(b);
  EXPECT_EQ(all.count(), a.count());
  EXPECT_NEAR(all.mean(), a.mean(), 1e-10);
  EXPECT_NEAR(all.variance_sample(), a.variance_sample(), 1e-8);
}

TEST(StatsTest, EmpiricalQuantile) {
  std::vector<double> xs = {5.0, 1.0, 3.0, 2.0, 4.0};
  EXPECT_NEAR(1.0, EmpiricalQuantile(xs, 0.0), 1e-12);
  EXPECT_NEAR(3.0, EmpiricalQuantile(xs, 0.5), 1e-12);
  EXPECT_NEAR(5.0, EmpiricalQuantile(xs, 1.0), 1e-12);
  EXPECT_NEAR(1.5, EmpiricalQuantile(xs, 0.125), 1e-12);
}

TEST(StatsTest, CoverageCounter) {
  CoverageCounter cc;
  for (int i = 0; i < 100; ++i) cc.Add(i < 95);
  EXPECT_EQ(100, cc.total());
  EXPECT_NEAR(0.95, cc.fraction(), 1e-12);
  EXPECT_GT(cc.half_width95(), 0.0);
}

// ---------------------------------------------------------------- Bits

TEST(BitsTest, FullMask) {
  EXPECT_EQ(0u, FullMask(0));
  EXPECT_EQ(0b111u, FullMask(3));
  EXPECT_EQ(0xFFFFFu, FullMask(20));
}

TEST(BitsTest, SubsetIteratorVisitsAllSubsets) {
  const SubsetMask super = 0b1011;
  std::set<SubsetMask> seen;
  for (SubsetIterator it(super); !it.done(); it.Next()) {
    EXPECT_EQ(it.mask() & ~super, 0u);
    seen.insert(it.mask());
  }
  EXPECT_EQ(8u, seen.size());
}

TEST(BitsTest, SubsetIteratorOfEmpty) {
  int count = 0;
  for (SubsetIterator it(0); !it.done(); it.Next()) ++count;
  EXPECT_EQ(1, count);  // Only the empty subset.
}

TEST(BitsTest, ParitySign) {
  EXPECT_EQ(1.0, ParitySign(0));
  EXPECT_EQ(-1.0, ParitySign(0b1));
  EXPECT_EQ(1.0, ParitySign(0b11));
  EXPECT_EQ(-1.0, ParitySign(0b111));
}

// ---------------------------------------------------------------- Zipf

TEST(ZipfTest, ThetaZeroIsUniform) {
  ZipfGenerator zipf(10, 0.0);
  Rng rng(4);
  std::vector<int> counts(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[zipf.Sample(&rng) - 1];
  for (int c : counts) {
    EXPECT_NEAR(0.1, static_cast<double>(c) / n, 0.01);
  }
}

TEST(ZipfTest, SkewFavorsLowRanks) {
  ZipfGenerator zipf(100, 1.0);
  Rng rng(4);
  std::vector<int> counts(100, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[zipf.Sample(&rng) - 1];
  EXPECT_GT(counts[0], counts[9] * 5);
  EXPECT_GT(counts[0], counts[99] * 20);
}

TEST(ZipfTest, RatioMatchesTheory) {
  // P(1)/P(2) = 2^theta.
  ZipfGenerator zipf(50, 2.0);
  Rng rng(12);
  int c1 = 0, c2 = 0;
  for (int i = 0; i < 400000; ++i) {
    const uint64_t k = zipf.Sample(&rng);
    if (k == 1) ++c1;
    if (k == 2) ++c2;
  }
  EXPECT_NEAR(4.0, static_cast<double>(c1) / c2, 0.15);
}

// ---------------------------------------------------------------- Table

TEST(TableTest, RendersAlignedColumns) {
  TablePrinter t({"name", "value"});
  t.AddRow({"a", "1"});
  t.AddRow({"long-name", "2.5"});
  const std::string s = t.ToString();
  EXPECT_NE(std::string::npos, s.find("| name      | value |"));
  EXPECT_NE(std::string::npos, s.find("| long-name | 2.5   |"));
}

TEST(TableTest, NumAndSciFormat) {
  EXPECT_EQ("3.14", TablePrinter::Num(3.14159, 3));
  EXPECT_EQ("6.667e-04", TablePrinter::Sci(6.667e-4, 3));
}

// ------------------------------------------------- invariant enforcement

TEST(TableDeathTest, RowArityMismatchAborts) {
  TablePrinter t({"only"});
  EXPECT_DEATH(t.AddRow({"1", "2"}), "CHECK failed");
}

TEST(StatsDeathTest, QuantileBoundsAbort) {
  EXPECT_DEATH(NormalQuantile(0.0), "CHECK failed");
  EXPECT_DEATH(NormalQuantile(1.0), "CHECK failed");
  EXPECT_DEATH(ChebyshevMultiplier(1.0), "CHECK failed");
}

TEST(StatsDeathTest, EmptyQuantileAborts) {
  EXPECT_DEATH(EmpiricalQuantile({}, 0.5), "CHECK failed");
}

// ---------------------------------------------------------- ThreadPool

TEST(ThreadPoolTest, SingleThreadSpawnsNoWorkers) {
  ThreadPool pool(1);
  std::vector<int64_t> hits(100, 0);
  pool.ParallelFor(100, [&](int64_t i) { hits[static_cast<size_t>(i)]++; });
  for (const int64_t h : hits) EXPECT_EQ(h, 1);
  EXPECT_EQ(pool.spawned_threads(), 0u);
}

TEST(ThreadPoolTest, ReusedAcrossBatchesWithoutRespawn) {
  ThreadPool pool(4);
  const uint64_t spawned_once = pool.spawned_threads();
  EXPECT_EQ(spawned_once, 3u);  // caller participates as worker 0
  std::atomic<int64_t> sum{0};
  for (int batch = 0; batch < 10; ++batch) {
    pool.ParallelFor(1000, [&](int64_t i) {
      sum.fetch_add(i, std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(sum.load(), 10 * (999 * 1000 / 2));
  // The regression this pins: consecutive ParallelFor calls must reuse
  // the same workers, not spawn per batch.
  EXPECT_EQ(pool.spawned_threads(), spawned_once);
}

TEST(ThreadPoolTest, ChunkedCoversEveryIndexOnce) {
  for (const int64_t n : {int64_t{1}, int64_t{7}, int64_t{64},
                          int64_t{1000}}) {
    for (const int64_t chunk : {int64_t{1}, int64_t{3}, int64_t{256}}) {
      ThreadPool pool(4);
      std::vector<std::atomic<int>> hits(static_cast<size_t>(n));
      for (auto& h : hits) h.store(0);
      pool.ParallelForChunked(n, chunk, /*max_workers=*/4,
                              [&](int worker, int64_t b, int64_t e) {
                                EXPECT_GE(worker, 0);
                                EXPECT_LT(worker, 4);
                                for (int64_t i = b; i < e; ++i) {
                                  hits[static_cast<size_t>(i)]++;
                                }
                              });
      for (int64_t i = 0; i < n; ++i) {
        EXPECT_EQ(hits[static_cast<size_t>(i)].load(), 1)
            << "index " << i << " n " << n << " chunk " << chunk;
      }
    }
  }
}

TEST(ThreadPoolTest, NestedParallelForRunsInlineWithoutDeadlock) {
  ThreadPool pool(4);
  std::atomic<int64_t> inner_total{0};
  pool.ParallelFor(8, [&](int64_t) {
    // Re-entering the same pool from a task must run inline (serially on
    // this worker) instead of deadlocking on the batch lock.
    pool.ParallelFor(10, [&](int64_t j) {
      inner_total.fetch_add(j, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(inner_total.load(), 8 * 45);
}

TEST(ThreadPoolTest, EnsureThreadsGrowsButNeverShrinks) {
  ThreadPool pool(2);
  EXPECT_EQ(pool.num_threads(), 2);
  pool.EnsureThreads(4);
  EXPECT_EQ(pool.num_threads(), 4);
  EXPECT_EQ(pool.spawned_threads(), 3u);
  pool.EnsureThreads(2);  // no-op
  EXPECT_EQ(pool.num_threads(), 4);
  EXPECT_EQ(pool.spawned_threads(), 3u);
  std::atomic<int64_t> count{0};
  pool.ParallelFor(100, [&](int64_t) {
    count.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(count.load(), 100);
}

TEST(PoolLeaseTest, TopLevelLeaseUsesSharedPool) {
  PoolLease a(2);
  PoolLease b(2);
  EXPECT_EQ(a.get(), b.get());  // both lease the process-wide pool
  EXPECT_EQ(a.get(), &ThreadPool::Shared());
  std::atomic<int64_t> count{0};
  a->ParallelFor(64, [&](int64_t) {
    count.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(count.load(), 64);
  // A second lease of the already-grown pool spawns nothing new.
  PoolLease c(2);
  EXPECT_EQ(c.spawned_during(), 0u);
}

TEST(PoolLeaseTest, LeaseInsidePoolTaskIsTransient) {
  ThreadPool outer(2);
  std::atomic<bool> in_task_seen{false};
  std::atomic<bool> transient_ok{false};
  outer.ParallelFor(2, [&](int64_t) {
    if (!ThreadPool::InPoolTask()) return;
    in_task_seen.store(true);
    PoolLease nested(2);
    // Nested leases must not target the shared pool (the caller may hold
    // its batch lock) — they get a private transient pool.
    if (nested.get() != &ThreadPool::Shared()) {
      std::atomic<int64_t> count{0};
      nested->ParallelFor(16, [&](int64_t) {
        count.fetch_add(1, std::memory_order_relaxed);
      });
      transient_ok.store(count.load() == 16);
    }
  });
  EXPECT_TRUE(in_task_seen.load());
  EXPECT_TRUE(transient_ok.load());
}

}  // namespace
}  // namespace gus
