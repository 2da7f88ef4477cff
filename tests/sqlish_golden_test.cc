// Golden estimates for the SQL front door: every ApproxResult value, lo
// and hi of four small texts pinned as hex-float literals, on the row and
// the morsel engine. The y_S machinery behind them (est/ys.h) may change
// how it partitions and folds, but never a bit of these numbers.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "data/tpch_gen.h"
#include "sqlish/planner.h"
#include "test_util.h"

namespace gus {
namespace sqlish {
namespace {

struct GoldenValue {
  const char* label;
  const char* group;
  double value;
  double lo;
  double hi;
};

struct GoldenCase {
  const char* sql;
  ExecEngine engine;
  int64_t sample_rows;
  std::vector<GoldenValue> values;
};

constexpr const char* kThreeWayJoinSql =
    "SELECT SUM(l_extendedprice) FROM l TABLESAMPLE (30 PERCENT), o "
    "TABLESAMPLE (60 PERCENT), c WHERE l_orderkey = o_orderkey AND "
    "o_custkey = c_custkey AND c_acctbal > 0.0";

const GoldenCase kThreeWayJoinRow = {
    kThreeWayJoinSql, ExecEngine::kRowAtATime, 160,
    {
        {"SUM(l_extendedprice)", "", 0x1.61790e4d99f67p+25,
         0x1.1e3fc69ca747bp+25, 0x1.a4b255fe8ca53p+25},
    }};

const GoldenCase kThreeWayJoinMorsel = {
    kThreeWayJoinSql, ExecEngine::kMorselParallel, 163,
    {
        {"SUM(l_extendedprice)", "", 0x1.52a3833cc0c78p+25,
         0x1.10e31f69af01dp+25, 0x1.9463e70fd28d3p+25},
    }};

constexpr const char* kGroupedJoinSql =
    "SELECT SUM(l_extendedprice) FROM l TABLESAMPLE (40 PERCENT), o "
    "TABLESAMPLE (70 PERCENT) WHERE l_orderkey = o_orderkey GROUP "
    "BY o_custkey";

const GoldenCase kGroupedJoinRow = {
    kGroupedJoinSql, ExecEngine::kRowAtATime, 294,
    {
        {"SUM(l_extendedprice)", "o_custkey=0", 0x1.7f51916bd30a7p+22,
         0x1.d42e56b67cc61p+21, 0x1.0a45fbbe33d8fp+23},
        {"SUM(l_extendedprice)", "o_custkey=1", 0x1.4f328b50dc3bfp+22,
         0x1.6e6ca2dd596c2p+21, 0x1.e72ec5330bc1dp+22},
        {"SUM(l_extendedprice)", "o_custkey=2", 0x1.6b3d6b7c1d6acp+22,
         0x1.bc67cbf35f73fp+21, 0x1.f846f0fe8b1b8p+22},
        {"SUM(l_extendedprice)", "o_custkey=3", 0x1.8c79fd4b1bed4p+22,
         0x1.e8bc4da0420f7p+21, 0x1.124ae9e30b696p+23},
        {"SUM(l_extendedprice)", "o_custkey=4", 0x1.6f10bd9ac1c5fp+22,
         0x1.c272d987690c4p+21, 0x1.fce80e71cf05cp+22},
        {"SUM(l_extendedprice)", "o_custkey=5", 0x1.c0fa85d5e9674p+22,
         0x1.1453de732d064p+22, 0x1.36d0969c52e42p+23},
        {"SUM(l_extendedprice)", "o_custkey=6", 0x1.3f7cd19217c97p+23,
         0x1.adf2793b01aaap+22, 0x1.a8006686aebd9p+23},
        {"SUM(l_extendedprice)", "o_custkey=7", 0x1.44961d380b45ap+22,
         0x1.693b59e71882ap+21, 0x1.d48e8d7c8a49fp+22},
    }};

const GoldenCase kGroupedJoinMorsel = {
    kGroupedJoinSql, ExecEngine::kMorselParallel, 317,
    {
        {"SUM(l_extendedprice)", "o_custkey=0", 0x1.f8f67d18b7b39p+22,
         0x1.4369911d44f7ep+22, 0x1.5741b48a1537ap+23},
        {"SUM(l_extendedprice)", "o_custkey=1", 0x1.931aa56bfd1cbp+21,
         0x1.6cf1763fc69f9p+20, 0x1.37de47dc0b74dp+22},
        {"SUM(l_extendedprice)", "o_custkey=2", 0x1.8ea59f2722fp+22,
         0x1.f20dc36752f69p+21, 0x1.12222e4d4e326p+23},
        {"SUM(l_extendedprice)", "o_custkey=3", 0x1.dbe0bf0f4afabp+22,
         0x1.34e583ba519d2p+22, 0x1.416dfd32222c2p+23},
        {"SUM(l_extendedprice)", "o_custkey=4", 0x1.034c406265582p+23,
         0x1.51c9728894866p+22, 0x1.5db3c780806d1p+23},
        {"SUM(l_extendedprice)", "o_custkey=5", 0x1.08945b64e4c9p+23,
         0x1.5a1091eee8dedp+22, 0x1.64206dd25522ap+23},
        {"SUM(l_extendedprice)", "o_custkey=6", 0x1.20546ecf41912p+23,
         0x1.72822ee38cf4p+22, 0x1.8767c62cbca84p+23},
        {"SUM(l_extendedprice)", "o_custkey=7", 0x1.d187929e034aep+22,
         0x1.2134867343b58p+22, 0x1.40ed4f6461702p+23},
    }};

constexpr const char* kGroupedScanSql =
    "SELECT SUM(o_totalprice) FROM o TABLESAMPLE (30 PERCENT) GROUP "
    "BY o_custkey";

const GoldenCase kGroupedScanRow = {
    kGroupedScanSql, ExecEngine::kRowAtATime, 82,
    {
        {"SUM(o_totalprice)", "o_custkey=0", 0x1.707b5772e001cp+23,
         0x1.71fb69946c72dp+22, 0x1.13fc7d0dc4e51p+24},
        {"SUM(o_totalprice)", "o_custkey=1", 0x1.0f3b9d5a68d24p+23,
         0x1.e22409c3387dap+21, 0x1.a5ee384403852p+23},
        {"SUM(o_totalprice)", "o_custkey=2", 0x1.ce5486b27786bp+22,
         0x1.3cec49a4779fcp+21, 0x1.7f197449599ecp+23},
        {"SUM(o_totalprice)", "o_custkey=3", 0x1.fb64a49ee4b52p+22,
         0x1.b3ddbbf79005p+21, 0x1.8e6d35a100b3ep+23},
        {"SUM(o_totalprice)", "o_custkey=4", 0x1.014225f1a5eadp+23,
         0x1.bb12762fccaf6p+21, 0x1.93bfae5758a9cp+23},
        {"SUM(o_totalprice)", "o_custkey=5", 0x1.e239d3ddbc3dap+22,
         0x1.532a3b7f77b38p+21, 0x1.8d6f44fdde50cp+23},
        {"SUM(o_totalprice)", "o_custkey=6", 0x1.ff71eeef85c2ep+22,
         0x1.883b203b427b8p+21, 0x1.9d6326e0b524p+23},
        {"SUM(o_totalprice)", "o_custkey=7", 0x1.3790ac96f1e5ep+23,
         0x1.1fa1bc39e3023p+22, 0x1.df507b10f24aap+23},
    }};

const GoldenCase kGroupedScanMorsel = {
    kGroupedScanSql, ExecEngine::kMorselParallel, 96,
    {
        {"SUM(o_totalprice)", "o_custkey=0", 0x1.2038d404b608dp+23,
         0x1.f69072d88080ap+21, 0x1.c2cd8b534bf18p+23},
        {"SUM(o_totalprice)", "o_custkey=1", 0x1.0a2f549e65623p+23,
         0x1.c1d38a3dd9fd6p+21, 0x1.a3e9c6ad5445p+23},
        {"SUM(o_totalprice)", "o_custkey=2", 0x1.a9bb44468315cp+22,
         0x1.5100e96528ad6p+21, 0x1.557b09ed38ea6p+23},
        {"SUM(o_totalprice)", "o_custkey=3", 0x1.d1286462908e1p+22,
         0x1.52fa0bc1beeb4p+21, 0x1.7c69e17220d34p+23},
        {"SUM(o_totalprice)", "o_custkey=4", 0x1.82ada37357b43p+23,
         0x1.916cd75c412b8p+22, 0x1.1e526d9c47695p+24},
        {"SUM(o_totalprice)", "o_custkey=5", 0x1.77ce3c9a6e603p+23,
         0x1.6a082f5755ae2p+22, 0x1.1d4c30c498f4ap+24},
        {"SUM(o_totalprice)", "o_custkey=6", 0x1.ef270620c4beep+23,
         0x1.0c91c069226dbp+23, 0x1.68de25ec3388p+24},
        {"SUM(o_totalprice)", "o_custkey=7", 0x1.5bfff9bcc0fcbp+23,
         0x1.61e83a66e3cc7p+22, 0x1.0385eb2308099p+24},
    }};

constexpr const char* kSumCountAvgSql =
    "SELECT SUM(l_extendedprice), COUNT(*), AVG(l_extendedprice) "
    "FROM l TABLESAMPLE (20 PERCENT), o TABLESAMPLE (50 PERCENT) "
    "WHERE l_orderkey = o_orderkey AND l_quantity < 20";

const GoldenCase kSumCountAvgRow = {
    kSumCountAvgSql, ExecEngine::kRowAtATime, 39,
    {
        {"SUM(l_extendedprice)", "", 0x1.22eb0ab96593dp+24,
         0x1.714b06dd9e55ep+23, 0x1.8d309203fbfcbp+24},
        {"COUNT(*)", "", 0x1.86p+8,
         0x1.0d0555832210fp+8, 0x1.fefaaa7cddef1p+8},
        {"AVG(l_extendedprice)", "", 0x1.7dec5cd922e43p+15,
         0x1.38a295eed2e5ep+15, 0x1.c33623c372e28p+15},
    }};

const GoldenCase kSumCountAvgMorsel = {
    kSumCountAvgSql, ExecEngine::kMorselParallel, 37,
    {
        {"SUM(l_extendedprice)", "", 0x1.34efc6cd8c4dbp+24,
         0x1.862afab1f97ecp+23, 0x1.a6ca10421bdcp+24},
        {"COUNT(*)", "", 0x1.72p+8,
         0x1.f1684e20a71c8p+7, 0x1.eb4bd8efac71cp+8},
        {"AVG(l_extendedprice)", "", 0x1.ab8061f9d6e81p+15,
         0x1.603eb85e654cep+15, 0x1.f6c20b9548834p+15},
    }};


Catalog GoldenCatalog() {
  TpchConfig config;
  config.num_orders = 300;
  config.num_customers = 8;
  config.num_parts = 20;
  return GenerateTpch(config).MakeCatalog();
}

/// Runs `golden` at seed 42 (morsel_rows 64) with `threads` workers and
/// compares every number bitwise.
void ExpectGolden(const GoldenCase& golden, int threads) {
  static const Catalog catalog = GoldenCatalog();
  ExecOptions exec;
  exec.engine = golden.engine;
  exec.num_threads = threads;
  exec.morsel_rows = 64;
  ASSERT_OK_AND_ASSIGN(
      ApproxResult result,
      RunApproxQuery(golden.sql, catalog, 42, SboxOptions{}, exec));
  EXPECT_EQ(golden.sample_rows, result.sample_rows);
  ASSERT_EQ(golden.values.size(), result.values.size());
  for (size_t i = 0; i < golden.values.size(); ++i) {
    const GoldenValue& want = golden.values[i];
    const ApproxValue& got = result.values[i];
    SCOPED_TRACE(std::string(want.label) + " " + want.group);
    EXPECT_EQ(want.label, got.label);
    EXPECT_EQ(want.group, got.group);
    EXPECT_EQ(want.value, got.value);
    EXPECT_EQ(want.lo, got.lo);
    EXPECT_EQ(want.hi, got.hi);
  }
}

TEST(SqlishGoldenTest, ThreeWayJoin) {
  ExpectGolden(kThreeWayJoinRow, 1);
  for (int threads : {1, 3}) ExpectGolden(kThreeWayJoinMorsel, threads);
}

TEST(SqlishGoldenTest, GroupedJoin) {
  ExpectGolden(kGroupedJoinRow, 1);
  for (int threads : {1, 3}) ExpectGolden(kGroupedJoinMorsel, threads);
}

TEST(SqlishGoldenTest, GroupedScan) {
  ExpectGolden(kGroupedScanRow, 1);
  for (int threads : {1, 3}) ExpectGolden(kGroupedScanMorsel, threads);
}

TEST(SqlishGoldenTest, SumCountAvg) {
  ExpectGolden(kSumCountAvgRow, 1);
  for (int threads : {1, 3}) ExpectGolden(kSumCountAvgMorsel, threads);
}

}  // namespace
}  // namespace sqlish
}  // namespace gus
