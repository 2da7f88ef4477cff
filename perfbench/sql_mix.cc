// sql_mix — short queries through the SQL front door,
// sqlish::RunApproxQuery on the morsel engine, cycling over five texts.
//
// Why: the user-facing entry point. Fixed per-call costs dominate here —
// the columnar conversion every call repeats, parse/plan, the SOA
// transform, grouped estimation and a 3-way join — the opposite of
// q1_join's one long scan.

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "harness.h"
#include "plan/columnar_executor.h"
#include "plan/soa_transform.h"
#include "sqlish/parser.h"
#include "sqlish/planner.h"

namespace perfbench {

namespace {

const char* const kTexts[] = {
    "SELECT SUM(l_discount*(1.0-l_tax)) FROM l TABLESAMPLE (10 PERCENT), "
    "o TABLESAMPLE (20000 ROWS) WHERE l_orderkey = o_orderkey AND "
    "l_extendedprice > 100.0",
    "SELECT SUM(l_extendedprice), COUNT(*), AVG(l_extendedprice) FROM l "
    "TABLESAMPLE (5 PERCENT) WHERE l_quantity < 20",
    "SELECT SUM(o_totalprice) FROM o TABLESAMPLE (10 PERCENT) GROUP BY "
    "o_custkey",
    "SELECT SUM(l_extendedprice) FROM l TABLESAMPLE (10 PERCENT), o, c WHERE "
    "l_orderkey = o_orderkey AND o_custkey = c_custkey AND c_acctbal > 0.0",
    "SELECT QUANTILE(SUM(l_extendedprice*l_discount), 0.95) FROM l "
    "TABLESAMPLE (2 PERCENT), p TABLESAMPLE (50 PERCENT) WHERE l_partkey = "
    "p_partkey",
};
constexpr int64_t kNumTexts = sizeof(kTexts) / sizeof(kTexts[0]);

void CollectScans(const gus::PlanPtr& plan, std::set<std::string>* out) {
  if (plan->op() == gus::PlanOp::kScan) {
    out->insert(plan->relation());
    return;
  }
  for (int i = 0; i < plan->num_children(); ++i) {
    CollectScans(i == 0 ? plan->left() : plan->right(), out);
  }
}

class SqlMix final : public Workload {
 public:
  explicit SqlMix(const RunOptions& options)
      : options_(options), orders_(options.smoke ? 25000 : 200000) {}

  gus::Status Setup(SetupTimes* times) override {
    catalog_ = GenerateCatalog(orders_, options_.seed, times);
    exec_.engine = gus::ExecEngine::kMorselParallel;
    exec_.num_threads = kThreads;
    exec_.morsel_rows = 8192;
    // Warm-up: two passes over every text.
    for (int64_t i = 0; i < 2 * kNumTexts; ++i) {
      GUS_RETURN_NOT_OK(
          Query(i, DeriveSeed(options_.seed, 2 + i), exec_).status());
    }
    return gus::Status::OK();
  }

  gus::Result<Answer> Run(int client, int64_t index, Tracer* tracer,
                          LayerRecorder* layers) override {
    gus::ExecOptions exec = exec_;
    gus::ExecStats stats;
    if (layers != nullptr) exec.stats = &stats;
    gus::Result<Answer> answer = [&] {
      Tracer::Scope span(tracer, "sqlish.run_approx_query", index);
      return Query(index, QuerySeed(options_.seed, client, index), exec);
    }();
    if (answer.ok() && layers != nullptr) {
      RecordExecStats(stats, layers);
      layers->Add("est.sample_rows", static_cast<double>(answer->sample_rows));
    }
    return answer;
  }

  gus::Result<Answer> Reference(int client, int64_t index) override {
    gus::ExecOptions exec = exec_;
    exec.num_threads = 1;
    return Query(index, QuerySeed(options_.seed, client, index), exec);
  }

  /// One of each text.
  int64_t checked_per_client() const override { return kNumTexts; }

  gus::Status Probe(int client, int64_t index, Tracer* tracer,
                    LayerRecorder* layers) override {
    (void)client;
    (void)layers;
    const std::string sql = kTexts[index % kNumTexts];
    gus::sqlish::PlannedQuery planned;
    {
      Tracer::Scope span(tracer, "sqlish.parse_plan", index);
      GUS_ASSIGN_OR_RETURN(gus::sqlish::ParsedQuery parsed,
                           gus::sqlish::ParseQuery(sql));
      GUS_ASSIGN_OR_RETURN(planned,
                           gus::sqlish::PlanQuery(parsed, catalog_));
    }
    {
      Tracer::Scope span(tracer, "algebra.soa_transform", index);
      GUS_RETURN_NOT_OK(gus::SoaTransform(planned.plan).status());
    }
    // The conversion every RunApproxQuery call repeats on a fresh catalog.
    std::set<std::string> scans;
    CollectScans(planned.plan, &scans);
    gus::ColumnarCatalog fresh(&catalog_);
    Tracer::Scope span(tracer, "sqlish.catalog_convert", index);
    for (const std::string& name : scans) {
      GUS_RETURN_NOT_OK(fresh.Get(name).status());
    }
    return gus::Status::OK();
  }

 private:
  gus::Result<Answer> Query(int64_t index, uint64_t seed,
                            const gus::ExecOptions& exec) const {
    GUS_ASSIGN_OR_RETURN(
        gus::sqlish::ApproxResult result,
        gus::sqlish::RunApproxQuery(kTexts[index % kNumTexts], catalog_, seed,
                                    gus::SboxOptions{}, exec));
    Answer answer;
    answer.sample_rows = result.sample_rows;
    for (const gus::sqlish::ApproxValue& v : result.values) {
      answer.values.push_back(AnswerValue{v.label + " " + v.group, v.value,
                                          v.lo, v.hi,
                                          v.label.rfind("QUANTILE", 0) == 0});
    }
    return answer;
  }

  const RunOptions options_;
  const int64_t orders_;
  gus::Catalog catalog_;
  gus::ExecOptions exec_;
};

}  // namespace

std::unique_ptr<Workload> MakeSqlMix(const RunOptions& options) {
  return std::make_unique<SqlMix>(options);
}

}  // namespace perfbench
