// q1_join — the paper's Query 1 (lineitem Bernoulli ⋈ orders WOR, Section-7
// subsample on) in memory, through EstimatePlanParallel.
//
// Why: the headline E3c query. Its serial prepare (orders WOR keep-set,
// join build) dominates the latency, so a parallel-prepare change should
// move this workload; sqlish, dist, serve and store do no work here.

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "algebra/gus_params.h"
#include "data/workload.h"
#include "est/sbox.h"
#include "est/streaming.h"
#include "harness.h"
#include "kernels/join_hash_table.h"
#include "kernels/key_hash.h"
#include "plan/columnar_executor.h"
#include "plan/parallel_executor.h"
#include "plan/soa_transform.h"
#include "util/random.h"

namespace perfbench {

namespace {

/// A morsel sink collecting the query's SampleView (the SBox input), so the
/// estimator can be timed on exactly the sample the query drew.
class ViewSink final : public gus::MergeableBatchSink {
 public:
  explicit ViewSink(gus::SampleViewBuilder builder)
      : builder_(std::move(builder)) {}

  gus::Status Consume(const gus::ColumnBatch& batch) override {
    return builder_.Consume(batch);
  }
  gus::Status MergeFrom(gus::BatchSink* other) override {
    return builder_.Merge(std::move(static_cast<ViewSink*>(other)->builder_));
  }
  gus::SampleView TakeView() { return builder_.TakeView(); }

 private:
  gus::SampleViewBuilder builder_;
};

class Q1Join final : public Workload {
 public:
  explicit Q1Join(const RunOptions& options)
      : options_(options), orders_(options.smoke ? 4000 : 256000) {}

  gus::Status Setup(SetupTimes* times) override {
    catalog_ = GenerateCatalog(orders_, options_.seed, times);
    columnar_ = std::make_unique<gus::ColumnarCatalog>(&catalog_);
    // Ingest: the columnar form of both scanned relations.
    GUS_RETURN_NOT_OK(columnar_->Get("l").status());
    GUS_RETURN_NOT_OK(columnar_->Get("o").status());
    gus::Query1Params params;
    params.lineitem_p = 0.5;
    params.orders_n = orders_ / 2;
    params.orders_population = orders_;
    query_ = gus::MakeQuery1(params);
    orders_side_ = gus::PlanNode::Sample(
        gus::SamplingSpec::WithoutReplacement(params.orders_n,
                                              params.orders_population),
        gus::PlanNode::Scan("o"));
    GUS_ASSIGN_OR_RETURN(gus::SoaResult soa, gus::SoaTransform(query_.plan));
    gus_ = soa.top;
    sbox_.subsample = gus::SubsampleConfig{};
    exec_.engine = gus::ExecEngine::kMorselParallel;
    exec_.num_threads = kThreads;
    exec_.morsel_rows = 32768;
    // Warm-up: pool threads, first touch of the columnar pages, and the
    // allocator's per-thread arenas (the first ~8 queries run ~1.7x slower
    // than the steady state on a 4-thread host).
    for (int64_t i = 0; i < 10; ++i) {
      GUS_RETURN_NOT_OK(Estimate(DeriveSeed(options_.seed, 2 + i), exec_)
                            .status());
    }
    return gus::Status::OK();
  }

  gus::Result<Answer> Run(int client, int64_t index, Tracer* tracer,
                          LayerRecorder* layers) override {
    gus::ExecOptions exec = exec_;
    gus::ExecStats stats;
    if (layers != nullptr) exec.stats = &stats;
    gus::Result<gus::SboxReport> report = [&] {
      Tracer::Scope span(tracer, "plan.estimate_parallel", index);
      return Estimate(QuerySeed(options_.seed, client, index), exec);
    }();
    GUS_RETURN_NOT_OK(report.status());
    if (layers != nullptr) {
      RecordExecStats(stats, layers);
      layers->Add("est.sample_rows",
                  static_cast<double>(report->sample_rows));
    }
    return AnswerFromReport(*report);
  }

  gus::Result<Answer> Reference(int client, int64_t index) override {
    gus::ExecOptions exec = exec_;
    exec.num_threads = 1;
    GUS_ASSIGN_OR_RETURN(
        gus::SboxReport report,
        Estimate(QuerySeed(options_.seed, client, index), exec));
    return AnswerFromReport(report);
  }

  int64_t checked_per_client() const override { return 2; }

  gus::Status Probe(int client, int64_t index, Tracer* tracer,
                    LayerRecorder* layers) override {
    (void)layers;
    const uint64_t seed = QuerySeed(options_.seed, client, index);
    // The serial non-pivot subtree: Sample(WOR, Scan o).
    gus::ColumnarRelation orders;
    {
      gus::Rng rng(seed);
      Tracer::Scope span(tracer, "plan.non_pivot_exec", index);
      GUS_ASSIGN_OR_RETURN(orders, gus::ExecutePlanColumnar(
                                       orders_side_, columnar_.get(), &rng));
    }
    // The shared join build over the orders-side key hashes.
    GUS_ASSIGN_OR_RETURN(const int key, orders.schema().IndexOf("o_orderkey"));
    const std::vector<uint64_t> hashes = gus::ColumnKeyHashes(
        orders.data().column(key), orders.num_rows());
    {
      gus::JoinHashTable table;
      Tracer::Scope span(tracer, "kernels.join_build", index);
      GUS_RETURN_NOT_OK(table.Build(hashes.data(), orders.num_rows(),
                                    nullptr, kThreads));
    }
    // The SBox on the query's own sample.
    gus::Rng rng(seed);
    std::unique_ptr<gus::MergeableBatchSink> sink;
    GUS_RETURN_NOT_OK(gus::ParallelExecutePlanToSink(
        query_.plan, columnar_.get(), &rng, gus::ExecMode::kSampled, exec_,
        [&](const gus::BatchLayout& layout)
            -> gus::Result<std::unique_ptr<gus::MergeableBatchSink>> {
          GUS_ASSIGN_OR_RETURN(
              gus::SampleViewBuilder builder,
              gus::SampleViewBuilder::Make(layout, query_.aggregate,
                                           gus_.schema()));
          return std::unique_ptr<gus::MergeableBatchSink>(
              std::make_unique<ViewSink>(std::move(builder)));
        },
        &sink));
    const gus::SampleView view = static_cast<ViewSink*>(sink.get())->TakeView();
    Tracer::Scope span(tracer, "est.sbox", index);
    return gus::SboxEstimate(gus_, view, sbox_).status();
  }

 private:
  gus::Result<gus::SboxReport> Estimate(uint64_t seed,
                                        const gus::ExecOptions& exec) {
    gus::Rng rng(seed);
    return gus::EstimatePlanParallel(query_.plan, columnar_.get(), &rng,
                                     query_.aggregate, gus_, sbox_,
                                     gus::ExecMode::kSampled, exec);
  }

  const RunOptions options_;
  const int64_t orders_;
  gus::Catalog catalog_;
  std::unique_ptr<gus::ColumnarCatalog> columnar_;
  gus::Workload query_;
  gus::PlanPtr orders_side_;
  gus::GusParams gus_;
  gus::SboxOptions sbox_;
  gus::ExecOptions exec_;
};

}  // namespace

std::unique_ptr<Workload> MakeQ1Join(const RunOptions& options) {
  return std::make_unique<Q1Join>(options);
}

}  // namespace perfbench
