// segment_scan — SUM(l_extendedprice) over Bernoulli(10%) lineitem with an
// l_orderkey range predicate, through EstimatePlanParallel over a
// SegmentCatalog whose cache budget is far below the decoded data.
//
// Why: the one workload whose data is larger than the program's cache. It
// runs segment fault/decode, zone-map pruning and LRU eviction, and has no
// join, so prepare is near zero: the contrast that exposes a plan change
// that helps in-memory joins but hurts segment-backed scans (the setting
// of provenance-based data skipping, Niu et al., arXiv:2104.12815).

#include <filesystem>
#include <memory>
#include <string>

#include "est/streaming.h"
#include "harness.h"
#include "plan/columnar_executor.h"
#include "plan/soa_transform.h"
#include "store/segment_cache.h"
#include "store/segment_catalog.h"
#include "util/random.h"

namespace perfbench {

namespace {

constexpr double kSelectivities[] = {0.01, 0.10, 0.50};
constexpr int64_t kCacheBytes = 32ll << 20;

class SegmentScan final : public Workload {
 public:
  explicit SegmentScan(const RunOptions& options)
      : options_(options),
        orders_(options.smoke ? 8000 : 1000000),
        segment_rows_(options.smoke ? 1024 : 16384) {}

  gus::Status Setup(SetupTimes* times) override {
    catalog_ = GenerateCatalog(orders_, options_.seed, times);
    const std::string dir = options_.work_dir + "/segments";
    std::filesystem::remove_all(dir);
    const int64_t start = NowNs();
    GUS_RETURN_NOT_OK(gus::WriteCatalogSegments(catalog_, dir, segment_rows_));
    times->write_s += MsSince(start) / 1e3;
    gus::SegmentCacheOptions cache;
    cache.max_bytes = kCacheBytes;
    GUS_ASSIGN_OR_RETURN(stored_, gus::SegmentCatalog::Open(dir, cache));
    memory_ = std::make_unique<gus::ColumnarCatalog>(&catalog_);
    // The predicate leaves the GUS untouched: one analysis serves every
    // range.
    GUS_ASSIGN_OR_RETURN(gus::SoaResult soa, gus::SoaTransform(Plan(0, 0.0)));
    gus_ = soa.top;
    exec_.engine = gus::ExecEngine::kMorselParallel;
    exec_.num_threads = kThreads;
    exec_.morsel_rows = segment_rows_;
    // Warm-up: two queries per selectivity.
    for (int64_t i = 0; i < 6; ++i) {
      GUS_RETURN_NOT_OK(
          Estimate(stored_.get(), DeriveSeed(options_.seed, 2 + i), i, exec_)
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
      return Estimate(stored_.get(), QuerySeed(options_.seed, client, index),
                      index, exec);
    }();
    GUS_RETURN_NOT_OK(report.status());
    if (layers != nullptr) {
      RecordExecStats(stats, layers);
      layers->Add("est.sample_rows",
                  static_cast<double>(report->sample_rows));
      layers->Add("store.segments_faulted",
                  static_cast<double>(stats.segments_faulted));
      layers->Add("store.bytes_read",
                  static_cast<double>(stats.store_bytes_read));
      segments_skipped_ += stats.segments_skipped;
      segments_total_ += stats.segments_total;
    }
    return AnswerFromReport(*report);
  }

  gus::Result<Answer> Reference(int client, int64_t index) override {
    // The same units over the in-memory columnar twin, as E8 checks.
    GUS_ASSIGN_OR_RETURN(
        gus::SboxReport report,
        Estimate(memory_.get(), QuerySeed(options_.seed, client, index), index,
                 exec_));
    return AnswerFromReport(report);
  }

  /// Two queries of each selectivity.
  int64_t checked_per_client() const override { return 6; }

  gus::Status Probe(int client, int64_t index, Tracer* tracer,
                    LayerRecorder* layers) override {
    (void)client;
    (void)layers;
    GUS_ASSIGN_OR_RETURN(const gus::StoredRelation* lineitem,
                         stored_->Stored("l"));
    // A fresh cache, so the fault decodes from the file.
    gus::SegmentCacheOptions options;
    options.max_bytes = kCacheBytes;
    gus::SegmentCache cold(options);
    const int64_t segment = index % lineitem->num_segments();
    Tracer::Scope span(tracer, "store.fault", index);
    return cold.Fault(*lineitem, segment).status();
  }

  void BeginTrace() override {
    before_ = stored_->segment_cache()->counters();
    segments_skipped_ = 0;
    segments_total_ = 0;
  }

  void FinishLayers(int64_t traced_queries, LayerRecorder* layers) override {
    (void)traced_queries;
    if (segments_total_ > 0) {
      layers->Set("store.skip_ratio",
                  static_cast<double>(segments_skipped_) /
                      static_cast<double>(segments_total_));
    }
    const gus::SegmentCacheCounters after =
        stored_->segment_cache()->counters();
    const int64_t hits = after.hits - before_.hits;
    const int64_t faults = after.faults - before_.faults;
    if (hits + faults > 0) {
      layers->Set("store.cache_hit_ratio", static_cast<double>(hits) /
                                               static_cast<double>(hits + faults));
    }
    layers->Set("store.evictions",
                static_cast<double>(after.evictions - before_.evictions));
  }

 private:
  /// Query `index`: the selectivity cycles 1%, 10%, 50%; the range start
  /// is drawn from the query seed.
  gus::PlanPtr Plan(uint64_t seed, double selectivity) const {
    const auto width = static_cast<int64_t>(selectivity *
                                            static_cast<double>(orders_));
    gus::Rng rng(seed);
    const auto lo = static_cast<int64_t>(
        rng.UniformInt(static_cast<uint64_t>(orders_ - width + 1)));
    return gus::PlanNode::SelectNode(
        gus::And(gus::Ge(gus::Col("l_orderkey"), gus::Lit(lo)),
                 gus::Lt(gus::Col("l_orderkey"), gus::Lit(lo + width))),
        gus::PlanNode::Sample(gus::SamplingSpec::Bernoulli(0.1),
                              gus::PlanNode::Scan("l")));
  }

  gus::Result<gus::SboxReport> Estimate(gus::ColumnarCatalog* catalog,
                                        uint64_t seed, int64_t index,
                                        const gus::ExecOptions& exec) const {
    gus::Rng rng(seed);
    return gus::EstimatePlanParallel(
        Plan(gus::Mix64(seed), kSelectivities[index % 3]), catalog, &rng,
        gus::Col("l_extendedprice"), gus_, gus::SboxOptions{},
        gus::ExecMode::kSampled, exec);
  }

  const RunOptions options_;
  const int64_t orders_;
  const int64_t segment_rows_;
  gus::Catalog catalog_;
  std::unique_ptr<gus::SegmentCatalog> stored_;
  std::unique_ptr<gus::ColumnarCatalog> memory_;
  gus::GusParams gus_;
  gus::ExecOptions exec_;
  // Traced-phase tallies (one client, so no synchronisation).
  gus::SegmentCacheCounters before_;
  int64_t segments_skipped_ = 0;
  int64_t segments_total_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeSegmentScan(const RunOptions& options) {
  return std::make_unique<SegmentScan>(options);
}

}  // namespace perfbench
