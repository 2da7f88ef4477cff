// served_repeat — two in-process WorkerDaemons on Unix sockets behind one
// SessionCoordinator, two closed-loop client threads, a private view cache.
//
// Why: the only workload with concurrent clients, and the only one that
// runs sockets, session demux, shard execution with wire encode/decode,
// the gather fold and the view cache. Request i of each client repeats a
// warm pool seed when i mod 10 < 3, so exactly 30% of requests are cache
// hits and both p50 and p90 fall among the misses.

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "data/workload.h"
#include "dist/coordinator.h"
#include "dist/transport.h"
#include "dist/worker.h"
#include "harness.h"
#include "plan/columnar_executor.h"
#include "plan/soa_transform.h"
#include "serve/daemon.h"
#include "serve/session.h"
#include "serve/socket.h"
#include "serve/view_cache.h"

namespace perfbench {

namespace {

constexpr int kDaemons = 2;
constexpr int kShards = 2;
constexpr int kPoolSeeds = 4;
constexpr int64_t kMorselRows = 4096;

class ServedRepeat final : public Workload {
 public:
  explicit ServedRepeat(const RunOptions& options)
      : options_(options), orders_(options.smoke ? 4000 : 100000) {}

  ~ServedRepeat() override {
    if (coordinator_ != nullptr) coordinator_->Shutdown();
    for (const std::unique_ptr<gus::WorkerDaemon>& daemon : daemons_) {
      daemon->Stop();
    }
  }

  gus::Status Setup(SetupTimes* times) override {
    catalog_ = GenerateCatalog(orders_, options_.seed, times);
    gus::Query1Params params;
    params.lineitem_p = 0.3;
    params.orders_n = orders_ * 2 / 5;
    params.orders_population = orders_;
    const gus::Workload q1 = gus::MakeQuery1(params);
    GUS_ASSIGN_OR_RETURN(gus::SoaResult soa, gus::SoaTransform(q1.plan));
    query_.plan = q1.plan;
    query_.f_expr = q1.aggregate;
    query_.gus = soa.top;
    query_.sbox.subsample = gus::SubsampleConfig{};
    columnar_ = std::make_unique<gus::ColumnarCatalog>(&catalog_);

    // Each daemon holds its own copy of the catalog, as separate hosts
    // would; Start() ingests and warms it.
    std::vector<gus::Endpoint> fleet;
    const int64_t start = NowNs();
    for (int d = 0; d < kDaemons; ++d) {
      auto daemon = std::make_unique<gus::WorkerDaemon>(catalog_);
      GUS_RETURN_NOT_OK(daemon->RegisterQuery("q1", query_));
      GUS_ASSIGN_OR_RETURN(
          gus::Endpoint listen,
          gus::Endpoint::Parse("unix:" + options_.work_dir + "/daemon" +
                               std::to_string(d) + ".sock"));
      GUS_ASSIGN_OR_RETURN(gus::Endpoint endpoint, daemon->Start(listen));
      fleet.push_back(endpoint);
      daemons_.push_back(std::move(daemon));
    }
    times->start_s += MsSince(start) / 1e3;
    coordinator_ = std::make_unique<gus::SessionCoordinator>(fleet);

    // Warm-up: answer (and so cache) every pool seed, then a few misses
    // so the daemons' first executions stay out of the timed phase.
    for (int k = 0; k < kPoolSeeds + 8; ++k) {
      const uint64_t seed =
          k < kPoolSeeds ? PoolSeed(k) : DeriveSeed(options_.seed, 200 + k);
      GUS_RETURN_NOT_OK(Execute(seed, nullptr).status());
    }
    return gus::Status::OK();
  }

  int clients() const override { return 2; }

  gus::Result<Answer> Run(int client, int64_t index, Tracer* tracer,
                          LayerRecorder* layers) override {
    gus::ExecStats stats;
    const int64_t start = NowNs();
    gus::Result<gus::ServedResult> served = [&] {
      Tracer::Scope span(tracer, "serve.execute", index);
      return Execute(RequestSeed(client, index),
                     layers != nullptr ? &stats : nullptr);
    }();
    const double ms = MsSince(start);
    GUS_RETURN_NOT_OK(served.status());
    if (layers != nullptr) {
      layers->Add(served->cache_hit ? "serve.hit_ms" : "serve.miss_ms", ms);
      layers->Count("serve.shard_retries",
                    static_cast<double>(stats.shard_retries));
      if (served->cache_hit) traced_hits_.fetch_add(1);
    }
    return AnswerFromReport(served->report);
  }

  gus::Result<Answer> Reference(int client, int64_t index) override {
    // The one-shot in-process gather, bit-identical by construction (the
    // catalog form of ShardedSboxEstimate, so the columnar conversion is
    // not repeated per check).
    GUS_ASSIGN_OR_RETURN(
        gus::SboxReport report,
        gus::ShardedSboxEstimateOverCatalog(
            query_.plan, columnar_.get(), RequestSeed(client, index),
            gus::ExecMode::kSampled, ShardExec(nullptr), kShards,
            query_.f_expr, query_.gus, query_.sbox));
    return AnswerFromReport(report);
  }

  /// One full hit/miss cycle per client.
  int64_t checked_per_client() const override { return 10; }

  gus::Status Probe(int client, int64_t index, Tracer* tracer,
                    LayerRecorder* layers) override {
    const uint64_t seed = RequestSeed(client, index);
    gus::LocalTransport transport;
    int64_t bundle_bytes = 0;
    for (int k = 0; k < kShards; ++k) {
      gus::ExecStats stats;
      gus::Result<std::string> bundle = [&] {
        Tracer::Scope span(tracer, "dist.shard_exec", index);
        return gus::RunShardSbox(query_.plan, columnar_.get(), seed,
                                 gus::ExecMode::kSampled, ShardExec(&stats), k,
                                 kShards, query_.f_expr, query_.gus,
                                 query_.sbox);
      }();
      GUS_RETURN_NOT_OK(bundle.status());
      RecordExecStats(stats, layers);
      bundle_bytes += static_cast<int64_t>(bundle->size());
      GUS_RETURN_NOT_OK(transport.Send(k, std::move(*bundle)));
    }
    layers->Add("dist.bundle_bytes", static_cast<double>(bundle_bytes));
    Tracer::Scope span(tracer, "dist.gather", index);
    return gus::GatherSboxEstimate(&transport, kShards).status();
  }

  void BeginTrace() override {
    traced_hits_ = 0;
    served_before_ = RequestsServed();
  }

  void FinishLayers(int64_t traced_queries, LayerRecorder* layers) override {
    const double queries = static_cast<double>(traced_queries);
    layers->Set("serve.cache_hit_ratio",
                static_cast<double>(traced_hits_.load()) / queries);
    layers->Set("serve.shard_execs_per_query",
                static_cast<double>(RequestsServed() - served_before_) /
                    queries);
  }

 private:
  uint64_t PoolSeed(int k) const { return DeriveSeed(options_.seed, 100 + k); }

  uint64_t RequestSeed(int client, int64_t index) const {
    if (index % 10 < 3) return PoolSeed((client + index) % kPoolSeeds);
    return QuerySeed(options_.seed, client, index);
  }

  gus::ExecOptions ShardExec(gus::ExecStats* stats) const {
    gus::ExecOptions exec;
    exec.num_threads = 1;
    exec.morsel_rows = kMorselRows;
    exec.stats = stats;
    return exec;
  }

  gus::Result<gus::ServedResult> Execute(uint64_t seed,
                                         gus::ExecStats* stats) {
    gus::ServedRequest req;
    req.seed = seed;
    req.num_shards = kShards;
    req.morsel_rows = kMorselRows;
    req.num_threads = 1;
    req.use_cache = true;
    req.cache = &cache_;
    req.stats = stats;
    return coordinator_->Execute("q1", req);
  }

  int64_t RequestsServed() const {
    int64_t total = 0;
    for (const std::unique_ptr<gus::WorkerDaemon>& daemon : daemons_) {
      total += daemon->requests_served();
    }
    return total;
  }

  const RunOptions options_;
  const int64_t orders_;
  gus::Catalog catalog_;
  std::unique_ptr<gus::ColumnarCatalog> columnar_;
  gus::ServedQuery query_;
  gus::ViewCache cache_;
  std::vector<std::unique_ptr<gus::WorkerDaemon>> daemons_;
  std::unique_ptr<gus::SessionCoordinator> coordinator_;
  std::atomic<int64_t> traced_hits_{0};
  int64_t served_before_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeServedRepeat(const RunOptions& options) {
  return std::make_unique<ServedRepeat>(options);
}

}  // namespace perfbench
