// The serving layer (src/serve/): framed socket transport, the message
// protocol, persistent worker daemons, concurrent sessions multiplexed
// over a fixed fleet, and the approximate-view cache.
//
// The load-bearing claim throughout: a served answer is bit-identical to
// the one-shot in-process ShardedSboxEstimate gather — at every
// (sessions × daemons × threads) matrix point, under injected shard
// faults, across a daemon kill-and-restart, and when replayed from cached
// merged estimator state. Degradation (allow_partial with a daemon that
// stays dead) is the only sanctioned deviation, and it must announce
// itself.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "data/tpch_gen.h"
#include "data/workload.h"
#include "dist/coordinator.h"
#include "dist/shard.h"
#include "est/wire.h"
#include "plan/columnar_executor.h"
#include "plan/exec_stats.h"
#include "plan/soa_transform.h"
#include "serve/daemon.h"
#include "serve/protocol.h"
#include "serve/session.h"
#include "serve/socket.h"
#include "serve/view_cache.h"
#include "sqlish/planner.h"
#include "stream/admission.h"
#include "test_util.h"
#include "util/fault_inject.h"

namespace gus {
namespace {

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

uint64_t DoubleBits(double v) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v), "");
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

/// A per-test unix-socket endpoint under the test temp dir (pid-scoped so
/// parallel ctest processes never collide).
Endpoint UnixEndpoint(const std::string& tag) {
  const std::string path =
      (std::filesystem::path(::testing::TempDir()) /
       ("gus_" + std::to_string(::getpid()) + "_" + tag + ".sock"))
          .string();
  return Endpoint::Parse("unix:" + path).ValueOrDie();
}

/// Query 1 at dist_test scale, plus everything the serving layer needs.
struct ServeFixture {
  TpchData data;
  Catalog catalog;
  Workload q1;
  SoaResult soa;
  SboxOptions options;
  ExecOptions exec;

  ServeFixture() {
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
    options.subsample->target_rows = 200;
    exec.morsel_rows = 64;  // many units at this scale
  }

  ServedQuery Served() const {
    ServedQuery query;
    query.plan = q1.plan;
    query.f_expr = q1.aggregate;
    query.gus = soa.top;
    query.sbox = options;
    return query;
  }

  /// The one-shot in-process reference every served answer must match.
  SboxReport Local(uint64_t seed, int num_shards) const {
    return ShardedSboxEstimate(q1.plan, catalog, seed, ExecMode::kSampled,
                               exec, num_shards, q1.aggregate, soa.top,
                               options)
        .ValueOrDie();
  }
};

/// A fleet of in-process daemons, each serving the fixture's "q1" on its
/// own unix socket.
struct Fleet {
  std::vector<std::unique_ptr<WorkerDaemon>> daemons;
  std::vector<Endpoint> endpoints;
};

Fleet StartFleet(const ServeFixture& fx, int n, const std::string& tag) {
  Fleet fleet;
  for (int i = 0; i < n; ++i) {
    auto daemon = std::make_unique<WorkerDaemon>(fx.catalog);
    Status registered = daemon->RegisterQuery("q1", fx.Served());
    EXPECT_TRUE(registered.ok()) << registered.ToString();
    const Endpoint ep = UnixEndpoint(tag + "_d" + std::to_string(i));
    fleet.endpoints.push_back(daemon->Start(ep).ValueOrDie());
    fleet.daemons.push_back(std::move(daemon));
  }
  return fleet;
}

ServedRequest BaseRequest(uint64_t seed, ViewCache* cache = nullptr) {
  ServedRequest req;
  req.seed = seed;
  req.num_shards = 4;
  req.morsel_rows = 64;  // must match ServeFixture::exec for bit-identity
  req.use_cache = cache != nullptr;
  req.cache = cache;
  return req;
}

// ---------------------------------------------------------------------
// Socket transport
// ---------------------------------------------------------------------

TEST(ServeTest, EndpointParsesAndRejects) {
  ASSERT_OK_AND_ASSIGN(Endpoint u, Endpoint::Parse("unix:/tmp/x.sock"));
  EXPECT_EQ(Endpoint::Kind::kUnix, u.kind);
  EXPECT_EQ("/tmp/x.sock", u.target);
  ASSERT_OK_AND_ASSIGN(Endpoint t, Endpoint::Parse("tcp:9000"));
  EXPECT_EQ(Endpoint::Kind::kTcp, t.kind);
  EXPECT_EQ(9000, t.port);
  ASSERT_OK_AND_ASSIGN(Endpoint h, Endpoint::Parse("tcp:example.test:80"));
  EXPECT_EQ("example.test", h.target);
  EXPECT_EQ(80, h.port);
  EXPECT_FALSE(Endpoint::Parse("").ok());
  EXPECT_FALSE(Endpoint::Parse("carrier-pigeon:coop").ok());
  EXPECT_FALSE(Endpoint::Parse("unix:").ok());
}

TEST(ServeTest, SocketFramesRoundTripAndCloseIsCleanEof) {
  const Endpoint ep = UnixEndpoint("frames");
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<SocketListener> listener,
                       SocketListener::Listen(ep));

  std::thread server([&] {
    auto accepted = listener->Accept();
    ASSERT_TRUE(accepted.ok()) << accepted.status().ToString();
    std::unique_ptr<SocketConnection> conn =
        std::move(accepted).ValueOrDie();
    // Echo frames until the peer hangs up cleanly.
    for (;;) {
      bool clean_eof = false;
      auto frame = conn->RecvFrame(&clean_eof);
      if (!frame.ok()) {
        EXPECT_TRUE(clean_eof) << frame.status().ToString();
        return;
      }
      ASSERT_TRUE(conn->SendFrame(frame.ValueOrDie()).ok());
    }
  });

  ASSERT_OK_AND_ASSIGN(std::unique_ptr<SocketConnection> client,
                       SocketConnection::Connect(ep));
  // Small, empty, and large (multi-recv) payloads all round-trip whole.
  std::string big(1 << 20, '\0');
  for (size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<char>(i * 2654435761u);
  }
  for (const std::string& payload : {std::string("ping"), std::string(), big}) {
    ASSERT_TRUE(client->SendFrame(payload).ok());
    ASSERT_OK_AND_ASSIGN(std::string echoed, client->RecvFrame());
    EXPECT_EQ(payload, echoed);
  }
  client->Close();
  server.join();
}

TEST(ServeTest, TcpListenerResolvesKernelPort) {
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<SocketListener> listener,
                       SocketListener::Listen(Endpoint::Parse("tcp:0")
                                                  .ValueOrDie()));
  EXPECT_GT(listener->endpoint().port, 0);
  std::thread server([&] {
    auto accepted = listener->Accept();
    ASSERT_TRUE(accepted.ok()) << accepted.status().ToString();
    auto frame = accepted.ValueOrDie()->RecvFrame();
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    EXPECT_EQ("over tcp", frame.ValueOrDie());
  });
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<SocketConnection> client,
                       SocketConnection::Connect(listener->endpoint()));
  ASSERT_TRUE(client->SendFrame("over tcp").ok());
  server.join();
}

// ---------------------------------------------------------------------
// Protocol
// ---------------------------------------------------------------------

TEST(ServeTest, ServeMessageRoundTripsHeaderAndBody) {
  ServeHeader header;
  header.type = ServeMsg::kExecRequest;
  header.session_id = 0xA1B2C3D4E5F60718ull;
  header.request_id = 42;
  const std::string payload = EncodeServeMessage(header, "shard body");
  ASSERT_OK_AND_ASSIGN(auto decoded, DecodeServeMessage(payload));
  EXPECT_EQ(ServeMsg::kExecRequest, decoded.first.type);
  EXPECT_EQ(header.session_id, decoded.first.session_id);
  EXPECT_EQ(header.request_id, decoded.first.request_id);
  EXPECT_EQ("shard body", decoded.second);

  // Unknown message types and truncated headers are rejected loudly.
  std::string bogus = payload;
  bogus[0] = 99;
  EXPECT_FALSE(DecodeServeMessage(bogus).ok());
  EXPECT_FALSE(DecodeServeMessage(payload.substr(0, 10)).ok());
}

TEST(ServeTest, ExecShardRequestRoundTrips) {
  ExecShardRequest req;
  req.query = "q1";
  req.seed = 77;
  req.shard_index = 2;
  req.num_shards = 8;
  req.morsel_rows = 4096;
  req.num_threads = 3;
  req.admission_scale = 0.5;
  req.expected_catalog_fingerprint = 0xFEEDFACE;
  ASSERT_OK_AND_ASSIGN(ExecShardRequest back,
                       ExecShardRequestFromBytes(ExecShardRequestToBytes(req)));
  EXPECT_EQ(req.query, back.query);
  EXPECT_EQ(req.seed, back.seed);
  EXPECT_EQ(req.shard_index, back.shard_index);
  EXPECT_EQ(req.num_shards, back.num_shards);
  EXPECT_EQ(req.morsel_rows, back.morsel_rows);
  EXPECT_EQ(req.num_threads, back.num_threads);
  EXPECT_EQ(req.admission_scale, back.admission_scale);
  EXPECT_EQ(req.expected_catalog_fingerprint,
            back.expected_catalog_fingerprint);
}

TEST(ServeTest, StatusSurvivesTheWireWithItsCode) {
  const Status lost = Status::Unavailable("worker 3 went away");
  const Status decoded = StatusFromBytes(StatusToBytes(lost));
  EXPECT_EQ(StatusCode::kUnavailable, decoded.code());
  EXPECT_NE(std::string::npos, decoded.ToString().find("worker 3 went away"));
  EXPECT_TRUE(IsRetryableShardFailure(decoded));

  const Status fatal =
      StatusFromBytes(StatusToBytes(Status::InvalidArgument("diverged")));
  EXPECT_EQ(StatusCode::kInvalidArgument, fatal.code());
  EXPECT_FALSE(IsRetryableShardFailure(fatal));

  // Protocol violations decode to their own (non-retryable) failures.
  EXPECT_EQ(StatusCode::kInternal, StatusFromBytes(StatusToBytes(Status::OK()))
                                       .code());
  EXPECT_FALSE(StatusFromBytes("").ok());
}

// ---------------------------------------------------------------------
// Daemon contract
// ---------------------------------------------------------------------

TEST(ServeTest, DaemonRefusesUnknownQueriesAndDivergentCatalogs) {
  ServeFixture fx;
  Fleet fleet = StartFleet(fx, 1, "refuse");
  DaemonChannel channel(fleet.endpoints[0]);

  ExecShardRequest req;
  req.query = "no-such-query";
  req.num_shards = 2;
  auto unknown = channel.Call(ServeMsg::kExecRequest, 1,
                              ExecShardRequestToBytes(req),
                              ServeMsg::kExecResponse);
  EXPECT_FALSE(unknown.ok());
  EXPECT_FALSE(IsRetryableShardFailure(unknown.status()));

  req.query = "q1";
  req.morsel_rows = 64;
  req.expected_catalog_fingerprint = 0xDEADBEEF;  // not the loaded data
  auto diverged = channel.Call(ServeMsg::kExecRequest, 1,
                               ExecShardRequestToBytes(req),
                               ServeMsg::kExecResponse);
  EXPECT_FALSE(diverged.ok());
  // Divergence is fatal, never retried (re-executing cannot fix it).
  EXPECT_EQ(StatusCode::kInvalidArgument, diverged.status().code());
  EXPECT_EQ(0, fleet.daemons[0]->requests_served());
  channel.Shutdown();
}

// ---------------------------------------------------------------------
// The serving matrix: sessions × daemons × threads, bit-identical
// ---------------------------------------------------------------------

TEST(ServeTest, ServedBitIdenticalAcrossSessionDaemonThreadMatrix) {
  ServeFixture fx;
  // Sessions cycle these seeds; the reference is computed once per seed.
  const std::vector<uint64_t> seeds = {5, 6, 7, 8};
  std::map<uint64_t, SboxReport> local;
  for (const uint64_t seed : seeds) local[seed] = fx.Local(seed, 4);

  for (const int num_daemons : {1, 2, 4}) {
    SCOPED_TRACE("daemons=" + std::to_string(num_daemons));
    Fleet fleet =
        StartFleet(fx, num_daemons, "matrix" + std::to_string(num_daemons));
    SessionCoordinator coordinator(fleet.endpoints);
    for (const int num_sessions : {1, 4, 16}) {
      for (const int num_threads : {1, 4}) {
        SCOPED_TRACE("sessions=" + std::to_string(num_sessions) +
                     " threads=" + std::to_string(num_threads));
        std::vector<std::thread> sessions;
        std::atomic<int> failures{0};
        for (int s = 0; s < num_sessions; ++s) {
          sessions.emplace_back([&, s] {
            const uint64_t seed = seeds[static_cast<size_t>(s) % seeds.size()];
            ServedRequest req = BaseRequest(seed);
            req.num_threads = num_threads;
            auto result = coordinator.Execute("q1", req);
            if (!result.ok()) {
              ADD_FAILURE() << "session " << s << ": "
                            << result.status().ToString();
              ++failures;
              return;
            }
            const ServedResult& served = result.ValueOrDie();
            EXPECT_FALSE(served.degraded);
            EXPECT_FALSE(served.cache_hit);
            ExpectReportsIdentical(local[seed], served.report);
          });
        }
        for (std::thread& t : sessions) t.join();
        ASSERT_EQ(0, failures.load());
      }
    }
    coordinator.Shutdown();
  }
}

TEST(ServeTest, InjectedShardFaultsRetryToTheIdenticalAnswer) {
  ServeFixture fx;
  const SboxReport want = fx.Local(/*seed=*/11, 4);
  Fleet fleet = StartFleet(fx, 2, "fault");
  SessionCoordinator coordinator(fleet.endpoints);

  // Shard 1 fails its first two attempts at the daemon's fault site; the
  // retry layer must absorb both and the answer must not move a bit.
  ScopedFaultPlan plan("serve.execute@1=fail*2");
  ExecStats stats;
  ServedRequest req = BaseRequest(11);
  req.retry.max_attempts = 3;
  req.stats = &stats;
  ASSERT_OK_AND_ASSIGN(ServedResult served, coordinator.Execute("q1", req));
  EXPECT_FALSE(served.degraded);
  ExpectReportsIdentical(want, served.report);
  EXPECT_GE(stats.shard_retries, 2);
  EXPECT_GE(stats.shard_attempts, 6);  // 4 shards + 2 re-attempts
  coordinator.Shutdown();
}

TEST(ServeTest, KilledDaemonHealsOnRestartBitIdentically) {
  ServeFixture fx;
  const SboxReport want = fx.Local(/*seed=*/23, 4);
  Fleet fleet = StartFleet(fx, 2, "heal");
  SessionCoordinator coordinator(fleet.endpoints);

  // Warm the channels (and the plan-info cache) while both daemons live.
  ASSERT_OK_AND_ASSIGN(ServedResult first,
                       coordinator.Execute("q1", BaseRequest(23)));
  ExpectReportsIdentical(want, first.report);

  // Kill daemon 1 (owner of shards 1 and 3), restart it shortly after on
  // the same address; a query issued into the outage must ride retries
  // across the gap and land on the same bits.
  fleet.daemons[1]->Stop();
  std::thread restarter([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    auto restarted = fleet.daemons[1]->Start(fleet.endpoints[1]);
    ASSERT_TRUE(restarted.ok()) << restarted.status().ToString();
  });
  ExecStats stats;
  ServedRequest req = BaseRequest(23);
  req.retry.max_attempts = 60;
  req.stats = &stats;
  ASSERT_OK_AND_ASSIGN(ServedResult healed, coordinator.Execute("q1", req));
  restarter.join();
  EXPECT_FALSE(healed.degraded);
  ExpectReportsIdentical(want, healed.report);
  EXPECT_GE(stats.shard_retries, 1);  // the outage was really crossed
  coordinator.Shutdown();
}

TEST(ServeTest, ConcurrentSessionsSurviveMidRunDaemonKill) {
  ServeFixture fx;
  const std::vector<uint64_t> seeds = {31, 32, 33};
  std::map<uint64_t, SboxReport> local;
  for (const uint64_t seed : seeds) local[seed] = fx.Local(seed, 4);

  Fleet fleet = StartFleet(fx, 2, "stress");
  SessionCoordinator coordinator(fleet.endpoints);
  // Slow daemon 1's shards down so the kill below lands mid-request for
  // some sessions (a true mid-stream cut, not just a refused connect).
  ScopedFaultPlan plan("serve.execute@1=delay*4+80;serve.execute@3=delay*4+80");

  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 8; ++c) {
    clients.emplace_back([&, c] {
      for (int round = 0; round < 3; ++round) {
        const uint64_t seed =
            seeds[static_cast<size_t>(c + round) % seeds.size()];
        ServedRequest req = BaseRequest(seed);
        req.retry.max_attempts = 60;
        auto result = coordinator.Execute("q1", req);
        if (!result.ok()) {
          ADD_FAILURE() << "client " << c << " round " << round << ": "
                        << result.status().ToString();
          ++failures;
          return;
        }
        EXPECT_FALSE(result.ValueOrDie().degraded);
        ExpectReportsIdentical(local[seed], result.ValueOrDie().report);
      }
    });
  }
  std::thread chaos([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
    fleet.daemons[1]->Stop();
    std::this_thread::sleep_for(std::chrono::milliseconds(120));
    auto restarted = fleet.daemons[1]->Start(fleet.endpoints[1]);
    ASSERT_TRUE(restarted.ok()) << restarted.status().ToString();
  });
  for (std::thread& t : clients) t.join();
  chaos.join();
  EXPECT_EQ(0, failures.load());
  coordinator.Shutdown();
}

TEST(ServeTest, AllowPartialDegradesHonestlyWhenADaemonStaysDead) {
  ServeFixture fx;
  Fleet fleet = StartFleet(fx, 2, "degrade");
  SessionCoordinator coordinator(fleet.endpoints);
  // Resolve plan info while both daemons live, then lose daemon 1 for good.
  ASSERT_OK_AND_ASSIGN(ServedResult full,
                       coordinator.Execute("q1", BaseRequest(47)));
  EXPECT_FALSE(full.degraded);
  fleet.daemons[1]->Stop();

  // Strict mode: the query fails and says which shard stayed lost.
  {
    ServedRequest req = BaseRequest(47);
    req.retry.max_attempts = 2;
    auto strict = coordinator.Execute("q1", req);
    ASSERT_FALSE(strict.ok());
    EXPECT_EQ(StatusCode::kUnavailable, strict.status().code());
    EXPECT_NE(std::string::npos,
              strict.status().ToString().find("allow_partial"));
  }

  // allow_partial: the surviving half answers, labeled as degraded, and
  // the degraded result must never enter the view cache.
  ViewCache cache(8);
  ExecStats stats;
  ServedRequest req = BaseRequest(47, &cache);
  req.retry.max_attempts = 2;
  req.allow_partial = true;
  req.stats = &stats;
  ASSERT_OK_AND_ASSIGN(ServedResult degraded, coordinator.Execute("q1", req));
  EXPECT_TRUE(degraded.degraded);
  EXPECT_EQ(2, degraded.degradation.surviving_shards);
  EXPECT_EQ(4, degraded.degradation.total_shards);
  EXPECT_LT(degraded.degradation.effective_coverage, 1.0);
  EXPECT_GT(degraded.degradation.effective_coverage, 0.0);
  EXPECT_EQ(2u, degraded.live.surviving.size());
  EXPECT_GT(degraded.report.sample_rows, 0);
  EXPECT_EQ(2, stats.shards_lost);
  EXPECT_TRUE(stats.degraded);
  EXPECT_EQ(0u, cache.size());  // outages are not immortalized
  coordinator.Shutdown();
}

TEST(ServeTest, PlanInfoLookupAsksEveryDaemonWithinOneAttempt) {
  // Daemon 0 is dead before the first query, so the plan info is not
  // cached yet; a single attempt must still reach daemon 1 for it.
  ServeFixture fx;
  Fleet fleet = StartFleet(fx, 2, "infofallback");
  SessionCoordinator coordinator(fleet.endpoints);
  fleet.daemons[0]->Stop();

  // Strict mode fails on the lost shards, not on the plan-info lookup.
  ServedRequest req = BaseRequest(53);
  req.retry.max_attempts = 1;
  auto strict = coordinator.Execute("q1", req);
  ASSERT_FALSE(strict.ok());
  EXPECT_EQ(StatusCode::kUnavailable, strict.status().code());
  EXPECT_NE(std::string::npos,
            strict.status().ToString().find("allow_partial"));

  // allow_partial: daemon 1's shards answer.
  req.allow_partial = true;
  ASSERT_OK_AND_ASSIGN(ServedResult degraded, coordinator.Execute("q1", req));
  EXPECT_TRUE(degraded.degraded);
  EXPECT_EQ(2, degraded.degradation.surviving_shards);
  coordinator.Shutdown();
}

TEST(ServeTest, ExecuteRejectsAnInvalidRetryPolicy) {
  // The same ShardRetryPolicy::Validate that ExecOptions::Validate runs in
  // process: a bad policy is refused before any daemon is asked.
  ServeFixture fx;
  Fleet fleet = StartFleet(fx, 1, "badretry");
  SessionCoordinator coordinator(fleet.endpoints);
  ServedRequest no_attempts = BaseRequest(3);
  no_attempts.retry.max_attempts = 0;
  ServedRequest shrinking = BaseRequest(3);
  shrinking.retry.backoff_mult = 0.5;
  for (const ServedRequest& req : {no_attempts, shrinking}) {
    auto result = coordinator.Execute("q1", req);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(StatusCode::kInvalidArgument, result.status().code());
  }
  EXPECT_EQ(0, fleet.daemons[0]->requests_served());
  coordinator.Shutdown();
}

TEST(ServeTest, RetryAccountingMatchesTheInProcessSupervisor) {
  // One supervisor, so one account: the same single-shard fault, injected
  // at the in-process worker and at the daemon, costs the same attempts
  // and retries and lands on the same bits.
  ServeFixture fx;
  ExecStats local_stats;
  FaultTolerantResult local;
  {
    ScopedFaultPlan plan("worker.execute@1=fail*2");
    ExecOptions exec = fx.exec;
    exec.retry.max_attempts = 3;
    exec.stats = &local_stats;
    ASSERT_OK_AND_ASSIGN(
        local, FaultTolerantShardedSboxEstimate(
                   fx.q1.plan, fx.catalog, 19, ExecMode::kSampled, exec, 4,
                   fx.q1.aggregate, fx.soa.top, fx.options));
  }
  Fleet fleet = StartFleet(fx, 2, "accounting");
  SessionCoordinator coordinator(fleet.endpoints);
  ExecStats served_stats;
  ServedResult served;
  {
    ScopedFaultPlan plan("serve.execute@1=fail*2");
    ServedRequest req = BaseRequest(19);
    req.retry.max_attempts = 3;
    req.stats = &served_stats;
    ASSERT_OK_AND_ASSIGN(served, coordinator.Execute("q1", req));
  }
  EXPECT_FALSE(local.degraded);
  EXPECT_FALSE(served.degraded);
  ExpectReportsIdentical(local.report, served.report);
  for (const ExecStats* stats : {&local_stats, &served_stats}) {
    EXPECT_EQ(6, stats->shard_attempts);  // 4 shards + 2 re-attempts
    EXPECT_EQ(2, stats->shard_retries);
    EXPECT_EQ(0, stats->shards_lost);
    EXPECT_EQ(0, stats->shard_deadline_hits);
  }

  // A socket attempt that outlives its deadline is a deadline hit, and
  // (nothing else failing) every retry is one.
  {
    ScopedFaultPlan plan("serve.execute@2=delay+2000");
    ExecStats stats;
    ServedRequest req = BaseRequest(19);
    req.retry.deadline_ms = 500;
    req.stats = &stats;
    ASSERT_OK_AND_ASSIGN(ServedResult late, coordinator.Execute("q1", req));
    ExpectReportsIdentical(local.report, late.report);
    EXPECT_GE(stats.shard_deadline_hits, 1);
    EXPECT_EQ(stats.shard_deadline_hits, stats.shard_retries);
    EXPECT_EQ(0, stats.shards_lost);
  }
  coordinator.Shutdown();
}

/// Threads of this process the kernel still runs.
int64_t CountTasks() {
  int64_t n = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    (void)entry;
    ++n;
  }
  return n;
}

/// Memory mappings of this process. A thread that finished but was never
/// joined has left /proc/self/task, yet its stack (and guard page) stay
/// mapped until the join — this is where an unreaped thread shows.
int64_t CountMappings() {
  std::ifstream maps("/proc/self/maps");
  int64_t n = 0;
  for (std::string line; std::getline(maps, line);) ++n;
  return n;
}

TEST(ServeTest, PersistentConnectionKeepsDaemonThreadsBounded) {
  // One coordinator keeps one connection to the daemon open for all its
  // requests; the daemon must join each finished request thread long
  // before that connection closes.
  ServeFixture fx;
  const std::vector<uint64_t> seeds = {71, 72, 73};
  std::map<uint64_t, SboxReport> local;
  for (const uint64_t seed : seeds) local[seed] = fx.Local(seed, 4);
  Fleet fleet = StartFleet(fx, 1, "reap");
  SessionCoordinator coordinator(fleet.endpoints);
  for (int warm = 0; warm < 5; ++warm) {
    ASSERT_OK(coordinator.Execute("q1", BaseRequest(seeds[0])).status());
  }
  const int64_t served_before = fleet.daemons[0]->requests_served();
  const int64_t tasks_before = CountTasks();
  const int64_t mappings_before = CountMappings();
  int64_t max_tasks = tasks_before;
  for (int q = 0; q < 75; ++q) {  // 75 queries x 4 shards = 300 requests
    const uint64_t seed = seeds[static_cast<size_t>(q) % seeds.size()];
    ASSERT_OK_AND_ASSIGN(ServedResult served,
                         coordinator.Execute("q1", BaseRequest(seed)));
    ExpectReportsIdentical(local[seed], served.report);
    max_tasks = std::max(max_tasks, CountTasks());
  }
  EXPECT_EQ(served_before + 300, fleet.daemons[0]->requests_served());
  EXPECT_LT(max_tasks, tasks_before + 16);
  EXPECT_LT(CountMappings(), mappings_before + 100);
  coordinator.Shutdown();
}

// ---------------------------------------------------------------------
// The approximate-view cache
// ---------------------------------------------------------------------

TEST(ServeTest, ViewCacheHitServesIdenticalBitsWithoutExecuting) {
  ServeFixture fx;
  const SboxReport want = fx.Local(/*seed=*/61, 4);
  Fleet fleet = StartFleet(fx, 1, "cache");
  SessionCoordinator coordinator(fleet.endpoints);
  ViewCache cache(8);

  ExecStats stats;
  ServedRequest req = BaseRequest(61, &cache);
  req.stats = &stats;
  ASSERT_OK_AND_ASSIGN(ServedResult miss, coordinator.Execute("q1", req));
  EXPECT_FALSE(miss.cache_hit);
  ExpectReportsIdentical(want, miss.report);
  EXPECT_EQ(1, stats.cache_misses);
  EXPECT_EQ(0, stats.cache_hits);
  EXPECT_EQ(1u, cache.size());
  const int64_t executed_before_hit = fleet.daemons[0]->requests_served();
  EXPECT_GT(executed_before_hit, 0);

  // The hit: same bits, and the daemon is never consulted.
  ASSERT_OK_AND_ASSIGN(ServedResult hit, coordinator.Execute("q1", req));
  EXPECT_TRUE(hit.cache_hit);
  ExpectReportsIdentical(want, hit.report);
  EXPECT_EQ(1, stats.cache_hits);
  EXPECT_EQ(executed_before_hit, fleet.daemons[0]->requests_served());

  // Shard-count invariance makes the fleet geometry a non-axis of the
  // key: the same entry answers a 2-shard request bit-identically.
  ServedRequest two = BaseRequest(61, &cache);
  two.num_shards = 2;
  two.stats = &stats;
  ASSERT_OK_AND_ASSIGN(ServedResult across, coordinator.Execute("q1", two));
  EXPECT_TRUE(across.cache_hit);
  ExpectReportsIdentical(want, across.report);
  EXPECT_EQ(executed_before_hit, fleet.daemons[0]->requests_served());

  // A different seed is a different estimate: miss, then its own entry.
  ServedRequest other = BaseRequest(62, &cache);
  other.stats = &stats;
  ASSERT_OK_AND_ASSIGN(ServedResult fresh, coordinator.Execute("q1", other));
  EXPECT_FALSE(fresh.cache_hit);
  EXPECT_EQ(2u, cache.size());
  EXPECT_GT(fleet.daemons[0]->requests_served(), executed_before_hit);
  coordinator.Shutdown();
}

TEST(ServeTest, ViewCacheHitTimesItsEstimate) {
  // A hit executes nothing, but its Finish is still the estimate phase.
  ServeFixture fx;
  Fleet fleet = StartFleet(fx, 1, "cache-time");
  SessionCoordinator coordinator(fleet.endpoints);
  ViewCache cache(8);
  ServedRequest req = BaseRequest(67, &cache);
  ASSERT_OK_AND_ASSIGN(ServedResult miss, coordinator.Execute("q1", req));
  EXPECT_FALSE(miss.cache_hit);

  ExecStats stats;
  req.stats = &stats;
  ASSERT_OK_AND_ASSIGN(ServedResult hit, coordinator.Execute("q1", req));
  EXPECT_TRUE(hit.cache_hit);
  EXPECT_EQ(1, stats.cache_hits);
  EXPECT_GT(stats.estimate_ms, 0.0);
  coordinator.Shutdown();
}

TEST(ServeTest, ViewCacheInvalidatesByCatalogAndFailsLoudlyWhenPoisoned) {
  ServeFixture fx;
  Fleet fleet = StartFleet(fx, 1, "poison");
  SessionCoordinator coordinator(fleet.endpoints);
  ViewCache cache(8);

  ExecStats stats;
  ServedRequest req = BaseRequest(71, &cache);
  req.stats = &stats;
  ASSERT_OK_AND_ASSIGN(ServedResult first, coordinator.Execute("q1", req));
  EXPECT_FALSE(first.cache_hit);

  // The entry's key is exactly the documented composition — reconstruct
  // it independently and hit the same slot.
  ColumnarCatalog columnar(&fx.catalog);
  ViewCacheKey key;
  key.query_fingerprint = ServedQueryFingerprint(fx.Served());
  key.catalog_fingerprint =
      PlanCatalogFingerprint(fx.q1.plan, &columnar).ValueOrDie();
  key.seed = 71;
  ExecOptions geometry;
  geometry.morsel_rows = 64;
  key.morsel_rows = ShardedExecOptions(geometry).morsel_rows;
  key.scale_bits = DoubleBits(1.0);
  ASSERT_TRUE(cache.Lookup(key).has_value());

  // Data changed: bulk invalidation empties the catalog's entries and the
  // next query re-executes.
  EXPECT_EQ(1, cache.InvalidateCatalog(key.catalog_fingerprint));
  EXPECT_EQ(0u, cache.size());
  const int64_t before = fleet.daemons[0]->requests_served();
  ASSERT_OK_AND_ASSIGN(ServedResult again, coordinator.Execute("q1", req));
  EXPECT_FALSE(again.cache_hit);
  EXPECT_GT(fleet.daemons[0]->requests_served(), before);
  ExpectReportsIdentical(first.report, again.report);

  // Poison the re-inserted entry: the hit path must fail loudly (bundle
  // checksum), never serve numbers, and never fall through to execution.
  ASSERT_TRUE(cache.CorruptEntryForTesting(key));
  const int64_t before_poison = fleet.daemons[0]->requests_served();
  auto poisoned = coordinator.Execute("q1", req);
  ASSERT_FALSE(poisoned.ok());
  EXPECT_NE(std::string::npos,
            poisoned.status().ToString().find("checksum"));
  EXPECT_EQ(before_poison, fleet.daemons[0]->requests_served());
  coordinator.Shutdown();
}

// ---------------------------------------------------------------------
// Admission control at the front door
// ---------------------------------------------------------------------

TEST(ServeTest, AttachedAdmissionControllerScalesAndObserves) {
  ServeFixture fx;
  Fleet fleet = StartFleet(fx, 1, "admit");
  AdmissionConfig config;
  config.capacity_rows = 1'000'000;  // wildly over-provisioned: scale 1.0
  AdmissionController admission(config);
  SessionCoordinator coordinator(fleet.endpoints, &admission);

  // At scale 1.0 the design is untouched, so the served answer is still
  // bit-identical to the unscaled one-shot reference.
  ASSERT_OK_AND_ASSIGN(ServedResult served,
                       coordinator.Execute("q1", BaseRequest(83)));
  EXPECT_EQ(1.0, served.admission_scale);
  ExpectReportsIdentical(fx.Local(83, 4), served.report);
  coordinator.Shutdown();

  // A tiny capacity shrinks the scale for subsequent queries.
  AdmissionConfig tight;
  tight.capacity_rows = 4;
  AdmissionController squeezed(tight);
  SessionCoordinator throttled(fleet.endpoints, &squeezed);
  ASSERT_OK_AND_ASSIGN(ServedResult loaded,
                       throttled.Execute("q1", BaseRequest(83)));
  EXPECT_GT(loaded.report.sample_rows, 0);
  EXPECT_LT(squeezed.scale(), 1.0);  // the observed load registered
  throttled.Shutdown();
}

// ---------------------------------------------------------------------
// The sqlish kServed engine
// ---------------------------------------------------------------------

TEST(ServeTest, SqlishServedEngineCachesBitIdenticalResults) {
  ServeFixture fx;
  // Ungrouped (SampleViewBuilder state) and grouped (GroupedSumBuilder
  // state) both round-trip through the cache.
  for (const char* sql :
       {"SELECT SUM(l_discount * o_totalprice), COUNT(*) "
        "FROM l TABLESAMPLE (40 PERCENT), o "
        "WHERE l_orderkey = o_orderkey",
        "SELECT SUM(l_quantity) "
        "FROM l TABLESAMPLE (50 PERCENT), o "
        "WHERE l_orderkey = o_orderkey GROUP BY o_custkey"}) {
    SCOPED_TRACE(sql);
    // A unique seed keeps this test's process-wide cache entries its own.
    const uint64_t seed = 987654321 + std::string(sql).size();

    ExecOptions morsel;
    morsel.engine = ExecEngine::kMorselParallel;
    morsel.num_threads = 4;
    morsel.morsel_rows = 64;
    ASSERT_OK_AND_ASSIGN(
        sqlish::ApproxResult want,
        sqlish::RunApproxQuery(sql, fx.catalog, seed, {}, morsel));

    ExecStats stats;
    ExecOptions served = morsel;
    served.engine = ExecEngine::kServed;
    served.stats = &stats;
    ASSERT_OK_AND_ASSIGN(
        sqlish::ApproxResult first,
        sqlish::RunApproxQuery(sql, fx.catalog, seed, {}, served));
    EXPECT_EQ(1, stats.cache_misses);
    EXPECT_EQ(0, stats.cache_hits);
    ASSERT_OK_AND_ASSIGN(
        sqlish::ApproxResult second,
        sqlish::RunApproxQuery(sql, fx.catalog, seed, {}, served));
    EXPECT_EQ(1, stats.cache_hits);
    EXPECT_EQ(1, stats.cache_misses);  // counters accumulate across calls

    ASSERT_EQ(want.values.size(), first.values.size());
    ASSERT_EQ(want.values.size(), second.values.size());
    for (size_t i = 0; i < want.values.size(); ++i) {
      SCOPED_TRACE(i);
      for (const sqlish::ApproxResult* got : {&first, &second}) {
        EXPECT_EQ(want.values[i].label, got->values[i].label);
        EXPECT_EQ(want.values[i].group, got->values[i].group);
        EXPECT_EQ(want.values[i].value, got->values[i].value);
        EXPECT_EQ(want.values[i].stddev, got->values[i].stddev);
        EXPECT_EQ(want.values[i].lo, got->values[i].lo);
        EXPECT_EQ(want.values[i].hi, got->values[i].hi);
      }
    }
    EXPECT_EQ(want.sample_rows, first.sample_rows);
    EXPECT_EQ(want.sample_rows, second.sample_rows);
  }

  // A poisoned entry fails loudly on the hit path (container checksum):
  // it never serves numbers and never falls through to execution. The key
  // is reconstructed from its documented composition.
  {
    const char* sql = "SELECT COUNT(*) FROM l TABLESAMPLE (30 PERCENT)";
    const uint64_t seed = 97531;
    ExecOptions served;
    served.engine = ExecEngine::kServed;
    served.morsel_rows = 64;
    ASSERT_OK(sqlish::RunApproxQuery(sql, fx.catalog, seed, {}, served)
                  .status());
    const SboxOptions options;
    WireWriter w;
    w.PutString(sql);
    w.PutDouble(options.confidence_level);
    w.PutU8(static_cast<uint8_t>(options.bound_kind));
    w.PutU8(0);  // no sub-sampling
    ASSERT_OK_AND_ASSIGN(sqlish::ParsedQuery parsed, sqlish::ParseQuery(sql));
    ASSERT_OK_AND_ASSIGN(sqlish::PlannedQuery planned,
                         sqlish::PlanQuery(parsed, fx.catalog));
    ColumnarCatalog columnar(&fx.catalog);
    ASSERT_OK_AND_ASSIGN(const uint64_t catalog_fingerprint,
                         PlanCatalogFingerprint(planned.plan, &columnar));
    ViewCacheKey key;
    key.query_fingerprint = WireChecksum(w.buffer());
    key.catalog_fingerprint = catalog_fingerprint;
    key.seed = seed;
    key.morsel_rows = ShardedExecOptions(served).morsel_rows;
    key.scale_bits = DoubleBits(1.0);
    ASSERT_TRUE(ProcessViewCache()->CorruptEntryForTesting(key));
    ExecStats stats;
    served.stats = &stats;
    auto poisoned = sqlish::RunApproxQuery(sql, fx.catalog, seed, {}, served);
    ASSERT_FALSE(poisoned.ok());
    EXPECT_NE(std::string::npos,
              poisoned.status().ToString().find("checksum"));
    EXPECT_EQ(1, stats.cache_hits);
    EXPECT_EQ(0, stats.cache_misses);
  }

  // The served engine estimates; it never materializes relations.
  ExecOptions served;
  served.engine = ExecEngine::kServed;
  Rng rng(1);
  auto rejected =
      ExecutePlan(fx.q1.plan, fx.catalog, &rng, ExecMode::kSampled, served);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(StatusCode::kInvalidArgument, rejected.status().code());
}

}  // namespace
}  // namespace gus
