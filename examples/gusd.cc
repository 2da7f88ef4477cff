// The serving layer, end to end (src/serve/): worker daemons + session
// coordinator + approximate-view cache.
//
// Two roles in one binary:
//
//   example_gusd --listen EP [--seed S]
//       Run a worker daemon (`gusd`): load the deterministic demo catalog
//       once, register paper Query 1 as "q1", and serve shard requests
//       over persistent framed connections until killed. EP is
//       "unix:/path/sock" or "tcp:port" ("tcp:0" picks a free port; the
//       resolved endpoint is printed). Honors GUS_FAULT — e.g.
//       GUS_FAULT="serve.execute@1=fail*2" makes shard 1 fail twice, and
//       "serve.execute=kill" dies mid-request like a crashed node.
//
//   example_gusd --coordinator --endpoints EP1,EP2,... [--sessions N]
//       [--shards K] [--seed S] [--attempts A] [--allow-partial]
//       [--cache] [--verify]
//       Run N concurrent query sessions against the daemon fleet: shard
//       k of each query goes to daemon k % M, responses demux by request
//       id over the shared connections, lost daemons are retried with
//       backoff (a restarted daemon heals transparently), and
//       --allow-partial degrades honestly when a shard stays lost.
//       --verify recomputes every estimate with the one-shot in-process
//       ShardedSboxEstimate and fails unless the served bits are
//       identical.
//       --cache serves repeated (query, seed) pairs from merged
//       estimator state without touching the fleet.
//
// Every process regenerates the same deterministic catalog, so daemons
// and the verifying coordinator agree on the data by construction (the
// catalog fingerprint in every request enforces it).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <chrono>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "data/tpch_gen.h"
#include "data/workload.h"
#include "dist/coordinator.h"
#include "plan/soa_transform.h"
#include "serve/daemon.h"
#include "serve/session.h"
#include "serve/socket.h"

namespace {

using namespace gus;

/// Same demo workload as example_sharded_estimate: paper Query 1 over a
/// deterministic TPC-H-shaped catalog every process can regenerate.
struct DemoQuery {
  TpchData data;
  Catalog catalog;
  Workload q1;
  SoaResult soa;
  SboxOptions options;
  int64_t morsel_rows = 4096;  // fixed: part of the result's identity

  DemoQuery() {
    TpchConfig config;
    config.num_orders = 20000;
    config.num_customers = 2000;
    config.num_parts = 500;
    data = GenerateTpch(config);
    catalog = data.MakeCatalog();
    Query1Params params;
    params.lineitem_p = 0.3;
    params.orders_n = 8000;
    params.orders_population = 20000;
    q1 = MakeQuery1(params);
    soa = SoaTransform(q1.plan).ValueOrDie();
    options.subsample = SubsampleConfig{};
  }
};

int RunDaemon(const std::string& listen) {
  auto ep = Endpoint::Parse(listen);
  if (!ep.ok()) {
    std::fprintf(stderr, "bad endpoint: %s\n", ep.status().ToString().c_str());
    return 1;
  }
  DemoQuery demo;
  WorkerDaemon daemon(demo.catalog);
  ServedQuery query;
  query.plan = demo.q1.plan;
  query.f_expr = demo.q1.aggregate;
  query.gus = demo.soa.top;
  query.sbox = demo.options;
  Status registered = daemon.RegisterQuery("q1", std::move(query));
  if (!registered.ok()) {
    std::fprintf(stderr, "%s\n", registered.ToString().c_str());
    return 1;
  }
  auto started = daemon.Start(ep.ValueOrDie());
  if (!started.ok()) {
    std::fprintf(stderr, "start failed: %s\n",
                 started.status().ToString().c_str());
    return 1;
  }
  std::printf("gusd serving q1 on %s\n",
              started.ValueOrDie().ToString().c_str());
  std::fflush(stdout);
  // Serve until killed — the daemon's threads do all the work.
  for (;;) std::this_thread::sleep_for(std::chrono::seconds(3600));
}

struct CoordinatorArgs {
  std::vector<Endpoint> fleet;
  int sessions = 4;
  int shards = 4;
  uint64_t seed = 42;
  int attempts = 3;
  bool allow_partial = false;
  bool use_cache = false;
  bool verify = false;
};

int RunCoordinator(const CoordinatorArgs& args) {
  DemoQuery demo;
  SessionCoordinator coordinator(args.fleet);

  // Local ground truth for --verify, computed once per seed actually used.
  std::mutex verify_mu;
  std::map<uint64_t, SboxReport> local_reports;
  const auto local_report = [&](uint64_t seed) -> Result<SboxReport> {
    std::lock_guard<std::mutex> lock(verify_mu);
    auto it = local_reports.find(seed);
    if (it != local_reports.end()) return it->second;
    ExecOptions exec;
    exec.morsel_rows = demo.morsel_rows;
    GUS_ASSIGN_OR_RETURN(
        SboxReport report,
        ShardedSboxEstimate(demo.q1.plan, demo.catalog, seed,
                            ExecMode::kSampled, exec, args.shards,
                            demo.q1.aggregate, demo.soa.top, demo.options));
    local_reports[seed] = report;
    return report;
  };

  std::vector<int> failures(static_cast<size_t>(args.sessions), 0);
  std::vector<std::thread> sessions;
  sessions.reserve(static_cast<size_t>(args.sessions));
  std::mutex print_mu;
  for (int s = 0; s < args.sessions; ++s) {
    sessions.emplace_back([&, s] {
      // Sessions cycle over a few seeds: interleaved distinct queries,
      // plus repeats that exercise the cache when --cache is on.
      const uint64_t seed = args.seed + static_cast<uint64_t>(s % 4);
      ServedRequest req;
      req.seed = seed;
      req.num_shards = args.shards;
      req.morsel_rows = demo.morsel_rows;
      req.allow_partial = args.allow_partial;
      req.use_cache = args.use_cache;
      req.retry.max_attempts = args.attempts;
      auto result = coordinator.Execute("q1", req);
      if (!result.ok()) {
        std::lock_guard<std::mutex> lock(print_mu);
        std::fprintf(stderr, "session %d FAILED: %s\n", s,
                     result.status().ToString().c_str());
        failures[static_cast<size_t>(s)] = 1;
        return;
      }
      const ServedResult& served = result.ValueOrDie();
      {
        std::lock_guard<std::mutex> lock(print_mu);
        std::printf(
            "session %d (id %llu, seed %llu): %s estimate %.6f  95%% CI "
            "[%.6f, %.6f]%s%s\n",
            s, static_cast<unsigned long long>(served.session_id),
            static_cast<unsigned long long>(seed),
            served.degraded ? "DEGRADED" : "SERVED", served.report.estimate,
            served.report.interval.lo, served.report.interval.hi,
            served.cache_hit ? "  [CACHED]" : "",
            served.degraded
                ? ("  " + served.degradation.ToString()).c_str()
                : "");
        std::fflush(stdout);
      }
      if (args.verify && !served.degraded) {
        auto local = local_report(seed);
        if (!local.ok()) {
          std::lock_guard<std::mutex> lock(print_mu);
          std::fprintf(stderr, "session %d local verify failed: %s\n", s,
                       local.status().ToString().c_str());
          failures[static_cast<size_t>(s)] = 1;
          return;
        }
        const SboxReport& want = local.ValueOrDie();
        const SboxReport& got = served.report;
        if (got.estimate != want.estimate || got.stddev != want.stddev ||
            got.interval.lo != want.interval.lo ||
            got.interval.hi != want.interval.hi ||
            got.sample_rows != want.sample_rows ||
            got.variance_rows != want.variance_rows) {
          std::lock_guard<std::mutex> lock(print_mu);
          std::fprintf(stderr,
                       "session %d MISMATCH: served %.17g vs local %.17g\n",
                       s, got.estimate, want.estimate);
          failures[static_cast<size_t>(s)] = 1;
        }
      }
    });
  }
  for (std::thread& t : sessions) t.join();
  int failed = 0;
  for (int f : failures) failed += f;
  if (failed > 0) {
    std::fprintf(stderr, "%d of %d sessions failed\n", failed, args.sessions);
    return 1;
  }
  std::printf("%d sessions OK over %zu daemon(s)%s\n", args.sessions,
              args.fleet.size(),
              args.verify ? " (bit-identical to ShardedSboxEstimate)" : "");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string listen;
  bool coordinator = false;
  CoordinatorArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : "";
    };
    if (arg == "--listen") {
      listen = next();
    } else if (arg == "--coordinator") {
      coordinator = true;
    } else if (arg == "--endpoints") {
      std::string spec = next();
      size_t pos = 0;
      while (pos <= spec.size()) {
        const size_t comma = spec.find(',', pos);
        const std::string one =
            spec.substr(pos, comma == std::string::npos ? std::string::npos
                                                        : comma - pos);
        if (!one.empty()) {
          auto ep = Endpoint::Parse(one);
          if (!ep.ok()) {
            std::fprintf(stderr, "bad endpoint '%s': %s\n", one.c_str(),
                         ep.status().ToString().c_str());
            return 2;
          }
          args.fleet.push_back(ep.ValueOrDie());
        }
        if (comma == std::string::npos) break;
        pos = comma + 1;
      }
    } else if (arg == "--sessions") {
      args.sessions = std::atoi(next());
    } else if (arg == "--shards") {
      args.shards = std::atoi(next());
    } else if (arg == "--seed") {
      args.seed = static_cast<uint64_t>(std::strtoull(next(), nullptr, 10));
    } else if (arg == "--attempts") {
      args.attempts = std::atoi(next());
    } else if (arg == "--allow-partial") {
      args.allow_partial = true;
    } else if (arg == "--cache") {
      args.use_cache = true;
    } else if (arg == "--verify") {
      args.verify = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return 2;
    }
  }
  if (!listen.empty()) return RunDaemon(listen);
  if (coordinator) {
    if (args.fleet.empty()) {
      std::fprintf(stderr, "--coordinator needs --endpoints\n");
      return 2;
    }
    return RunCoordinator(args);
  }
  std::fprintf(stderr,
               "usage: %s --listen EP | %s --coordinator --endpoints "
               "EP1,EP2,...\n",
               argv[0], argv[0]);
  return 2;
}
