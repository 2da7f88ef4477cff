// The worker daemon (`gusd`): a long-lived shard worker behind a socket.
//
// The one-shot scatter (dist/coordinator.h) pays the catalog load and
// warm-up on every query; a daemon pays it once. Start() ingests the
// catalog into columnar form, pre-warms the conversion and fingerprint
// caches for every registered query, then serves shard requests over
// persistent framed connections (serve/protocol.h) until stopped.
//
// Concurrency model: one reader thread per connection; each exec request
// runs on its own worker thread and writes its response under the
// connection's write lock when it finishes — so responses interleave in
// completion order, and one slow shard never blocks another session's
// request on the same connection (the session header is what lets the
// coordinator sort the answers out). The reader joins finished request
// threads before it starts the next, so a persistent connection holds
// only its in-flight requests' threads.
//
// Fault participation (the PR 8 model): every exec request passes the
// "serve.execute" fault site — GUS_FAULT plans can fail, delay, or kill
// it mid-request, and Stop() doubles as the in-process stand-in for a
// daemon kill (connections die abruptly; clients see mid-frame EOF or
// refused reconnects, exactly the retry layer's diet). Divergence
// protection is the same as one-shot workers: a request carrying an
// expected catalog fingerprint is refused before execution if the
// daemon's loaded data disagrees.

#ifndef GUS_SERVE_DAEMON_H_
#define GUS_SERVE_DAEMON_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "algebra/gus_params.h"
#include "est/sbox.h"
#include "plan/columnar_executor.h"
#include "plan/executor.h"
#include "plan/plan_node.h"
#include "rel/expression.h"
#include "serve/protocol.h"
#include "serve/socket.h"
#include "util/status.h"

namespace gus {

/// One registered servable query: the sampled plan plus its estimation
/// inputs (what RunShardSbox needs besides the shard geometry).
struct ServedQuery {
  PlanPtr plan;
  ExprPtr f_expr;
  GusParams gus;
  SboxOptions sbox;
};

/// \brief Fingerprint of a query *definition*: plan shape, aggregate,
/// GUS design, and estimator options.
///
/// Stable across processes (built from the canonical plan/expression
/// renderings and the wire encodings), so a coordinator can key its view
/// cache on it. Deliberately excludes the catalog (content travels in
/// PlanCatalogFingerprint) and the seed (a cache-key axis of its own).
uint64_t ServedQueryFingerprint(const ServedQuery& query);

/// \brief A long-lived worker daemon serving registered queries.
class WorkerDaemon {
 public:
  /// The daemon owns a copy of the base catalog (a real deployment loads
  /// it from storage once; tests hand it over directly).
  explicit WorkerDaemon(Catalog catalog);

  /// \brief Out-of-core form: the daemon serves straight from an external
  /// columnar catalog (typically a SegmentCatalog over a `.gseg`
  /// directory) instead of an in-memory row catalog.
  ///
  /// Segment-backed scans stream through the pinned-segment cache on
  /// demand, so the daemon's resident set is the cache budget, not the
  /// data size. Results are bit-identical to the in-memory form (the
  /// fingerprints come from the same ContentFingerprint chain).
  explicit WorkerDaemon(std::unique_ptr<ColumnarCatalog> columnar);
  ~WorkerDaemon();

  WorkerDaemon(const WorkerDaemon&) = delete;
  WorkerDaemon& operator=(const WorkerDaemon&) = delete;

  /// Registers `name` before Start (not thread-safe against serving).
  Status RegisterQuery(const std::string& name, ServedQuery query);

  /// \brief Loads + warms the columnar catalog for every registered
  /// query, binds `listen`, and starts serving; returns the resolved
  /// endpoint ("tcp:0" becomes the real port).
  ///
  /// Restartable: Stop() then Start() again rebinds (the reconnect test
  /// choreography — a killed daemon coming back on its address). The
  /// columnar forms and fingerprints are memoized by the catalog's
  /// relations (Relation::Columnar), so a restart re-pins them without
  /// converting or hashing again.
  Result<Endpoint> Start(const Endpoint& listen);

  /// \brief Stops serving: closes the listener and every live
  /// connection (clients see EOF mid-whatever), joins all threads.
  /// Idempotent.
  void Stop();

  /// Exec requests that ran to a response (cache tests pin this to prove
  /// a cache hit executed nothing).
  int64_t requests_served() const {
    return requests_served_.load(std::memory_order_relaxed);
  }

  const Endpoint& endpoint() const { return endpoint_; }

 private:
  /// One exec request's thread plus the flag it raises as its last act.
  struct RequestThread {
    std::thread thread;
    std::shared_ptr<std::atomic<bool>> done;
  };

  struct LiveConnection {
    std::shared_ptr<SocketConnection> socket;
    std::shared_ptr<std::mutex> write_mu;
    std::thread reader;
    /// Request threads not yet joined: finished ones are reaped before the
    /// next request starts, the rest when the connection ends.
    std::vector<RequestThread> workers;
  };

  void AcceptLoop(SocketListener* listener);
  void ConnectionLoop(LiveConnection* conn);
  /// Handles one exec request end-to-end; returns the response body
  /// (bundle bytes) or the error to send back.
  Result<std::string> HandleExec(const ExecShardRequest& req);
  Result<std::string> HandlePlanInfo(std::string_view body);

  Catalog catalog_;
  std::unique_ptr<ColumnarCatalog> columnar_;
  /// True when columnar_ was handed in at construction (segment-backed):
  /// Start() must not rebuild it from catalog_.
  bool external_columnar_ = false;
  std::map<std::string, ServedQuery> queries_;
  std::map<std::string, ServePlanInfo> plan_infos_;

  std::mutex mu_;  // guards listener_, connections_, accept_thread_
  std::unique_ptr<SocketListener> listener_;
  std::thread accept_thread_;
  std::vector<std::unique_ptr<LiveConnection>> connections_;
  Endpoint endpoint_;
  std::atomic<bool> stopping_{false};
  std::atomic<int64_t> requests_served_{0};
};

}  // namespace gus

#endif  // GUS_SERVE_DAEMON_H_
