// The session coordinator: many concurrent queries over a fixed daemon
// fleet.
//
// One DaemonChannel per fleet endpoint. A channel is a single persistent
// connection multiplexing every in-flight request: Call() stamps a fresh
// request_id into the session header, sends the frame under the write
// lock, and parks on a per-request slot; a demux reader thread routes
// each response frame (daemons answer in completion order, not request
// order) back to its slot by request_id. Connection death fails every
// parked call with Unavailable — retryable — and the next Call()
// reconnects, which is how a killed-and-restarted daemon heals without
// anyone above the channel noticing more than a retry.
//
// SessionCoordinator::Execute is one query end to end: allocate a
// session id, resolve the query's ServePlanInfo (fetched once per name,
// then cached), consult the approximate-view cache, fan the shards out
// across the fleet (shard k -> channel[k % M], one thread per shard), and
// gather. Retrying and folding are not implemented here: each shard runs
// the shard supervisor of dist/coordinator.h — RunShardAttempts with one
// DaemonChannel::Call per attempt, then FoldShardOutcomes — the *same*
// attempt loop and fold as the in-process FaultTolerantShardedSboxEstimate
// scatter, which is what makes a served answer, its retry accounting, and
// its failure codes identical to the one-shot path by construction.
// Execute is thread-safe; N client threads driving one coordinator is the
// intended shape (the concurrency tests do exactly that).
//
// Admission control sits at the front door: when a controller is
// attached, its current scale travels in every shard request and the
// observed load is reported back after the gather — overload shrinks the
// *design* (stream/admission.h), never the answer's honesty.

#ifndef GUS_SERVE_SESSION_H_
#define GUS_SERVE_SESSION_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "dist/coordinator.h"
#include "est/partial_gather.h"
#include "est/sbox.h"
#include "plan/exec_stats.h"
#include "plan/executor.h"
#include "serve/protocol.h"
#include "serve/socket.h"
#include "serve/view_cache.h"
#include "stream/admission.h"
#include "util/status.h"

namespace gus {

/// \brief One persistent, multiplexed connection to a worker daemon.
///
/// Thread-safe: any number of threads may Call() concurrently; frames
/// interleave on the wire and the reader thread demuxes responses by
/// request_id. Reconnects lazily after connection death.
class DaemonChannel {
 public:
  explicit DaemonChannel(Endpoint endpoint);
  ~DaemonChannel();

  DaemonChannel(const DaemonChannel&) = delete;
  DaemonChannel& operator=(const DaemonChannel&) = delete;

  /// \brief One request/response round trip.
  ///
  /// Sends `body` as `request_type` under `session_id`, waits for the
  /// response frame with the same request_id. A kError response decodes
  /// back to its original Status (the retryable/fatal distinction
  /// survives the wire); a lost connection fails as Unavailable;
  /// `deadline_ms` > 0 bounds the wait (DeadlineExceeded). Both are
  /// retryable — the next Call() reconnects.
  Result<std::string> Call(ServeMsg request_type, uint64_t session_id,
                           std::string_view body, ServeMsg expected_response,
                           int64_t deadline_ms = 0);

  /// Closes the connection and joins the reader threads. Idempotent;
  /// in-flight calls fail with Unavailable.
  void Shutdown();

  const Endpoint& endpoint() const { return endpoint_; }

 private:
  /// A parked Call() waiting for its response frame.
  struct Pending {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    ServeMsg type = ServeMsg::kError;
    std::string body;
    Status error = Status::OK();
  };

  /// One connection generation: replaced wholesale on death, so a late
  /// frame from a dead generation can never satisfy a new call.
  struct ConnState {
    std::shared_ptr<SocketConnection> socket;
    std::mutex write_mu;
    std::thread reader;
    std::mutex mu;  // guards pending, dead
    std::map<uint64_t, std::shared_ptr<Pending>> pending;
    bool dead = false;
  };

  /// Current live generation, connecting a fresh one if needed.
  Result<std::shared_ptr<ConnState>> EnsureConnected();
  /// Marks the generation dead and fails every parked call with `why`.
  static void KillConn(const std::shared_ptr<ConnState>& conn,
                       const Status& why);

  const Endpoint endpoint_;
  std::atomic<uint64_t> next_request_{1};
  std::mutex conn_mu_;  // guards current_, generations_, shutdown_
  std::shared_ptr<ConnState> current_;
  /// Every generation ever connected — kept for reader joins at Shutdown.
  std::vector<std::shared_ptr<ConnState>> generations_;
  bool shutdown_ = false;
};

/// \brief One served query's knobs (the serving twin of ExecOptions).
struct ServedRequest {
  uint64_t seed = 0;
  int num_shards = 1;
  /// 0 normalizes to the pinned sharded default (ShardedExecOptions) on
  /// both sides of the wire.
  int64_t morsel_rows = 0;
  /// Daemon-side threads per shard (never affects result bits).
  int num_threads = 1;
  /// Fold survivors through est/partial_gather when shards are lost past
  /// their retry budget, instead of failing the query.
  bool allow_partial = false;
  ShardRetryPolicy retry;
  /// Consult/populate the view cache (degraded results are never cached).
  bool use_cache = false;
  ViewCache* cache = nullptr;  ///< defaults to ProcessViewCache() when null
  /// Admission scale in (0, 1]; overridden by the coordinator's attached
  /// AdmissionController when one is present.
  double admission_scale = 1.0;
  /// Optional profile output (cache + shard retry counters).
  ExecStats* stats = nullptr;
};

/// \brief Outcome of one served query.
struct ServedResult {
  SboxReport report;
  bool degraded = false;
  DegradedReport degradation;  ///< meaningful iff degraded
  SurvivingRangesInfo live;    ///< meaningful iff degraded
  /// True when the report came from cached merged state (no daemon ran).
  bool cache_hit = false;
  uint64_t session_id = 0;
  /// Scale the query actually ran at (controller- or request-supplied).
  double admission_scale = 1.0;
};

/// \brief Client-side coordinator over a fixed daemon fleet.
class SessionCoordinator {
 public:
  /// `admission` (optional, not owned) supplies the scale for every query
  /// and receives load observations; the coordinator serializes access
  /// (AdmissionController itself is not thread-safe).
  explicit SessionCoordinator(const std::vector<Endpoint>& fleet,
                              AdmissionController* admission = nullptr);
  ~SessionCoordinator();

  SessionCoordinator(const SessionCoordinator&) = delete;
  SessionCoordinator& operator=(const SessionCoordinator&) = delete;

  /// \brief Runs `query_name` end to end (see file comment). Thread-safe.
  ///
  /// An invalid `req.retry` (ShardRetryPolicy::Validate) is rejected as
  /// InvalidArgument before any daemon is asked.
  Result<ServedResult> Execute(const std::string& query_name,
                               const ServedRequest& req);

  /// Closes every channel. Idempotent; the destructor also calls it.
  void Shutdown();

  size_t fleet_size() const { return channels_.size(); }

 private:
  /// The query's plan info, fetched from the fleet once and cached.
  Result<ServePlanInfo> ResolvePlanInfo(const std::string& query_name,
                                        uint64_t session_id,
                                        const ShardRetryPolicy& retry);

  std::vector<std::unique_ptr<DaemonChannel>> channels_;
  AdmissionController* admission_;
  std::mutex admission_mu_;
  std::atomic<uint64_t> next_session_{1};
  std::mutex info_mu_;
  std::map<std::string, ServePlanInfo> plan_infos_;
};

}  // namespace gus

#endif  // GUS_SERVE_SESSION_H_
