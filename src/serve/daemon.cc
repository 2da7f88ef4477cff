#include "serve/daemon.h"

#include <optional>
#include <utility>

#include "dist/shard.h"
#include "dist/worker.h"
#include "est/wire.h"
#include "plan/soa_transform.h"
#include "stream/admission.h"
#include "util/fault_inject.h"

namespace gus {

uint64_t ServedQueryFingerprint(const ServedQuery& query) {
  WireWriter w;
  w.PutString(query.plan->ToString());
  w.PutString(query.f_expr->ToString());
  EncodeGusParams(query.gus, &w);
  w.PutDouble(query.sbox.confidence_level);
  w.PutU8(static_cast<uint8_t>(query.sbox.bound_kind));
  w.PutU8(query.sbox.subsample.has_value() ? 1 : 0);
  if (query.sbox.subsample.has_value()) {
    w.PutI64(query.sbox.subsample->target_rows);
    w.PutU64(query.sbox.subsample->seed);
  }
  return WireChecksum(w.buffer());
}

WorkerDaemon::WorkerDaemon(Catalog catalog) : catalog_(std::move(catalog)) {}

WorkerDaemon::WorkerDaemon(std::unique_ptr<ColumnarCatalog> columnar)
    : columnar_(std::move(columnar)), external_columnar_(true) {}

WorkerDaemon::~WorkerDaemon() { Stop(); }

Status WorkerDaemon::RegisterQuery(const std::string& name,
                                   ServedQuery query) {
  if (listener_ != nullptr) {
    return Status::InvalidArgument(
        "RegisterQuery must run before Start (the warm-up covers "
        "registered queries)");
  }
  if (query.plan == nullptr || query.f_expr == nullptr) {
    return Status::InvalidArgument("ServedQuery needs a plan and an f_expr");
  }
  if (!queries_.emplace(name, std::move(query)).second) {
    return Status::InvalidArgument("query '" + name + "' already registered");
  }
  return Status::OK();
}

Result<Endpoint> WorkerDaemon::Start(const Endpoint& listen) {
  std::lock_guard<std::mutex> lock(mu_);
  if (listener_ != nullptr) {
    return Status::InvalidArgument("daemon already serving on " +
                                   endpoint_.ToString());
  }
  stopping_.store(false, std::memory_order_release);
  // Load once, serve many: the whole point of the daemon. The columnar
  // conversion, content fingerprints, and shard split geometry for every
  // registered query are computed here, serially, so request threads
  // afterwards share them read-only.
  if (!external_columnar_) {
    columnar_ = std::make_unique<ColumnarCatalog>(&catalog_);
  }
  plan_infos_.clear();
  for (const auto& [name, query] : queries_) {
    GUS_RETURN_NOT_OK(WarmCatalogForPlan(query.plan, columnar_.get()));
    ServePlanInfo info;
    GUS_ASSIGN_OR_RETURN(
        info.catalog_fingerprint,
        PlanCatalogFingerprint(query.plan, columnar_.get()));
    GUS_ASSIGN_OR_RETURN(
        ShardPlan sp,
        PlanShards(query.plan, columnar_.get(), ExecMode::kSampled,
                   ShardedExecOptions(ExecOptions{}), 1));
    info.partitionable = sp.split.partitionable;
    info.pivot_relation =
        sp.split.partitionable ? sp.split.pivot_relation : std::string();
    info.query_fingerprint = ServedQueryFingerprint(query);
    plan_infos_[name] = info;
  }
  GUS_ASSIGN_OR_RETURN(listener_, SocketListener::Listen(listen));
  endpoint_ = listener_->endpoint();
  // The accept thread holds the raw listener pointer: Stop() keeps the
  // object alive until after the join, so the pointer never dangles and
  // the thread never touches the (mutex-guarded) member.
  SocketListener* listener = listener_.get();
  accept_thread_ = std::thread([this, listener] { AcceptLoop(listener); });
  return endpoint_;
}

void WorkerDaemon::Stop() {
  stopping_.store(true, std::memory_order_release);
  std::unique_lock<std::mutex> lock(mu_);
  if (listener_ != nullptr) listener_->Close();
  // Closing sockets wakes every blocked reader; abrupt from the peer's
  // point of view — in-flight requests surface as mid-frame EOF, which is
  // exactly what a killed daemon looks like to the retry layer.
  for (auto& conn : connections_) {
    if (conn->socket != nullptr) conn->socket->Close();
  }
  std::thread accept = std::move(accept_thread_);
  std::vector<std::unique_ptr<LiveConnection>> conns =
      std::move(connections_);
  connections_.clear();
  // The listener object must outlive the accept thread (it may be blocked
  // inside Accept() on it); destroy it only after the join.
  std::unique_ptr<SocketListener> listener = std::move(listener_);
  lock.unlock();
  if (accept.joinable()) accept.join();
  for (auto& conn : conns) {
    if (conn->reader.joinable()) conn->reader.join();
  }
}

void WorkerDaemon::AcceptLoop(SocketListener* listener) {
  for (;;) {
    Result<std::unique_ptr<SocketConnection>> accepted = listener->Accept();
    if (!accepted.ok()) return;  // Close() ended the loop
    auto conn = std::make_unique<LiveConnection>();
    conn->socket = std::move(accepted).ValueOrDie();
    conn->write_mu = std::make_shared<std::mutex>();
    LiveConnection* raw = conn.get();
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopping_.load(std::memory_order_acquire)) {
        conn->socket->Close();
        return;
      }
      conn->reader = std::thread([this, raw] { ConnectionLoop(raw); });
      connections_.push_back(std::move(conn));
    }
  }
}

void WorkerDaemon::ConnectionLoop(LiveConnection* conn) {
  std::shared_ptr<SocketConnection> socket = conn->socket;
  std::shared_ptr<std::mutex> write_mu = conn->write_mu;
  // Answers `header` with `ok_type` and the answer's bytes, or with kError
  // and its Status (code intact, so the coordinator can classify it).
  const auto respond = [socket, write_mu](ServeHeader header, ServeMsg ok_type,
                                          const Result<std::string>& answer) {
    const std::string error =
        answer.ok() ? std::string() : StatusToBytes(answer.status());
    header.type = answer.ok() ? ok_type : ServeMsg::kError;
    const std::string_view body =
        answer.ok() ? std::string_view(answer.ValueOrDie()) : error;
    std::lock_guard<std::mutex> lock(*write_mu);
    // A failed response write means the connection died; the reader loop
    // notices on its next recv, so the error needs no separate handling.
    (void)socket->SendFrame(EncodeServeMessage(header, body));
  };
  for (;;) {
    bool clean_eof = false;
    Result<std::string> frame = socket->RecvFrame(&clean_eof);
    if (!frame.ok()) break;  // clean close and wire damage both end it
    Result<std::pair<ServeHeader, std::string_view>> decoded =
        DecodeServeMessage(frame.ValueOrDie());
    if (!decoded.ok()) {
      respond(ServeHeader{}, ServeMsg::kError, decoded.status());
      continue;
    }
    const ServeHeader header = decoded.ValueOrDie().first;
    const std::string body(decoded.ValueOrDie().second);
    switch (header.type) {
      case ServeMsg::kExecRequest: {
        // Each request gets its own worker thread: responses leave in
        // completion order, so one connection multiplexes sessions
        // without head-of-line blocking. Finished threads are joined
        // first; a raised flag means the join only waits for the exit.
        std::erase_if(conn->workers, [](RequestThread& worker) {
          if (!worker.done->load(std::memory_order_acquire)) return false;
          worker.thread.join();
          return true;
        });
        auto done = std::make_shared<std::atomic<bool>>(false);
        std::thread thread([this, header, body, respond, done] {
          Result<ExecShardRequest> req = ExecShardRequestFromBytes(body);
          respond(header, ServeMsg::kExecResponse,
                  req.ok() ? HandleExec(req.ValueOrDie())
                           : Result<std::string>(req.status()));
          done->store(true, std::memory_order_release);
        });
        conn->workers.push_back({std::move(thread), std::move(done)});
        break;
      }
      case ServeMsg::kPlanInfoRequest:
        respond(header, ServeMsg::kPlanInfoResponse, HandlePlanInfo(body));
        break;
      default:
        respond(header, ServeMsg::kError,
                Status::InvalidArgument(
                    "daemon cannot handle this message type"));
        break;
    }
  }
  for (RequestThread& worker : conn->workers) worker.thread.join();
}

Result<std::string> WorkerDaemon::HandleExec(const ExecShardRequest& req) {
  // The PR 8 fault site: GUS_FAULT="serve.execute[@shard]=..." can fail,
  // delay, or kill a daemon mid-request.
  GUS_RETURN_NOT_OK(
      FaultInjector::Global()->Hit("serve.execute", req.shard_index));
  auto it = queries_.find(req.query);
  if (it == queries_.end()) {
    return Status::InvalidArgument("query '" + req.query +
                                   "' is not registered with this daemon");
  }
  const ServedQuery& query = it->second;
  if (req.num_shards < 1 || req.shard_index < 0 ||
      req.shard_index >= req.num_shards) {
    return Status::InvalidArgument(
        "bad shard geometry: shard " + std::to_string(req.shard_index) +
        " of " + std::to_string(req.num_shards));
  }
  ExecOptions exec;
  exec.num_threads = req.num_threads < 1 ? 1 : req.num_threads;
  exec.morsel_rows = req.morsel_rows;
  const ExecOptions normalized = ShardedExecOptions(exec);

  PlanPtr plan = query.plan;
  GusParams gus = query.gus;
  if (req.admission_scale != 1.0) {
    if (!(req.admission_scale > 0.0 && req.admission_scale <= 1.0)) {
      return Status::InvalidArgument("admission scale must be in (0, 1]");
    }
    // Shed by design, not by dropping: shrink the sampling rates and
    // re-derive the top GUS so the estimate stays honest (stream/admission).
    GUS_ASSIGN_OR_RETURN(plan,
                         ScalePlanSamplingRates(plan, req.admission_scale));
    GUS_ASSIGN_OR_RETURN(SoaResult soa, SoaTransform(plan));
    gus = soa.top;
  }
  std::optional<uint64_t> expected;
  if (req.expected_catalog_fingerprint != 0) {
    expected = req.expected_catalog_fingerprint;
  }
  GUS_ASSIGN_OR_RETURN(
      std::string bundle,
      RunShardSbox(plan, columnar_.get(), req.seed, ExecMode::kSampled,
                   normalized, req.shard_index, req.num_shards, query.f_expr,
                   gus, query.sbox, expected));
  requests_served_.fetch_add(1, std::memory_order_relaxed);
  return bundle;
}

Result<std::string> WorkerDaemon::HandlePlanInfo(std::string_view body) {
  WireReader r(body);
  std::string name;
  GUS_RETURN_NOT_OK(r.ReadString(&name));
  GUS_RETURN_NOT_OK(r.ExpectEnd());
  auto it = plan_infos_.find(name);
  if (it == plan_infos_.end()) {
    return Status::InvalidArgument("query '" + name +
                                   "' is not registered with this daemon");
  }
  return ServePlanInfoToBytes(it->second);
}

}  // namespace gus
