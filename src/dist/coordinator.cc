#include "dist/coordinator.h"

#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "dist/worker.h"
#include "est/streaming.h"
#include "est/wire.h"
#include "plan/exec_stats.h"
#include "plan/parallel_executor.h"
#include "util/fault_inject.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace gus {

namespace {

/// The shared parse/validate step behind every (complete or partial)
/// gather: bundle bytes -> sections, with META recorded, the RNGS seed
/// fingerprint enforced, and a well-formed SMPL section appended.
Result<std::vector<WireSectionView>> ParseShardSections(
    std::string_view bundle, int shard_index, std::vector<ShardMeta>* metas,
    std::string* rng_fingerprint, std::vector<std::string>* sampler_payloads) {
  GUS_ASSIGN_OR_RETURN(std::vector<WireSectionView> sections,
                       ParseWireBundle(bundle));
  GUS_ASSIGN_OR_RETURN(WireSectionView meta_section,
                       FindWireSection(sections, WireTag::kMeta));
  GUS_ASSIGN_OR_RETURN(ShardMeta meta,
                       ShardMetaFromBytes(meta_section.payload));
  metas->push_back(meta);
  GUS_ASSIGN_OR_RETURN(WireSectionView rng_section,
                       FindWireSection(sections, WireTag::kRngState));
  if (rng_fingerprint->empty()) {
    rng_fingerprint->assign(rng_section.payload);
  } else if (rng_section.payload != *rng_fingerprint) {
    return Status::InvalidArgument(
        "shard " + std::to_string(shard_index) +
        " started from a different Rng stream than the first gathered "
        "shard (seed mismatch); refusing to merge");
  }
  // The SMPL section must parse (well-formedness); the cross-shard
  // equality check lives in ValidateShardSamplerStates so callers run it
  // once over the full gather.
  GUS_ASSIGN_OR_RETURN(WireSectionView sampler_section,
                       FindWireSection(sections, WireTag::kSamplerState));
  GUS_RETURN_NOT_OK(SamplerStateFromBytes(sampler_section.payload).status());
  sampler_payloads->emplace_back(sampler_section.payload);
  return sections;
}

/// Registry of attempt threads abandoned at their deadline. Leaked on
/// purpose: an orphan may still be running at process exit, and joining
/// it from a static destructor would re-introduce the unbounded wait the
/// deadline existed to remove.
std::mutex* OrphanMutex() {
  static auto* mu = new std::mutex;
  return mu;
}
std::vector<std::thread>* Orphans() {
  static auto* threads = new std::vector<std::thread>;
  return threads;
}

/// \brief Runs `fn` under a wall-clock deadline (0 = unbounded, inline).
///
/// On timeout the runner thread is abandoned into the orphan registry —
/// it only computes (never touches the transport), so a late finisher's
/// work is simply discarded; re-dispatch re-derives the identical bundle
/// from the same seed. A timeout is DeadlineExceeded, which the attempt
/// loop counts as a deadline hit.
Result<std::string> RunWithDeadline(int64_t deadline_ms,
                                    std::function<Result<std::string>()> fn) {
  if (deadline_ms <= 0) return fn();
  struct Slot {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    Result<std::string> result{Status::Internal("attempt did not run")};
  };
  auto slot = std::make_shared<Slot>();
  std::thread runner([slot, fn = std::move(fn)] {
    Result<std::string> r = fn();
    std::lock_guard<std::mutex> lock(slot->mu);
    slot->result = std::move(r);
    slot->done = true;
    slot->cv.notify_all();
  });
  std::unique_lock<std::mutex> lock(slot->mu);
  const bool done =
      slot->cv.wait_for(lock, std::chrono::milliseconds(deadline_ms),
                        [&] { return slot->done; });
  lock.unlock();
  if (done) {
    runner.join();
    return std::move(slot->result);
  }
  {
    std::lock_guard<std::mutex> guard(*OrphanMutex());
    Orphans()->push_back(std::move(runner));
  }
  return Status::DeadlineExceeded(
      "shard attempt exceeded its " + std::to_string(deadline_ms) +
      " ms deadline; abandoned for re-dispatch");
}

/// Deterministic exponential backoff before re-attempt `attempt` (2-based:
/// the first retry). Jitter comes from a forked stream keyed on
/// (shard, attempt), so a fixed fault plan replays the same schedule.
void SleepBackoff(const ShardRetryPolicy& retry, int64_t shard, int attempt) {
  if (retry.backoff_base_ms <= 0) return;
  const double scaled =
      static_cast<double>(retry.backoff_base_ms) *
      std::pow(retry.backoff_mult, static_cast<double>(attempt - 2));
  int64_t ms = std::min(static_cast<int64_t>(scaled), retry.backoff_max_ms);
  Rng jitter = Rng::ForkStream(retry.jitter_seed,
                               static_cast<uint64_t>(shard) * 64 +
                                   static_cast<uint64_t>(attempt));
  ms += static_cast<int64_t>(
      jitter.UniformInt(static_cast<uint64_t>(retry.backoff_base_ms) + 1));
  if (ms > 0) std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

/// \brief Folds verified shard bundles — all of them, or a survivors'
/// subset re-weighted through the shard-survival GUS (est/partial_gather).
///
/// `shard_ids`/`bundles` are parallel, ascending. `failed` carries
/// (shard, final error) for every shard that never delivered.
Result<FaultTolerantResult> FoldShardBundles(
    const std::vector<int>& shard_ids,
    const std::vector<const std::string*>& bundles, int num_shards,
    const std::string& pivot_relation,
    const std::vector<std::pair<int, std::string>>& failed, ExecStats* stats,
    bool capture_merged_state = false) {
  GUS_RETURN_NOT_OK(FaultInjector::Global()->Hit("coordinator.gather"));
  if (shard_ids.empty()) {
    return Status::Unavailable(
        "no shard delivered a bundle; nothing to estimate from");
  }
  std::vector<ShardMeta> metas;
  metas.reserve(shard_ids.size());
  std::vector<std::string> sampler_payloads;
  sampler_payloads.reserve(shard_ids.size());
  std::string rng_fingerprint;
  std::vector<StreamingSboxEstimator> states;
  states.reserve(shard_ids.size());
  for (size_t i = 0; i < shard_ids.size(); ++i) {
    GUS_ASSIGN_OR_RETURN(
        std::vector<WireSectionView> sections,
        ParseShardSections(*bundles[i], shard_ids[i], &metas,
                           &rng_fingerprint, &sampler_payloads));
    GUS_ASSIGN_OR_RETURN(WireSectionView state,
                         FindWireSection(sections, WireTag::kSboxState));
    GUS_ASSIGN_OR_RETURN(
        StreamingSboxEstimator est,
        StreamingSboxEstimator::DeserializeState(state.payload));
    states.push_back(std::move(est));
  }
  GUS_RETURN_NOT_OK(ValidateShardSamplerStates(sampler_payloads));
  // Shard-ordered merge of the delivered states, finished into `out`; the
  // degraded path below folds the per-shard states directly instead (it
  // needs the within-shard / cross-shard pair split the merge would erase).
  const auto finish_merged =
      [&](FaultTolerantResult out) -> Result<FaultTolerantResult> {
    StreamingSboxEstimator merged = std::move(states[0]);
    for (size_t i = 1; i < states.size(); ++i) {
      GUS_RETURN_NOT_OK(merged.Merge(std::move(states[i])));
    }
    // Captured *before* Finish: round-trip bit-exactness means a later
    // DeserializeState + Finish reproduces out.report to the last bit.
    if (capture_merged_state) out.merged_sbox_state = merged.SerializeState();
    GUS_ASSIGN_OR_RETURN(out.report, TimeEstimate(stats, [&merged] {
                           return merged.Finish();
                         }));
    return out;
  };

  if (static_cast<int>(shard_ids.size()) == num_shards) {
    GUS_RETURN_NOT_OK(ValidateShardMetas(metas));
    return finish_merged(FaultTolerantResult{});
  }

  GUS_RETURN_NOT_OK(ValidateSurvivingShardMetas(metas));
  const ShardMeta& first = metas[0];
  if (static_cast<int>(first.num_shards) != num_shards) {
    return Status::InvalidArgument(
        "surviving shards report num_shards = " +
        std::to_string(first.num_shards) + " but the gather expected " +
        std::to_string(num_shards));
  }
  const int64_t num_units = first.num_units;

  // The survival model counts *data-bearing* shards: losing a shard whose
  // canonical range is empty loses nothing and must not re-weight (the
  // estimate over the data-bearing shards is already complete). Ranges
  // are deterministic in (num_units, num_shards), so emptiness is a plan
  // property, never a data peek.
  int total_bearing = 0;
  int surviving_bearing = 0;
  int64_t surviving_units = 0;
  std::vector<size_t> bearing_state_index;
  {
    size_t s = 0;
    for (int k = 0; k < num_shards; ++k) {
      const ShardUnitRange range =
          CanonicalShardRange(num_units, num_shards, k);
      const bool bearing = range.unit_end > range.unit_begin;
      const bool survived =
          s < shard_ids.size() && shard_ids[s] == k ? (++s, true) : false;
      if (bearing) {
        ++total_bearing;
        if (survived) {
          ++surviving_bearing;
          surviving_units += range.unit_end - range.unit_begin;
          bearing_state_index.push_back(s - 1);
        }
      }
    }
  }

  FaultTolerantResult out;
  out.degradation.surviving_shards = static_cast<int>(shard_ids.size());
  out.degradation.total_shards = num_shards;
  out.degradation.surviving_units = surviving_units;
  out.degradation.total_units = num_units;
  for (const auto& [shard, message] : failed) {
    const ShardUnitRange range = CanonicalShardRange(num_units, num_shards, shard);
    if (range.unit_end > range.unit_begin) {
      out.degradation.lost_ranges.push_back(range);
    }
    out.degradation.failures.push_back("shard " + std::to_string(shard) +
                                       ": " + message);
  }
  out.degradation.effective_coverage =
      num_units > 0
          ? static_cast<double>(surviving_units) / static_cast<double>(num_units)
          : 1.0;

  if (surviving_bearing == total_bearing) {
    // Every lost shard had an empty range: the fold covers all units and
    // the complete estimate stands un-reweighted. (Tiling is implied:
    // survivors cover their canonical ranges and all bearing ranges
    // survived.)
    return finish_merged(std::move(out));
  }
  if (surviving_bearing == 0) {
    return Status::Unavailable(
        "every data-bearing shard was lost (" + std::to_string(num_units) +
        " units); no partial estimate is possible");
  }
  if (surviving_bearing < 2 && total_bearing >= 2) {
    return Status::Unavailable(
        "only 1 of " + std::to_string(total_bearing) +
        " data-bearing shards survived: cross-shard co-survival is "
        "impossible, so the pairwise variance (and any CI) would be "
        "fabricated; need >= 2 surviving shards for a degraded estimate");
  }
  GUS_ASSIGN_OR_RETURN(
      GusParams survival,
      ShardSurvivalGus(states[bearing_state_index[0]].design().schema(),
                       pivot_relation, surviving_bearing, total_bearing));
  // Only the bearing survivors enter the fold: empty shards carry no
  // segments or retained rows and are not part of the survival population.
  std::vector<StreamingSboxEstimator> bearing_states;
  bearing_states.reserve(bearing_state_index.size());
  for (size_t idx : bearing_state_index) {
    bearing_states.push_back(std::move(states[idx]));
  }
  GUS_ASSIGN_OR_RETURN(out.report, TimeEstimate(stats, [&] {
                         return StreamingSboxEstimator::FinishDegraded(
                             std::move(bearing_states), survival,
                             surviving_bearing, total_bearing);
                       }));
  out.degraded = true;
  out.live.pivot_relation = pivot_relation;
  out.live.total_shards = static_cast<uint32_t>(num_shards);
  out.live.total_units = num_units;
  for (int k : shard_ids) {
    out.live.surviving.push_back(CanonicalShardRange(num_units, num_shards, k));
  }
  return out;
}

}  // namespace

bool IsRetryableShardFailure(const Status& st) {
  switch (st.code()) {
    case StatusCode::kUnavailable:
    case StatusCode::kDeadlineExceeded:
    case StatusCode::kKeyError:  // a bundle that never arrived
      return true;
    default:
      return false;
  }
}

Result<std::string> RunShardAttempts(const ShardRetryPolicy& retry,
                                     int shard, const ShardAttempt& attempt,
                                     ShardAttemptCounters* counters) {
  Result<std::string> result = Status::Internal("no attempt ran");
  for (int n = 1; n <= retry.max_attempts; ++n) {
    if (n > 1) {
      counters->retries.fetch_add(1, std::memory_order_relaxed);
      SleepBackoff(retry, shard, n);
    }
    counters->attempts.fetch_add(1, std::memory_order_relaxed);
    result = attempt(shard);
    if (result.ok()) break;
    const Status st = result.status();
    if (st.code() == StatusCode::kDeadlineExceeded) {
      counters->deadline_hits.fetch_add(1, std::memory_order_relaxed);
    }
    // Fatal failures (divergent state) stop the loop: retrying identical
    // divergent inputs reproduces the identical mismatch.
    if (!IsRetryableShardFailure(st)) break;
  }
  return result;
}

Result<FaultTolerantResult> FoldShardOutcomes(
    const std::vector<Result<std::string>>& outcomes,
    const ShardAttemptCounters& counters, bool allow_partial,
    const std::string& pivot_relation, ExecStats* stats,
    bool capture_merged_state) {
  const int num_shards = static_cast<int>(outcomes.size());
  std::vector<int> shard_ids;
  std::vector<const std::string*> bundles;
  std::vector<std::pair<int, std::string>> failed;
  int fatal_shard = -1;
  for (int k = 0; k < num_shards; ++k) {
    const Result<std::string>& outcome = outcomes[static_cast<size_t>(k)];
    if (outcome.ok()) {
      shard_ids.push_back(k);
      bundles.push_back(&outcome.ValueOrDie());
      continue;
    }
    if (fatal_shard < 0 && !IsRetryableShardFailure(outcome.status())) {
      fatal_shard = k;
    }
    failed.emplace_back(k, outcome.status().ToString());
  }
  if (stats != nullptr) {
    stats->shard_attempts = counters.attempts.load(std::memory_order_relaxed);
    stats->shard_retries = counters.retries.load(std::memory_order_relaxed);
    stats->shard_deadline_hits =
        counters.deadline_hits.load(std::memory_order_relaxed);
    stats->shards_lost = static_cast<int64_t>(failed.size());
  }
  // Never degrade around divergent state, whatever allow_partial says: the
  // survivors' fold would be a plausible answer hiding a configuration bug.
  if (fatal_shard >= 0) {
    return outcomes[static_cast<size_t>(fatal_shard)].status();
  }
  if (!failed.empty() && !allow_partial) {
    const auto& [shard, message] = failed.front();
    return Status::Unavailable(
        "shard " + std::to_string(shard) +
        " exhausted its retry budget and allow_partial is not set: " +
        message);
  }
  GUS_ASSIGN_OR_RETURN(
      FaultTolerantResult result,
      FoldShardBundles(shard_ids, bundles, num_shards, pivot_relation, failed,
                       stats, capture_merged_state && failed.empty()));
  if (stats != nullptr) {
    stats->degraded = result.degraded;
    stats->effective_coverage =
        result.degraded ? result.degradation.effective_coverage : 1.0;
  }
  return result;
}

void JoinAbandonedShardAttempts() {
  FaultInjector::Global()->ReleaseHangs();
  std::vector<std::thread> take;
  {
    std::lock_guard<std::mutex> guard(*OrphanMutex());
    take.swap(*Orphans());
  }
  for (std::thread& t : take) t.join();
}

Result<std::vector<WireSectionView>> ReceiveShardSections(
    ShardTransport* transport, int shard_index, std::vector<ShardMeta>* metas,
    std::string* rng_fingerprint, std::vector<std::string>* sampler_payloads,
    std::string* bundle_storage) {
  GUS_ASSIGN_OR_RETURN(*bundle_storage, transport->Receive(shard_index));
  return ParseShardSections(*bundle_storage, shard_index, metas,
                            rng_fingerprint, sampler_payloads);
}

Status ValidateShardSamplerStates(
    const std::vector<std::string>& sampler_payloads) {
  for (size_t k = 1; k < sampler_payloads.size(); ++k) {
    if (sampler_payloads[k] != sampler_payloads[0]) {
      return Status::InvalidArgument(
          "shard " + std::to_string(k) +
          " resolved different fixed-size sampler draws than shard 0 "
          "(SMPL fingerprint mismatch); refusing to merge");
    }
  }
  return Status::OK();
}

Result<FaultTolerantResult> GatherSboxEstimatePartial(
    ShardTransport* transport, int num_shards,
    const std::string& pivot_relation, bool allow_partial) {
  if (num_shards < 1) {
    return Status::InvalidArgument("num_shards must be >= 1");
  }
  std::vector<Result<std::string>> outcomes;
  outcomes.reserve(static_cast<size_t>(num_shards));
  for (int k = 0; k < num_shards; ++k) {
    outcomes.push_back(transport->Receive(k));
    // Without acknowledgement, a missing bundle fails the gather as itself.
    if (!allow_partial) GUS_RETURN_NOT_OK(outcomes.back().status());
  }
  return FoldShardOutcomes(outcomes, ShardAttemptCounters{}, allow_partial,
                           pivot_relation, /*stats=*/nullptr);
}

Result<SboxReport> GatherSboxEstimate(ShardTransport* transport,
                                      int num_shards) {
  GUS_ASSIGN_OR_RETURN(
      FaultTolerantResult result,
      GatherSboxEstimatePartial(transport, num_shards, /*pivot_relation=*/"",
                                /*allow_partial=*/false));
  return result.report;
}

namespace {

/// \brief The in-process supervisor behind both one-call scatters: every
/// shard runs the attempt loop on the shared pool, and the outcomes go
/// through the fold policy.
///
/// One attempt runs the worker under `exec.retry.deadline_ms`, sends the
/// bundle, and reads it back. Attempts abandoned at their deadline keep
/// `columnar` alive through shared ownership (the base Catalog itself must
/// outlive them; see JoinAbandonedShardAttempts).
Result<FaultTolerantResult> ScatterInProcess(
    const PlanPtr& plan, std::shared_ptr<ColumnarCatalog> columnar,
    uint64_t seed, ExecMode mode, const ExecOptions& exec, int num_shards,
    const ExprPtr& f_expr, const GusParams& gus, const SboxOptions& options,
    ShardTransport* transport) {
  if (num_shards < 1) {
    return Status::InvalidArgument("num_shards must be >= 1");
  }
  LocalTransport local;
  if (transport == nullptr) transport = &local;
  GUS_RETURN_NOT_OK(WarmCatalogForPlan(plan, columnar.get()));
  GUS_ASSIGN_OR_RETURN(const uint64_t expected_fingerprint,
                       PlanCatalogFingerprint(plan, columnar.get()));
  // Only a partial fold reads the pivot relation (it decides which row
  // pairs one lost shard takes together).
  std::string pivot_relation;
  if (exec.allow_partial) {
    GUS_ASSIGN_OR_RETURN(ShardPlan sp,
                         PlanShards(plan, columnar.get(), mode,
                                    ShardedExecOptions(exec), num_shards));
    if (sp.split.partitionable) pivot_relation = sp.split.pivot_relation;
  }

  // Workers must not share the caller's ExecStats (concurrent shards — and
  // abandoned attempts possibly outliving this call — would race on it).
  ExecOptions worker_exec = exec;
  worker_exec.stats = nullptr;
  const ShardAttempt attempt = [&](int k) -> Result<std::string> {
    GUS_ASSIGN_OR_RETURN(
        std::string bundle,
        RunWithDeadline(exec.retry.deadline_ms,
                        [plan, columnar, seed, mode, worker_exec, k,
                         num_shards, f_expr, gus, options,
                         expected_fingerprint] {
                          return RunShardSbox(plan, columnar.get(), seed, mode,
                                              worker_exec, k, num_shards,
                                              f_expr, gus, options,
                                              expected_fingerprint);
                        }));
    GUS_RETURN_NOT_OK(transport->Send(k, std::move(bundle)));
    // Verification read-back: wire damage (drop/corrupt/truncate) surfaces
    // here, while the attempt loop can still re-dispatch the shard.
    return transport->Receive(k);
  };

  std::vector<Result<std::string>> outcomes(
      static_cast<size_t>(num_shards),
      Result<std::string>(Status::Internal("shard was never attempted")));
  ShardAttemptCounters counters;
  {
    PoolLease pool(std::min(num_shards, ThreadPool::HardwareThreads()));
    pool->ParallelFor(num_shards, [&](int64_t k) {
      outcomes[static_cast<size_t>(k)] = RunShardAttempts(
          exec.retry, static_cast<int>(k), attempt, &counters);
    });
  }
  return FoldShardOutcomes(outcomes, counters, exec.allow_partial,
                           pivot_relation, exec.stats);
}

}  // namespace

Result<FaultTolerantResult> FaultTolerantShardedSboxEstimate(
    const PlanPtr& plan, const Catalog& catalog, uint64_t seed, ExecMode mode,
    const ExecOptions& exec, int num_shards, const ExprPtr& f_expr,
    const GusParams& gus, const SboxOptions& options,
    ShardTransport* transport) {
  GUS_RETURN_NOT_OK(exec.Validate());
  if (exec.stats != nullptr) exec.stats->Reset();
  Result<FaultTolerantResult> result = ScatterInProcess(
      plan, std::make_shared<ColumnarCatalog>(&catalog), seed, mode, exec,
      num_shards, f_expr, gus, options, transport);
  if (exec.stats != nullptr && ProfileEnvEnabled()) {
    std::fputs(exec.stats->ToString("sharded-ft").c_str(), stderr);
  }
  return result;
}

Result<SboxReport> ShardedSboxEstimateOverCatalog(
    const PlanPtr& plan, ColumnarCatalog* columnar_catalog, uint64_t seed,
    ExecMode mode, const ExecOptions& exec, int num_shards,
    const ExprPtr& f_expr, const GusParams& gus, const SboxOptions& options,
    ShardTransport* transport) {
  // One attempt, no deadline, no partial fold. With no deadline nothing
  // outlives this call, so the caller's catalog is borrowed, not owned.
  ExecOptions once = exec;
  once.retry = ShardRetryPolicy{};
  once.retry.max_attempts = 1;
  once.allow_partial = false;
  once.stats = nullptr;
  GUS_ASSIGN_OR_RETURN(
      FaultTolerantResult result,
      ScatterInProcess(
          plan, std::shared_ptr<ColumnarCatalog>(std::shared_ptr<void>(),
                                                 columnar_catalog),
          seed, mode, once, num_shards, f_expr, gus, options, transport));
  return result.report;
}

Result<SboxReport> ShardedSboxEstimate(const PlanPtr& plan,
                                       const Catalog& catalog, uint64_t seed,
                                       ExecMode mode, const ExecOptions& exec,
                                       int num_shards, const ExprPtr& f_expr,
                                       const GusParams& gus,
                                       const SboxOptions& options,
                                       ShardTransport* transport) {
  // In-process workers share one columnar catalog: its conversion and
  // fingerprint caches are pre-warmed serially, after which concurrent
  // workers only read it — real multi-process workers each hold their
  // own, which changes nothing observable.
  ColumnarCatalog columnar(&catalog);
  return ShardedSboxEstimateOverCatalog(plan, &columnar, seed, mode, exec,
                                        num_shards, f_expr, gus, options,
                                        transport);
}

Result<ColumnarRelation> ExecutePlanSharded(const PlanPtr& plan,
                                            ColumnarCatalog* catalog,
                                            Rng* rng, ExecMode mode,
                                            const ExecOptions& options) {
  GUS_RETURN_NOT_OK(options.Validate());
  const ExecOptions normalized = ShardedExecOptions(options);
  GUS_RETURN_NOT_OK(WarmCatalogForPlan(plan, catalog));
  GUS_ASSIGN_OR_RETURN(
      ShardPlan sp,
      PlanShards(plan, catalog, mode, normalized, options.num_shards));
  // Every shard starts from the identical stream position; shard 0 runs on
  // the caller's generator so `rng` advances exactly as one full morsel
  // run would (serial prepare + the stream-base draw). Shards execute
  // concurrently — each on its own generator copy — and their relations
  // concatenate in shard order.
  const Rng initial = *rng;
  const int num_shards = static_cast<int>(sp.shards.size());
  std::vector<Rng> worker_rngs(static_cast<size_t>(num_shards), initial);
  std::vector<Result<ColumnarRelation>> parts(
      static_cast<size_t>(num_shards),
      Result<ColumnarRelation>(Status::Internal("shard did not run")));
  {
    PoolLease pool(std::min(num_shards, ThreadPool::HardwareThreads()));
    pool->ParallelFor(num_shards, [&](int64_t k) {
      const ShardSpec& spec = sp.shards[static_cast<size_t>(k)];
      Rng* use = spec.shard_index == 0 ? rng : &worker_rngs[k];
      parts[static_cast<size_t>(k)] =
          ExecutePlanMorselRange(plan, catalog, use, mode, normalized,
                                 spec.unit_begin, spec.unit_end);
    });
  }
  std::optional<ColumnarRelation> merged;
  for (int k = 0; k < num_shards; ++k) {
    GUS_RETURN_NOT_OK(parts[k].status());
    ColumnarRelation part = std::move(parts[k]).ValueOrDie();
    if (!merged.has_value()) {
      merged.emplace(std::move(part));
    } else {
      merged->AppendBatch(part.data());
    }
  }
  return std::move(merged).value();
}

}  // namespace gus
