// Gather coordination for shared-nothing distributed estimation.
//
// The coordinator never sees tuples — only the serialized partial
// estimator states the shard workers produced (dist/worker.h). Gathering
// is: receive bundle k for k = 0..N-1 from a ShardTransport, validate the
// META/RNGS consistency fingerprints, deserialize, and fold the states in
// ascending shard (= global unit) order with the est/ Merge family. The
// ordered fold is what makes the result bit-identical to a single-process
// run: merge order is part of the floating-point result's identity.
//
// Every scatter runs under one shard supervisor, defined here: the
// per-shard attempt loop (RunShardAttempts: classify, back off, re-attempt,
// count) and the outcome policy (FoldShardOutcomes: propagate a fatal
// failure, refuse or degrade over lost shards, fold, fill ExecStats). A
// caller supplies only the shard attempt and the scheduling — the
// in-process entry points below run RunShardSbox on the shared pool, and
// the serving layer's SessionCoordinator (serve/session.h) runs one
// DaemonChannel::Call per attempt on one thread per shard.
//
// ShardedSboxEstimate is the one-call form (scatter in-process workers,
// gather, finish); GatherSboxEstimate is the half the coordinator of a
// multi-process deployment runs after external workers populated the
// transport (see examples/sharded_estimate.cc for both shapes).

#ifndef GUS_DIST_COORDINATOR_H_
#define GUS_DIST_COORDINATOR_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "algebra/gus_params.h"
#include "dist/shard.h"
#include "dist/transport.h"
#include "est/partial_gather.h"
#include "est/sbox.h"
#include "est/wire.h"
#include "plan/columnar_executor.h"
#include "plan/executor.h"
#include "rel/expression.h"
#include "util/status.h"

namespace gus {

/// \brief Cross-shard equality of the SMPL resolved-sampler payloads
/// (index order, shard 0 as the reference).
///
/// Every shard filters its unit slices against the same global fixed-size
/// draws; divergent resolutions mean the merged sample would be neither
/// shard's design, so the gather refuses.
Status ValidateShardSamplerStates(
    const std::vector<std::string>& sampler_payloads);

/// \brief Receives and merges `num_shards` SBox shard bundles from
/// `transport` (shards 0..N-1, merged in that order) and finishes the
/// estimation.
///
/// Fails loudly on missing shards, corrupt or version-skewed bundles, and
/// on any consistency-fingerprint mismatch (divergent seed, catalog, or
/// shard plan) — merging incompatible partial states would silently bias
/// the estimate, so nothing is ever skipped or coerced.
Result<SboxReport> GatherSboxEstimate(ShardTransport* transport,
                                      int num_shards);

/// \brief One-call scatter/gather: runs every shard worker in-process
/// (concurrently, each from its own Rng(seed)) through `transport` —
/// defaulting to a process-local mailbox when null — then gathers.
///
/// The shard supervisor with one attempt per shard, no deadline, and no
/// partial fold: a fatal failure propagates with its own code, any other
/// fails the estimate as Unavailable.
///
/// For a fixed (plan, catalog, seed, morsel_rows) the report is
/// bit-identical across num_shards AND to EstimatePlanParallel at the
/// same options: shards are contiguous ranges of the same global unit
/// sequence, merged in the same order.
Result<SboxReport> ShardedSboxEstimate(const PlanPtr& plan,
                                       const Catalog& catalog, uint64_t seed,
                                       ExecMode mode, const ExecOptions& exec,
                                       int num_shards, const ExprPtr& f_expr,
                                       const GusParams& gus,
                                       const SboxOptions& options,
                                       ShardTransport* transport = nullptr);

/// \brief ShardedSboxEstimate over an externally owned columnar catalog —
/// the out-of-core form (hand it a SegmentCatalog and shards stream
/// segments through the pinned cache instead of materializing the base
/// data). Bit-identical to the row-catalog form holding the same rows:
/// the fingerprints come from the same ContentFingerprint chain.
Result<SboxReport> ShardedSboxEstimateOverCatalog(
    const PlanPtr& plan, ColumnarCatalog* columnar_catalog, uint64_t seed,
    ExecMode mode, const ExecOptions& exec, int num_shards,
    const ExprPtr& f_expr, const GusParams& gus, const SboxOptions& options,
    ShardTransport* transport = nullptr);

/// \brief True for failures a retry can fix: lost workers, torn/missing
/// transport frames (Unavailable), and elapsed deadlines.
///
/// Divergent-state failures (InvalidArgument: seed, catalog-fingerprint,
/// or wire-version skew; SMPL divergence) are fatal — re-executing the
/// same divergent inputs reproduces the same mismatch, so retrying them
/// only hides a configuration bug behind latency. So is KeyError (a
/// relation missing from the catalog): no retry can make it appear.
bool IsRetryableShardFailure(const Status& st);

/// \brief One shard attempt: shard `shard`'s verified bundle bytes, or
/// the failure the attempt loop classifies.
using ShardAttempt = std::function<Result<std::string>(int shard)>;

/// \brief Retry counters of one scatter, shared by the attempt loops of
/// all its shards (which run concurrently).
struct ShardAttemptCounters {
  std::atomic<int64_t> attempts{0};
  std::atomic<int64_t> retries{0};
  /// Attempts that failed DeadlineExceeded.
  std::atomic<int64_t> deadline_hits{0};
};

/// \brief The one per-shard attempt loop.
///
/// Runs `attempt(shard)` up to `retry.max_attempts` times (the policy must
/// be valid: ShardRetryPolicy::Validate). A success or a fatal failure
/// (IsRetryableShardFailure false) ends the loop; a retryable failure
/// sleeps the deterministic backoff — exponential, plus jitter forked on
/// (shard, attempt), so a fixed fault plan replays the same schedule — and
/// re-attempts. Returns the last attempt's result.
Result<std::string> RunShardAttempts(const ShardRetryPolicy& retry,
                                     int shard, const ShardAttempt& attempt,
                                     ShardAttemptCounters* counters);

/// \brief Outcome of a fault-tolerant estimate: the report, plus — iff the
/// gather had to degrade — the acknowledgement payload describing what
/// was lost.
struct FaultTolerantResult {
  SboxReport report;
  /// True when the report folds only a subset of the shards (unbiased,
  /// re-weighted, CI widened; see est/partial_gather.h).
  bool degraded = false;
  /// Meaningful iff degraded.
  DegradedReport degradation;
  /// Meaningful iff degraded: the WireTag::kSurvivingRanges payload that
  /// makes a cached partial result self-describing.
  SurvivingRangesInfo live;
  /// \brief Filled only when the fold was asked to capture it (see
  /// FoldShardOutcomes) AND the gather was complete: the merged
  /// (pre-Finish) StreamingSboxEstimator state.
  ///
  /// Round-trip bit-exactness (est/streaming.h) makes Finish over the
  /// deserialized state reproduce `report` to the last bit — this is
  /// what an approximate-view cache stores. Never captured for degraded
  /// folds: a cache must not immortalize an outage.
  std::string merged_sbox_state;
};

/// \brief GatherSboxEstimate that can degrade: with `allow_partial`, the
/// received bundles go through FoldShardOutcomes, so missing or retryably
/// damaged ones are folded around (unbiased, honestly wider CI) and fatal
/// ones still propagate. Without it, the first failed Receive fails the
/// gather with its own code, exactly like GatherSboxEstimate.
///
/// `pivot_relation` is the plan's partitioned scan (MorselSplit::
/// pivot_relation; "" for non-partitionable plans) — it determines which
/// lineage agreement sets pin a pair of rows to one shard.
Result<FaultTolerantResult> GatherSboxEstimatePartial(
    ShardTransport* transport, int num_shards,
    const std::string& pivot_relation, bool allow_partial);

/// \brief The one outcome-to-fold policy: `outcomes[k]` is shard k's
/// result from RunShardAttempts.
///
/// A fatal failure propagates with its own code, regardless of
/// `allow_partial` — degrading around divergent state would hide a
/// configuration bug. Shards that exhausted their retry budget fail the
/// query as Unavailable (naming allow_partial) unless `allow_partial` is
/// set; then the survivors fold through est/partial_gather (or the fold
/// fails when a CI would be fabricated). A complete set folds exactly like
/// GatherSboxEstimate. `stats`, when set, receives the counters, the lost
/// shards, the degradation and the estimator Finish time (estimate_ms; it
/// is not reset). With
/// `capture_merged_state`, a complete fold also serializes the merged
/// pre-Finish estimator state into FaultTolerantResult::merged_sbox_state
/// (the view-cache payload). Every supervisor folding through this one
/// policy is what makes a served gather bit-identical to the one-shot
/// kSharded gather by construction.
Result<FaultTolerantResult> FoldShardOutcomes(
    const std::vector<Result<std::string>>& outcomes,
    const ShardAttemptCounters& counters, bool allow_partial,
    const std::string& pivot_relation, ExecStats* stats,
    bool capture_merged_state = false);

/// \brief The fault-tolerant one-call scatter/gather.
///
/// The shard supervisor under `exec.retry` over in-process workers: each
/// attempt runs the shard's unit range under the per-attempt deadline
/// (attempts past it are abandoned and the shard re-dispatched — the range
/// re-executes bit-reproducibly from the same seed) and verifies the
/// bundle by reading it back through `transport` (defaulting to a
/// process-local mailbox), so wire damage is caught while the shard can
/// still be re-sent. Lost shards follow FoldShardOutcomes under
/// `exec.allow_partial`; `exec.stats`, when set, is reset and receives the
/// retry/degradation counters. With no faults the report is bit-identical
/// to ShardedSboxEstimate.
Result<FaultTolerantResult> FaultTolerantShardedSboxEstimate(
    const PlanPtr& plan, const Catalog& catalog, uint64_t seed, ExecMode mode,
    const ExecOptions& exec, int num_shards, const ExprPtr& f_expr,
    const GusParams& gus, const SboxOptions& options,
    ShardTransport* transport = nullptr);

/// \brief Joins shard attempt threads abandoned at their deadline (first
/// releasing any injected hangs so they can finish).
///
/// Abandoned attempts still reference the query's plan and catalog; call
/// this before tearing those down (tests and long-lived coordinators do;
/// short-lived processes can rely on exit). Idempotent.
void JoinAbandonedShardAttempts();

}  // namespace gus

#endif  // GUS_DIST_COORDINATOR_H_
