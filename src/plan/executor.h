// Plan execution over an in-memory catalog.
//
// The engine is chosen in one place, the sink-driven front door
// ExecutePlanToSink (plan/columnar_executor.h); ExecutePlan is its
// relation-collecting caller (and the direct entry to the row oracle).
//
// Two modes:
//   * sampled — sample nodes run their physical sampler (the plan as the
//     user wrote it),
//   * exact   — sample nodes are skipped, yielding the ground-truth result
//     used by tests and experiments.

#ifndef GUS_PLAN_EXECUTOR_H_
#define GUS_PLAN_EXECUTOR_H_

#include <map>
#include <string>

#include "plan/plan_node.h"
#include "rel/relation.h"
#include "util/random.h"
#include "util/status.h"

namespace gus {

/// Base relations by name.
using Catalog = std::map<std::string, Relation>;

/// Execution mode: run samplers or skip them.
enum class ExecMode { kSampled, kExact };

/// \brief Which physical engine runs the plan.
///
/// kRowAtATime and kColumnar draw their samples through the shared
/// index-selection core (sampling/samplers.h) and consume the Rng in the
/// same order, so for a given (plan, catalog, seed, mode) they produce
/// identical rows and lineage — the columnar engine just gets there without
/// materializing row-at-a-time intermediates (see
/// plan/columnar_executor.h).
///
/// kMorselParallel splits one base scan into fixed-size morsels and runs
/// the columnar pipeline per partition (see plan/parallel_executor.h).
/// Every sampling operator is a partition-aware pivot: fixed-size (WOR /
/// WR) and block samplers adjacent to their scan are seed-decoupled (one
/// Rng draw, then pure functions of (seed, row/block)), unions partition
/// by lineage with per-slice dedup, and plain Bernoulli draws from
/// independently forked per-morsel streams. Plans whose Rng consumers are
/// all seed-decoupled or Rng-free reproduce the serial engines' rows BIT
/// FOR BIT — except union output, which is the identical multiset but
/// interleaves the branches per morsel slice instead of emitting all
/// left-branch rows first; plain Bernoulli keeps the same design with a
/// different (equally valid) draw. Either way the result is
/// bit-deterministic in
/// (plan, catalog, seed) and — because the morsel split and merge order
/// never depend on the worker count — identical across num_threads
/// values.
///
/// Shared-nothing execution is not an engine: a shard is a contiguous
/// range of kMorselParallel's global unit sequence, run by the worker
/// entry point RunShardSbox (src/dist/) and folded in shard order by
/// ShardedSboxEstimate or the serving layer (src/serve/). Because the unit
/// split, per-unit Rng streams, and merge order are all shard-count
/// independent, every shard count reproduces kMorselParallel's bits at the
/// same (seed, morsel_rows).
///
/// kServed is the estimator-only serving engine (sqlish RunApproxQuery):
/// kMorselParallel at pinned morsel geometry (ShardedExecOptions) fronted
/// by the approximate-view cache (serve/view_cache.h) — a repeated
/// (query, catalog content, seed, morsel geometry) answers from cached
/// merged builder state, executing nothing, with the identical result
/// bits. The front door rejects it.
enum class ExecEngine {
  kRowAtATime,
  kColumnar,
  kMorselParallel,
  kServed,
};

struct ExecStats;  // plan/exec_stats.h

/// Default rows per columnar pipeline batch.
inline constexpr int64_t kDefaultBatchRows = 2048;

/// Fallback rows per parallel-execution morsel (used by callers that want
/// a fixed, thread-count-independent split without auto sizing).
inline constexpr int64_t kDefaultMorselRows = 32768;

/// Clamp bounds for auto morsel sizing (ExecOptions::morsel_rows == 0).
inline constexpr int64_t kMinAutoMorselRows = 8192;
inline constexpr int64_t kMaxAutoMorselRows = 131072;

/// \brief Per-shard retry discipline for the fault-tolerant scatter/gather
/// (dist/coordinator.h, FaultTolerantShardedSboxEstimate).
///
/// A shard attempt that fails *retryably* (Unavailable / DeadlineExceeded /
/// a missing bundle — lost workers, torn transport frames, deadlines) is
/// re-dispatched up to max_attempts times with exponential backoff; fatal
/// failures (InvalidArgument: seed/catalog/wire-version divergence) are
/// never retried, because re-executing identical divergent state cannot
/// succeed. Backoff jitter is drawn from Rng::ForkStream(jitter_seed,
/// shard*64 + attempt) — deterministic, so a fixed fault plan produces the
/// identical retry schedule on every run. Retries cannot change results:
/// a shard's unit range re-executes bit-reproducibly from the same seed
/// (plan/parallel_executor.h), so a successful retry is byte-identical to
/// an untroubled first attempt.
struct ShardRetryPolicy {
  /// Total attempts per shard (1 = no retry).
  int max_attempts = 3;
  /// Per-attempt wall-clock deadline, ms; 0 = unbounded. An attempt past
  /// its deadline is abandoned (counted in ExecStats::shard_deadline_hits)
  /// and the shard re-dispatched.
  int64_t deadline_ms = 0;
  /// Backoff before re-attempt i (1-based): min(base * mult^(i-1), max)
  /// plus up to one base of deterministic jitter, ms.
  int64_t backoff_base_ms = 1;
  double backoff_mult = 2.0;
  int64_t backoff_max_ms = 100;
  /// Stream seed for the deterministic backoff jitter.
  uint64_t jitter_seed = 0x9E3779B97F4A7C15ull;

  Status Validate() const {
    if (max_attempts < 1) {
      return Status::InvalidArgument(
          "ShardRetryPolicy::max_attempts must be >= 1");
    }
    if (deadline_ms < 0 || backoff_base_ms < 0 || backoff_max_ms < 0) {
      return Status::InvalidArgument(
          "ShardRetryPolicy durations must be >= 0");
    }
    if (backoff_mult < 1.0) {
      return Status::InvalidArgument(
          "ShardRetryPolicy::backoff_mult must be >= 1");
    }
    return Status::OK();
  }
};

/// \brief Execution knobs shared by every engine entry point.
///
/// Orthogonal to every knob here, the hot inner loops (predicate eval,
/// key hashing, join-pair recheck, gathers, Bernoulli keep-masks) run
/// through runtime-dispatched SIMD kernels (src/kernels/simd/): the best
/// tier the CPU supports — scalar, AVX2, or AVX-512 — is selected once at
/// startup and can be forced *down* with the GUS_SIMD environment
/// variable (scalar|avx2|avx512; requests above the detected tier clamp
/// with a one-time stderr note). The tiers are bit-identical by
/// construction, so GUS_SIMD never changes any estimate, row, or digest —
/// only the speed. It is an environment variable rather than an option
/// here precisely because no result can depend on it.
struct ExecOptions {
  ExecEngine engine = ExecEngine::kRowAtATime;
  /// Worker threads for kMorselParallel (ignored by the serial engines).
  int num_threads = 1;
  /// Rows per columnar pipeline batch (>= 1).
  int64_t batch_rows = kDefaultBatchRows;
  /// \brief Rows per morsel for kMorselParallel.
  ///
  /// 0 (the default) sizes morsels automatically: at least four morsels
  /// per worker for scheduling slack, shrunk until one morsel's weighted
  /// working set (pivot row bytes x plan cost weight) fits a ~2 MiB cache
  /// budget, clamped to [kMinAutoMorselRows, kMaxAutoMorselRows]. An
  /// explicit value >= 1 is authoritative and part of the result's
  /// identity: it fixes which forked Rng stream draws each row, making
  /// results reproducible across thread counts — auto-sized runs
  /// reproduce only at a fixed num_threads, because the heuristic reads
  /// it (the pivot layout and plan shape it also reads are fixed for a
  /// given query).
  int64_t morsel_rows = 0;
  /// \brief Optional execution profile output (not owned; may be null).
  ///
  /// When set, the front door Reset()s it and the morsel engine fills it
  /// with per-phase wall times and work counters (see plan/exec_stats.h),
  /// estimating callers add the estimate time. Never read by
  /// the execution logic, so it cannot change any result. The GUS_PROFILE
  /// environment variable additionally dumps the same profile to stderr
  /// whether or not this is set.
  ExecStats* stats = nullptr;
  /// Retry/deadline/backoff discipline for fault-tolerant sharded runs
  /// (read only by FaultTolerantShardedSboxEstimate).
  ShardRetryPolicy retry;
  /// \brief Acknowledges statistical degradation: when shards are lost
  /// past their retry budget, fold the survivors through the
  /// est/partial_gather re-weighting (unbiased estimate, honestly wider
  /// CI, DegradedReport attached) instead of failing the query.
  ///
  /// Defaults to false — partial answers are opt-in, never silent.
  bool allow_partial = false;
  /// \brief Zone-map / keep-set segment skipping for segment-backed pivot
  /// scans (store/pruner.h).
  ///
  /// Skipping operates at whole-morsel granularity and never changes any
  /// result bit (a skipped unit folds an untouched sink, exactly what an
  /// executed unit with zero surviving rows folds); this knob exists for
  /// A/B measurement, not correctness.
  bool prune_segments = true;

  Status Validate() const {
    if (batch_rows < 1) {
      return Status::InvalidArgument("ExecOptions::batch_rows must be >= 1");
    }
    if (morsel_rows < 0) {
      return Status::InvalidArgument(
          "ExecOptions::morsel_rows must be >= 1, or 0 for auto sizing");
    }
    if (num_threads < 1) {
      return Status::InvalidArgument("ExecOptions::num_threads must be >= 1");
    }
    GUS_RETURN_NOT_OK(retry.Validate());
    return Status::OK();
  }
};

/// \brief Executes `plan` against `catalog`.
///
/// `rng` drives every sampler in the plan (ignored in exact mode). Join
/// nodes use the hash equi-join; product and union use their respective
/// physical operators. kRowAtATime returns the row oracle's relation;
/// every other engine runs through ExecutePlanToSink into sinks that
/// collect per-morsel parts, concatenated once at the end. Each such call
/// builds a throwaway ColumnarCatalog, but the base relations' columnar
/// forms are memoized by the relations themselves (Relation::Columnar),
/// so repeated queries convert each one only once. Callers wanting to
/// stream hold a ColumnarCatalog and call ExecutePlanToSink directly.
Result<Relation> ExecutePlan(const PlanPtr& plan, const Catalog& catalog,
                             Rng* rng, ExecMode mode = ExecMode::kSampled,
                             ExecEngine engine = ExecEngine::kRowAtATime);

/// Full-options overload: engine, thread count, and batch/morsel sizing all
/// come from `options`.
Result<Relation> ExecutePlan(const PlanPtr& plan, const Catalog& catalog,
                             Rng* rng, ExecMode mode,
                             const ExecOptions& options);

}  // namespace gus

#endif  // GUS_PLAN_EXECUTOR_H_
