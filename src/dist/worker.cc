#include "dist/worker.h"

#include <memory>
#include <utility>
#include <vector>

#include "est/streaming.h"
#include "est/wire.h"
#include "plan/parallel_executor.h"
#include "util/fault_inject.h"
#include "util/random.h"

namespace gus {

namespace {

/// Prefixes a worker-side failure with its shard id and site so the
/// coordinator's retry logic (and its logs) can attribute every error to
/// one shard attempt without parsing message text heuristically.
Status AnnotateShard(Status st, int shard_index, const char* site) {
  if (st.ok()) return st;
  const std::string msg = "[shard " + std::to_string(shard_index) + "/" +
                          site + "] " + st.message();
  switch (st.code()) {
    case StatusCode::kUnavailable:
      return Status::Unavailable(msg);
    case StatusCode::kDeadlineExceeded:
      return Status::DeadlineExceeded(msg);
    case StatusCode::kInvalidArgument:
      return Status::InvalidArgument(msg);
    case StatusCode::kKeyError:
      return Status::KeyError(msg);
    default:
      return Status::Internal(msg);
  }
}

/// \brief Serializes a shard run's common sections (META, the worker's
/// seed-derived RNGS fingerprint, the SMPL resolved-sampler state) plus
/// the shard's SBOX estimator state.
std::string BuildShardBundle(
    const ShardMeta& meta, const std::vector<ResolvedPivotSampler>& samplers,
    const std::string& sbox_state) {
  WireBundleWriter bundle;
  bundle.AddSection(WireTag::kMeta, ShardMetaToBytes(meta));
  // The RNGS fingerprint is the worker's *initial* stream position,
  // Rng(seed): byte-equality across shards proves every worker started
  // from the same seed (the META stream base then proves they also agreed
  // on plan and catalog).
  bundle.AddSection(WireTag::kRngState, RngStateToBytes(Rng(meta.seed)));
  // The SMPL section pins the resolved pivot-path fixed-size samplers:
  // byte-equality proves the workers agreed on the global WOR / WR /
  // block draws their slices were filtered against.
  bundle.AddSection(WireTag::kSamplerState, SamplerStateToBytes(samplers));
  bundle.AddSection(WireTag::kSboxState, sbox_state);
  return bundle.Finish();
}

}  // namespace

Result<std::string> RunShardSbox(
    const PlanPtr& plan, ColumnarCatalog* catalog, uint64_t seed,
    ExecMode mode, const ExecOptions& exec, int shard_index, int num_shards,
    const ExprPtr& f_expr, const GusParams& gus, const SboxOptions& options,
    const std::optional<uint64_t>& expected_catalog_fingerprint) {
  if (shard_index < 0 || shard_index >= num_shards) {
    return Status::InvalidArgument(
        "shard_index " + std::to_string(shard_index) +
        " outside [0, " + std::to_string(num_shards) + ")");
  }
  // Injection site: death/failure before the worker has done anything.
  GUS_RETURN_NOT_OK(AnnotateShard(
      FaultInjector::Global()->Hit("worker.start", shard_index), shard_index,
      "worker.start"));
  GUS_ASSIGN_OR_RETURN(const uint64_t catalog_fingerprint,
                       PlanCatalogFingerprint(plan, catalog));
  if (expected_catalog_fingerprint.has_value() &&
      *expected_catalog_fingerprint != catalog_fingerprint) {
    // Divergent base data caught BEFORE executing a single unit — the
    // partial state this worker would produce could never merge validly.
    return Status::InvalidArgument(
        "shard " + std::to_string(shard_index) +
        " holds divergent base data (local catalog fingerprint does not "
        "match the coordinator's); refusing to execute");
  }
  const ExecOptions normalized = ShardedExecOptions(exec);
  GUS_ASSIGN_OR_RETURN(
      ShardPlan sp, PlanShards(plan, catalog, mode, normalized, num_shards));
  const ShardSpec& spec = sp.shards[shard_index];

  Rng rng(seed);
  uint64_t stream_base = 0;
  std::vector<ResolvedPivotSampler> samplers;
  std::unique_ptr<MergeableBatchSink> sink;
  // Injection site: failure/hang/death mid-execution of the unit range.
  GUS_RETURN_NOT_OK(AnnotateShard(
      FaultInjector::Global()->Hit("worker.execute", shard_index),
      shard_index, "worker.execute"));
  GUS_RETURN_NOT_OK(AnnotateShard(
      ParallelExecuteUnitRangeToSink(
          plan, catalog, &rng, mode, normalized, spec.unit_begin,
          spec.unit_end,
          [&](const BatchLayout& layout)
              -> Result<std::unique_ptr<MergeableBatchSink>> {
            GUS_ASSIGN_OR_RETURN(
                StreamingSboxEstimator est,
                StreamingSboxEstimator::Make(layout, f_expr, gus, options));
            return std::unique_ptr<MergeableBatchSink>(
                new StreamingSboxEstimator(std::move(est)));
          },
          &sink, &stream_base, &samplers),
      shard_index, "worker.execute"));
  auto* est = static_cast<StreamingSboxEstimator*>(sink.get());

  ShardMeta meta;
  meta.shard_index = static_cast<uint32_t>(shard_index);
  meta.num_shards = static_cast<uint32_t>(num_shards);
  meta.unit_begin = spec.unit_begin;
  meta.unit_end = spec.unit_end;
  meta.num_units = sp.split.num_units;
  meta.morsel_rows = sp.split.partitionable ? sp.split.morsel_rows : 0;
  meta.seed = seed;
  meta.stream_base = stream_base;
  meta.catalog_fingerprint = catalog_fingerprint;
  meta.rows = est->rows_seen();
  // Injection site: the range executed, but the bundle never materializes
  // (death/failure between execution and serialization).
  GUS_RETURN_NOT_OK(AnnotateShard(
      FaultInjector::Global()->Hit("worker.bundle", shard_index), shard_index,
      "worker.bundle"));
  return BuildShardBundle(meta, samplers, est->SerializeState());
}

}  // namespace gus
