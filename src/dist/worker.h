// Shard workers: execute one shard's slice of a query and serialize the
// partial estimator state for the gather coordinator.
//
// A worker is shared-nothing by construction: it needs only (plan,
// catalog, seed, shard_index, num_shards) — all small or locally resident
// — recomputes the deterministic shard plan itself (dist/shard.h), runs
// its unit range through the morsel-range executor, and emits one
// est/wire.h bundle. Every worker executes the serial prepare phase
// (join builds, pivot sampler seeds, etc.) locally from the same seed;
// that redundancy is the price of zero cross-worker coordination, and it
// is what makes the consistency fingerprints in the bundle meaningful:
// the META stream base covers (plan, catalog, seed), the META catalog
// fingerprint covers the scanned base data's content, and the SMPL
// section covers the resolved global fixed-size sampler draws.

#ifndef GUS_DIST_WORKER_H_
#define GUS_DIST_WORKER_H_

#include <cstdint>
#include <optional>
#include <string>

#include "algebra/gus_params.h"
#include "dist/shard.h"
#include "est/sbox.h"
#include "plan/columnar_executor.h"
#include "rel/expression.h"
#include "util/status.h"

namespace gus {

/// \brief Executes shard `shard_index` of `plan` and streams its slice
/// into a StreamingSboxEstimator; returns the serialized bundle
/// (META + RNGS + SMPL + SBOX).
///
/// `exec` must already be normalized via ShardedExecOptions (RunShardSbox
/// normalizes defensively). With `expected_catalog_fingerprint` set, the
/// worker refuses to execute against base data whose
/// PlanCatalogFingerprint differs — divergence is detected *before* any
/// unit runs, not only at gather. The returned bytes are what a remote
/// worker would put on the wire: feed them to any ShardTransport and
/// gather with GatherSboxEstimate (dist/coordinator.h).
Result<std::string> RunShardSbox(
    const PlanPtr& plan, ColumnarCatalog* catalog, uint64_t seed,
    ExecMode mode, const ExecOptions& exec, int shard_index, int num_shards,
    const ExprPtr& f_expr, const GusParams& gus, const SboxOptions& options,
    const std::optional<uint64_t>& expected_catalog_fingerprint =
        std::nullopt);

}  // namespace gus

#endif  // GUS_DIST_WORKER_H_
