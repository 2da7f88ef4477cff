#include "dist/shard.h"

#include <algorithm>
#include <functional>

#include "est/wire.h"
#include "util/hash.h"

namespace gus {

ExecOptions ShardedExecOptions(const ExecOptions& exec) {
  ExecOptions normalized = exec;
  if (normalized.morsel_rows == 0) normalized.morsel_rows = kDefaultMorselRows;
  return normalized;
}

Result<ShardPlan> PlanShards(const PlanPtr& plan, ColumnarCatalog* catalog,
                             ExecMode mode, const ExecOptions& exec,
                             int num_shards) {
  if (num_shards < 1) {
    return Status::InvalidArgument("num_shards must be >= 1");
  }
  ShardPlan sp;
  sp.num_shards = num_shards;
  GUS_ASSIGN_OR_RETURN(sp.split, AnalyzeMorselSplit(plan, catalog, mode, exec));
  const int64_t units = sp.split.num_units;
  sp.shards.reserve(num_shards);
  for (int k = 0; k < num_shards; ++k) {
    ShardSpec spec;
    spec.shard_index = k;
    spec.num_shards = num_shards;
    spec.unit_begin = units * k / num_shards;
    spec.unit_end = units * (k + 1) / num_shards;
    sp.shards.push_back(spec);
  }
  return sp;
}

std::string ShardMetaToBytes(const ShardMeta& meta) {
  WireWriter w;
  w.PutU32(meta.shard_index);
  w.PutU32(meta.num_shards);
  w.PutI64(meta.unit_begin);
  w.PutI64(meta.unit_end);
  w.PutI64(meta.num_units);
  w.PutI64(meta.morsel_rows);
  w.PutU64(meta.seed);
  w.PutU64(meta.stream_base);
  w.PutU64(meta.catalog_fingerprint);
  w.PutI64(meta.rows);
  return w.Take();
}

Result<ShardMeta> ShardMetaFromBytes(std::string_view payload) {
  WireReader r(payload);
  ShardMeta meta;
  GUS_RETURN_NOT_OK(r.ReadU32(&meta.shard_index));
  GUS_RETURN_NOT_OK(r.ReadU32(&meta.num_shards));
  GUS_RETURN_NOT_OK(r.ReadI64(&meta.unit_begin));
  GUS_RETURN_NOT_OK(r.ReadI64(&meta.unit_end));
  GUS_RETURN_NOT_OK(r.ReadI64(&meta.num_units));
  GUS_RETURN_NOT_OK(r.ReadI64(&meta.morsel_rows));
  GUS_RETURN_NOT_OK(r.ReadU64(&meta.seed));
  GUS_RETURN_NOT_OK(r.ReadU64(&meta.stream_base));
  GUS_RETURN_NOT_OK(r.ReadU64(&meta.catalog_fingerprint));
  GUS_RETURN_NOT_OK(r.ReadI64(&meta.rows));
  GUS_RETURN_NOT_OK(r.ExpectEnd());
  return meta;
}

Result<uint64_t> PlanCatalogFingerprint(const PlanPtr& plan,
                                        ColumnarCatalog* catalog) {
  std::vector<std::string> names;
  std::function<void(const PlanPtr&)> walk = [&](const PlanPtr& node) {
    if (node->op() == PlanOp::kScan) {
      names.push_back(node->relation());
      return;
    }
    for (int c = 0; c < node->num_children(); ++c) {
      walk(c == 0 ? node->left() : node->right());
    }
  };
  walk(plan);
  std::sort(names.begin(), names.end());
  names.erase(std::unique(names.begin(), names.end()), names.end());
  uint64_t h = Mix64(0x47534643ULL);  // "CFSG"
  for (const std::string& name : names) {
    GUS_ASSIGN_OR_RETURN(const uint64_t rel_fp, catalog->Fingerprint(name));
    h = HashCombine(h, static_cast<uint64_t>(name.size()));
    for (const char c : name) {
      h = HashCombine(h, static_cast<uint64_t>(static_cast<unsigned char>(c)));
    }
    h = HashCombine(h, rel_fp);
  }
  return h;
}

Status WarmCatalogForPlan(const PlanPtr& plan, ColumnarCatalog* catalog) {
  std::function<Status(const PlanPtr&)> walk =
      [&](const PlanPtr& node) -> Status {
    if (node->op() == PlanOp::kScan) {
      GUS_ASSIGN_OR_RETURN(const StoredRelation* stored,
                           catalog->Stored(node->relation()));
      if (stored != nullptr) return Status::OK();
      return catalog->Get(node->relation()).status();
    }
    for (int c = 0; c < node->num_children(); ++c) {
      GUS_RETURN_NOT_OK(walk(c == 0 ? node->left() : node->right()));
    }
    return Status::OK();
  };
  return walk(plan);
}

std::string SamplerStateToBytes(
    const std::vector<ResolvedPivotSampler>& samplers) {
  WireWriter w;
  w.PutU32(static_cast<uint32_t>(samplers.size()));
  for (const ResolvedPivotSampler& s : samplers) {
    w.PutU8(s.method);
    w.PutU64(s.seed);
    w.PutU64(s.fingerprint);
  }
  return w.Take();
}

Result<std::vector<ResolvedPivotSampler>> SamplerStateFromBytes(
    std::string_view payload) {
  WireReader r(payload);
  uint32_t count = 0;
  GUS_RETURN_NOT_OK(r.ReadU32(&count));
  if (count > r.remaining() / 17) {
    return Status::InvalidArgument("truncated wire sampler state");
  }
  std::vector<ResolvedPivotSampler> samplers(count);
  for (ResolvedPivotSampler& s : samplers) {
    GUS_RETURN_NOT_OK(r.ReadU8(&s.method));
    GUS_RETURN_NOT_OK(r.ReadU64(&s.seed));
    GUS_RETURN_NOT_OK(r.ReadU64(&s.fingerprint));
  }
  GUS_RETURN_NOT_OK(r.ExpectEnd());
  return samplers;
}

Status ValidateShardMetas(const std::vector<ShardMeta>& metas) {
  if (metas.empty()) {
    return Status::InvalidArgument("gather received no shard states");
  }
  const ShardMeta& first = metas[0];
  if (first.num_shards != metas.size()) {
    return Status::InvalidArgument(
        "gather received " + std::to_string(metas.size()) +
        " shard states but the shards report num_shards = " +
        std::to_string(first.num_shards));
  }
  int64_t covered = 0;
  for (size_t k = 0; k < metas.size(); ++k) {
    const ShardMeta& meta = metas[k];
    if (meta.shard_index != k) {
      return Status::InvalidArgument(
          "shard state " + std::to_string(k) + " reports shard_index " +
          std::to_string(meta.shard_index) + " (out-of-order gather?)");
    }
    if (meta.num_shards != first.num_shards ||
        meta.num_units != first.num_units ||
        meta.morsel_rows != first.morsel_rows) {
      return Status::InvalidArgument(
          "shard " + std::to_string(k) +
          " ran a different shard plan than shard 0 (divergent exec "
          "options?)");
    }
    if (meta.seed != first.seed || meta.stream_base != first.stream_base) {
      // The stream base fingerprints (plan, catalog, seed): merging states
      // drawn from divergent streams would be statistically invalid.
      return Status::InvalidArgument(
          "shard " + std::to_string(k) +
          " executed with a divergent seed or catalog (stream base "
          "mismatch); refusing to merge");
    }
    if (meta.catalog_fingerprint != first.catalog_fingerprint) {
      return Status::InvalidArgument(
          "shard " + std::to_string(k) +
          " executed against divergent base data (catalog fingerprint "
          "mismatch); refusing to merge");
    }
    if (meta.unit_begin != covered || meta.unit_end < meta.unit_begin) {
      return Status::InvalidArgument(
          "shard " + std::to_string(k) + " covers units [" +
          std::to_string(meta.unit_begin) + ", " +
          std::to_string(meta.unit_end) +
          ") which does not continue the tiling at " +
          std::to_string(covered));
    }
    covered = meta.unit_end;
  }
  if (covered != first.num_units) {
    return Status::InvalidArgument(
        "gathered shards cover " + std::to_string(covered) + " of " +
        std::to_string(first.num_units) + " execution units");
  }
  return Status::OK();
}

Status ValidateSurvivingShardMetas(const std::vector<ShardMeta>& metas) {
  if (metas.empty()) {
    return Status::InvalidArgument("partial gather received no shard states");
  }
  const ShardMeta& first = metas[0];
  if (metas.size() > first.num_shards) {
    return Status::InvalidArgument(
        "partial gather received " + std::to_string(metas.size()) +
        " shard states but the shards report num_shards = " +
        std::to_string(first.num_shards));
  }
  int64_t prev_index = -1;
  for (const ShardMeta& meta : metas) {
    const std::string who = "shard " + std::to_string(meta.shard_index);
    if (static_cast<int64_t>(meta.shard_index) <= prev_index) {
      return Status::InvalidArgument(
          who + " out of order in partial gather (want strictly ascending "
          "shard indices)");
    }
    prev_index = meta.shard_index;
    if (meta.shard_index >= first.num_shards) {
      return Status::InvalidArgument(
          who + " outside the reported num_shards = " +
          std::to_string(first.num_shards));
    }
    if (meta.num_shards != first.num_shards ||
        meta.num_units != first.num_units ||
        meta.morsel_rows != first.morsel_rows) {
      return Status::InvalidArgument(
          who + " ran a different shard plan than the first surviving "
          "shard (divergent exec options?)");
    }
    if (meta.seed != first.seed || meta.stream_base != first.stream_base) {
      return Status::InvalidArgument(
          who + " executed with a divergent seed or catalog (stream base "
          "mismatch); refusing to merge");
    }
    if (meta.catalog_fingerprint != first.catalog_fingerprint) {
      return Status::InvalidArgument(
          who + " executed against divergent base data (catalog "
          "fingerprint mismatch); refusing to merge");
    }
    // Each survivor must cover exactly its canonical slice: a shard that
    // executed a different range than the plan assigns cannot be
    // re-weighted by the survival model (which assumes the canonical
    // carve).
    const int64_t want_begin = first.num_units *
                               static_cast<int64_t>(meta.shard_index) /
                               static_cast<int64_t>(first.num_shards);
    const int64_t want_end = first.num_units *
                             (static_cast<int64_t>(meta.shard_index) + 1) /
                             static_cast<int64_t>(first.num_shards);
    if (meta.unit_begin != want_begin || meta.unit_end != want_end) {
      return Status::InvalidArgument(
          who + " covers units [" + std::to_string(meta.unit_begin) + ", " +
          std::to_string(meta.unit_end) + ") but its canonical range is [" +
          std::to_string(want_begin) + ", " + std::to_string(want_end) + ")");
    }
  }
  return Status::OK();
}

}  // namespace gus
