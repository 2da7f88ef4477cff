// Morsel-driven partition-parallel plan execution.
//
// The engine picks one base scan of the plan — the *pivot* — whose path to
// the root crosses only partition-safe operators, and splits that relation
// into fixed-size morsels (ExecOptions::morsel_rows). Everything hanging
// off the pivot path (join build sides, product counterparts) executes once,
// serially, with the caller's Rng, exactly like the serial columnar engine;
// each morsel then runs the remaining pipeline — scan slice, vectorized
// selects, per-partition samplers, probes against the shared join hash
// tables, per-slice union dedup — on whatever worker picks it up.
//
// Pivot-eligibility (the full matrix lives in ARCHITECTURE.md):
//   * select — stateless per row;
//   * Bernoulli — independent per-morsel Rng streams
//     (Rng::ForkStream(stream_base, morsel)) draw from exactly the same
//     sampling design as one serial stream (a different, equally valid
//     draw than the serial engines');
//   * lineage-seeded Bernoulli — Rng-free pure function of (seed, lineage);
//   * fixed-size WOR / WR-distinct samplers directly above the pivot scan —
//     seed-decoupled: the sampler consumes one Rng value during the serial
//     prepare phase and the exact global keep-set (a mergeable-reservoir
//     top-n, resp. the n draw targets) is a pure function of (seed, row),
//     so every morsel filters its slice against the same global sample and
//     the draw is bit-identical to the serial engines';
//   * block sampling directly above the pivot scan — per-block decisions
//     are pure functions of (seed, block id), morsel boundaries align to
//     whole blocks (blocks are indivisible morsel units), and the draw is
//     bit-identical to the serial engines';
//   * join / product — the non-pivot side is shared read-only (the shared
//     JoinHashTable build is itself partition-parallel);
//   * union — both branches partition over the same pivot scan; each
//     morsel runs both branch pipelines on its slice and dedups locally.
//     Lineage is the partitioning key: a base tuple's result rows can only
//     appear in its own pivot slice, so slice-local first-occurrence dedup
//     equals the serial engines' global dedup (Prop. 7 composition is
//     untouched — the SOA transform still folds the branches with
//     GusUnion).
// A fixed-size or block sampler over a *derived* input (anything but the
// scan itself) still forces the serial fallback — those draws need the
// whole derived stream; in exact mode fixed-size samplers are no-ops and
// stay safe anywhere.
//
// Determinism: the morsel split depends only on (catalog, morsel_rows,
// block alignment), per-morsel randomness only on (seed, morsel index),
// sampler seeds and keep-sets only on (plan, seed), and per-morsel sinks
// are folded in strictly ascending morsel order — so for a fixed (plan,
// catalog, seed, options) the merged result is bit-identical across
// repeated runs AND, with an explicit morsel_rows, across num_threads
// values (auto sizing — morsel_rows = 0 — derives the split from the
// thread count plus the pivot layout and plan cost weight, so it
// reproduces only at a fixed num_threads). Profiling (ExecOptions::stats /
// GUS_PROFILE) is a pure observation knob outside this identity: results
// are identical with it on or off. Plans whose
// only Rng consumers are seed-decoupled samplers (WOR / WR / block /
// lineage-seeded) additionally reproduce the serial row engine's rows bit
// for bit; plain Bernoulli keeps the same design but a different draw.

#ifndef GUS_PLAN_PARALLEL_EXECUTOR_H_
#define GUS_PLAN_PARALLEL_EXECUTOR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "plan/columnar_executor.h"
#include "plan/executor.h"
#include "plan/plan_node.h"
#include "rel/column_batch.h"
#include "util/random.h"
#include "util/status.h"

namespace gus {

/// \brief True when the morsel engine can partition `plan` (some scan has a
/// partition-safe path to the root) under `mode`.
///
/// Purely structural — no catalog needed. When false the engine still
/// executes the plan, via the serial fallback.
bool PlanIsPartitionable(const PlanPtr& plan, ExecMode mode);

/// \brief One seed-decoupled pivot-path sampler resolved during the serial
/// prepare phase.
///
/// The consistency fingerprint the shared-nothing layer ships in the SMPL
/// wire section: every shard resolves the same samplers from the same
/// seed, so byte-equal resolutions prove the shards agreed on the global
/// fixed-size draws before their partial states merge.
struct ResolvedPivotSampler {
  /// static_cast of SamplingMethod (stable small enum).
  uint8_t method = 0;
  /// The sampler seed drawn from the engine Rng stream.
  uint64_t seed = 0;
  /// FNV digest of the resolved keep-set (WOR / WR) or of the decision
  /// parameters (block sampling).
  uint64_t fingerprint = 0;

  bool operator==(const ResolvedPivotSampler& o) const {
    return method == o.method && seed == o.seed && fingerprint == o.fingerprint;
  }
};

/// \brief The deterministic execution-unit layout the morsel engine uses
/// for (plan, catalog, mode, options).
///
/// Exposed so the shared-nothing layer (src/dist/) can carve the *same*
/// global unit sequence into contiguous shard ranges: because the split
/// depends only on (catalog, morsel_rows, pivot block alignment) — never
/// on worker or shard counts — any partition of [0, num_units) into
/// ordered ranges merges back to the identical result.
struct MorselSplit {
  /// False: no partition-safe pivot. The plan still executes, as exactly
  /// one serial unit (unit 0) on the columnar fallback path.
  bool partitionable = false;
  /// Execution units: pivot morsels when partitionable (0 for an empty
  /// pivot relation), else exactly 1 (the serial fallback unit).
  int64_t num_units = 1;
  /// Rows per morsel after auto-sizing and block alignment (0 when not
  /// partitionable). Note auto-sizing (ExecOptions::morsel_rows == 0)
  /// reads num_threads; pass an explicit morsel_rows for a split that is
  /// invariant across worker AND shard counts.
  int64_t morsel_rows = 0;
  /// Pivot relation rows (0 when not partitionable).
  int64_t pivot_rows = 0;
  /// Chosen pivot base relation (empty when not partitionable).
  std::string pivot_relation;
  /// Rows per block when a pivot-adjacent block sampler forces block-
  /// aligned morsels; 1 otherwise.
  int64_t block_align = 1;
};

/// \brief Computes the unit split without executing anything (the pivot
/// relation is resolved, converting to columnar on first use).
Result<MorselSplit> AnalyzeMorselSplit(const PlanPtr& plan,
                                       ColumnarCatalog* catalog, ExecMode mode,
                                       const ExecOptions& options);

/// \brief Executes `plan` morsel-parallel, fanning batches into per-morsel
/// sinks from `make_sink` and folding them into `*out` in morsel order.
///
/// `rng` drives the serially-executed non-pivot subtrees, the pivot-path
/// sampler seeds, and the per-morsel streams. On the fallback path (no
/// safe pivot) a single sink consumes the serial columnar pipeline.
Status ParallelExecutePlanToSink(const PlanPtr& plan, ColumnarCatalog* catalog,
                                 Rng* rng, ExecMode mode,
                                 const ExecOptions& options,
                                 const MorselSinkFactory& make_sink,
                                 std::unique_ptr<MergeableBatchSink>* out);

/// \brief Executes only the global units in [unit_begin, unit_end) of the
/// AnalyzeMorselSplit layout (clamped to the valid range), folding their
/// sinks into `*out` in ascending unit order.
///
/// This is the shard-worker primitive: unit u always draws from
/// Rng::ForkStream(stream_base, u) where stream_base is the caller Rng's
/// next draw *after* the serial prepare phase (non-pivot subtrees +
/// pivot-path sampler seeds, consumed in the row engine's execution
/// order) — so for a fixed (plan, catalog, seed, morsel_rows) the
/// concatenation of any ordered range cover reproduces the full run bit
/// for bit, regardless of how many ranges (shards) or threads execute it.
/// Note the serial phase runs (and consumes `rng`) even for an empty
/// range: every shard worker must consume the identical Rng prefix for
/// stream_base to agree. On the non-partitionable fallback the single
/// serial unit 0 runs iff the range contains it. `stream_base_out`
/// (optional) receives the stream base (0 on the fallback path) and
/// `samplers_out` (optional) the resolved pivot-path fixed-size samplers,
/// so callers can cross-check shard consistency.
Status ParallelExecuteUnitRangeToSink(
    const PlanPtr& plan, ColumnarCatalog* catalog, Rng* rng, ExecMode mode,
    const ExecOptions& options, int64_t unit_begin, int64_t unit_end,
    const MorselSinkFactory& make_sink,
    std::unique_ptr<MergeableBatchSink>* out,
    uint64_t* stream_base_out = nullptr,
    std::vector<ResolvedPivotSampler>* samplers_out = nullptr);

}  // namespace gus

#endif  // GUS_PLAN_PARALLEL_EXECUTOR_H_
