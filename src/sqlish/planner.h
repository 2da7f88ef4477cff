// Planner + one-call query interface for the SQL-ish dialect.
//
// The planner resolves columns against the catalog, splits the WHERE clause
// into equi-join conditions and filters, and builds a left-deep sampled
// plan in FROM order. RunApproxQuery then executes the plan, runs the SBox,
// and returns one estimated value (with interval) per select item — the
// complete "approximate query" experience of the paper's introduction.
//
// Execution is one sink factory over the front door (ExecutePlanToSink,
// plan/columnar_executor.h): the (lineage, f) stream of every engine fans
// out into per-item builders and one estimate tail finishes them. kServed
// is a view-cache lookup in front of a kMorselParallel call at pinned
// morsel geometry.

#ifndef GUS_SQLISH_PLANNER_H_
#define GUS_SQLISH_PLANNER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "est/sbox.h"
#include "plan/executor.h"
#include "plan/plan_node.h"
#include "sqlish/parser.h"

namespace gus {
namespace sqlish {

/// A planned query: the sampled plan plus the select items to evaluate.
struct PlannedQuery {
  PlanPtr plan;
  std::vector<SelectItem> items;
  /// GROUP BY column; empty when ungrouped.
  std::string group_by;
};

/// \brief Resolves and plans a parsed query against `catalog`.
///
/// TABLESAMPLE (p PERCENT) becomes Bernoulli(p/100); (n ROWS) becomes
/// WOR(n, |table|) with the population read from the catalog.
Result<PlannedQuery> PlanQuery(const ParsedQuery& parsed,
                               const Catalog& catalog);

/// One select item's output.
struct ApproxValue {
  /// "SUM(...)", "COUNT(*)", "AVG(...)", "QUANTILE(...,q)".
  std::string label;
  /// GROUP BY key rendered as text; empty for ungrouped queries.
  std::string group;
  double value = 0.0;
  /// Standard deviation of the estimator (0 for exact evaluation).
  double stddev = 0.0;
  /// Two-sided interval (for kQuantile: [value, value]).
  double lo = 0.0;
  double hi = 0.0;
};

/// The full result of an approximate query.
struct ApproxResult {
  std::vector<ApproxValue> values;
  int64_t sample_rows = 0;
  std::string ToString() const;
};

/// \brief Parses, plans, executes and estimates in one call.
///
/// `seed` drives the samplers; `options` control interval kind/level and
/// Section 7 sub-sampling. No engine materializes the result relation
/// for the estimators: (lineage, f) streams straight into the per-item
/// builders. The row and columnar engines return identical results for
/// identical seeds. Because even the row engine's result streams through
/// columnar sinks, a base cell whose type disagrees with its column's
/// (Relation::AppendRow does not check) is a TypeError on every engine.
Result<ApproxResult> RunApproxQuery(const std::string& sql,
                                    const Catalog& catalog, uint64_t seed,
                                    const SboxOptions& options = {},
                                    ExecEngine engine = ExecEngine::kRowAtATime);

/// \brief Full-options overload: exec.engine picks the front-door engine
/// (ExecutePlanToSink). ExecEngine::kMorselParallel runs the plan
/// partition-parallel with exec.num_threads workers. exec.stats, when set,
/// receives the engine profile and, on every engine, the estimate time
/// (ExecStats::estimate_ms).
///
/// Ungrouped queries fan the batch stream into per-item SampleViewBuilders
/// per partition; grouped queries into per-item GroupedSumBuilders; both
/// merge in morsel order, so the result is bit-deterministic in (sql,
/// catalog, seed, exec) and, with an explicit morsel_rows, identical
/// across num_threads values.
///
/// ExecEngine::kServed is kMorselParallel at pinned morsel geometry
/// (ShardedExecOptions: an unset morsel_rows becomes kDefaultMorselRows)
/// fronted by the process-wide approximate-view cache
/// (serve/view_cache.h): a repeated (sql + estimator options, catalog
/// content, seed, morsel geometry) serves the bit-identical result from
/// the cached merged builder state (a wire bundle, docs/WIRE_FORMAT.md)
/// without executing anything — ExecOptions::stats' cache counters record
/// which path answered.
Result<ApproxResult> RunApproxQuery(const std::string& sql,
                                    const Catalog& catalog, uint64_t seed,
                                    const SboxOptions& options,
                                    const ExecOptions& exec);

}  // namespace sqlish
}  // namespace gus

#endif  // GUS_SQLISH_PLANNER_H_
