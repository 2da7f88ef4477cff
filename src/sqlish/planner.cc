#include "sqlish/planner.h"

#include <algorithm>
#include <cstring>
#include <optional>
#include <set>
#include <sstream>
#include <string_view>
#include <unordered_map>

#include "dist/shard.h"
#include "est/confidence.h"
#include "est/group_by.h"
#include "est/ratio.h"
#include "est/streaming.h"
#include "est/wire.h"
#include "plan/columnar_executor.h"
#include "plan/exec_stats.h"
#include "plan/soa_transform.h"
#include "serve/view_cache.h"

namespace gus {
namespace sqlish {

namespace {

/// Splits an expression on top-level ANDs.
void CollectConjuncts(const ExprPtr& expr, std::vector<ExprPtr>* out) {
  if (expr->op() == ExprOp::kAnd) {
    CollectConjuncts(expr->left(), out);
    CollectConjuncts(expr->right(), out);
  } else {
    out->push_back(expr);
  }
}

/// Column name -> owning table, from the catalog schemas.
Result<std::unordered_map<std::string, std::string>> BuildColumnMap(
    const ParsedQuery& parsed, const Catalog& catalog) {
  std::unordered_map<std::string, std::string> owner;
  for (const TableRef& table : parsed.tables) {
    auto it = catalog.find(table.name);
    if (it == catalog.end()) {
      return Status::KeyError("table '" + table.name + "' not in catalog");
    }
    for (const Column& col : it->second.schema().columns()) {
      if (!owner.emplace(col.name, table.name).second) {
        return Status::InvalidArgument("ambiguous column '" + col.name +
                                       "' across FROM tables");
      }
    }
  }
  return owner;
}

struct JoinPredicate {
  std::string left_table, left_column;
  std::string right_table, right_column;
  bool used = false;
};

}  // namespace

Result<PlannedQuery> PlanQuery(const ParsedQuery& parsed,
                               const Catalog& catalog) {
  if (parsed.tables.empty()) {
    return Status::InvalidArgument("query needs at least one table");
  }
  GUS_ASSIGN_OR_RETURN(auto owner, BuildColumnMap(parsed, catalog));

  // Split WHERE into equi-join predicates and filters.
  std::vector<JoinPredicate> joins;
  std::vector<ExprPtr> filters;
  if (parsed.where != nullptr) {
    std::vector<ExprPtr> conjuncts;
    CollectConjuncts(parsed.where, &conjuncts);
    for (const ExprPtr& conjunct : conjuncts) {
      bool is_join = false;
      if (conjunct->op() == ExprOp::kEq &&
          conjunct->left()->op() == ExprOp::kColumn &&
          conjunct->right()->op() == ExprOp::kColumn) {
        const std::string& lc = conjunct->left()->column_name();
        const std::string& rc = conjunct->right()->column_name();
        auto li = owner.find(lc);
        auto ri = owner.find(rc);
        if (li == owner.end() || ri == owner.end()) {
          return Status::KeyError("unknown column in join predicate: " +
                                  conjunct->ToString());
        }
        if (li->second != ri->second) {
          joins.push_back({li->second, lc, ri->second, rc, false});
          is_join = true;
        }
      }
      if (!is_join) filters.push_back(conjunct);
    }
  }

  // Left-deep joins in FROM order.
  auto make_leaf = [&](const TableRef& table) -> Result<PlanPtr> {
    PlanPtr leaf = PlanNode::Scan(table.name);
    if (table.percent.has_value()) {
      leaf = PlanNode::Sample(SamplingSpec::Bernoulli(*table.percent / 100.0),
                              leaf);
    } else if (table.rows.has_value()) {
      const int64_t population = catalog.at(table.name).num_rows();
      if (*table.rows > population) {
        return Status::InvalidArgument(
            "TABLESAMPLE ROWS exceeds the cardinality of '" + table.name +
            "'");
      }
      leaf = PlanNode::Sample(
          SamplingSpec::WithoutReplacement(*table.rows, population), leaf);
    }
    return leaf;
  };

  GUS_ASSIGN_OR_RETURN(PlanPtr plan, make_leaf(parsed.tables[0]));
  std::set<std::string> joined = {parsed.tables[0].name};
  for (size_t i = 1; i < parsed.tables.size(); ++i) {
    const TableRef& table = parsed.tables[i];
    GUS_ASSIGN_OR_RETURN(PlanPtr leaf, make_leaf(table));
    // Find an unused equi-join predicate connecting `joined` and `table`.
    JoinPredicate* chosen = nullptr;
    for (JoinPredicate& jp : joins) {
      if (jp.used) continue;
      const bool forward = joined.count(jp.left_table) &&
                           jp.right_table == table.name;
      const bool backward = joined.count(jp.right_table) &&
                            jp.left_table == table.name;
      if (forward || backward) {
        chosen = &jp;
        if (backward) {
          std::swap(jp.left_table, jp.right_table);
          std::swap(jp.left_column, jp.right_column);
        }
        break;
      }
    }
    if (chosen != nullptr) {
      chosen->used = true;
      plan = PlanNode::Join(plan, leaf, chosen->left_column,
                            chosen->right_column);
    } else {
      plan = PlanNode::Product(plan, leaf);
    }
    joined.insert(table.name);
  }
  // Leftover join predicates (cycles) become filters.
  for (const JoinPredicate& jp : joins) {
    if (!jp.used) {
      filters.push_back(Eq(Col(jp.left_column), Col(jp.right_column)));
    }
  }
  for (const ExprPtr& filter : filters) {
    plan = PlanNode::SelectNode(filter, plan);
  }
  if (!parsed.group_by.empty() && !owner.count(parsed.group_by)) {
    return Status::KeyError("unknown GROUP BY column '" + parsed.group_by +
                            "'");
  }
  return PlannedQuery{std::move(plan), parsed.items, parsed.group_by};
}

std::string ApproxResult::ToString() const {
  std::ostringstream out;
  for (const ApproxValue& v : values) {
    if (!v.group.empty()) out << "[" << v.group << "] ";
    out << v.label << " = " << v.value;
    if (v.stddev > 0.0) {
      out << "  (stddev " << v.stddev << ", [" << v.lo << ", " << v.hi
          << "])";
    }
    out << "\n";
  }
  out << "(from " << sample_rows << " sampled tuples)";
  return out.str();
}

namespace {

/// One select item's estimate from its (lineage, f) view.
Result<ApproxValue> EstimateItem(const SelectItem& item, const GusParams& top,
                                 const SampleView& view,
                                 const SboxOptions& options) {
  ApproxValue value;
  switch (item.kind) {
    case AggKind::kSum: {
      GUS_ASSIGN_OR_RETURN(SboxReport report,
                           SboxEstimate(top, view, options));
      value.label = "SUM(" + item.expr->ToString() + ")";
      value.value = report.estimate;
      value.stddev = report.stddev;
      value.lo = report.interval.lo;
      value.hi = report.interval.hi;
      break;
    }
    case AggKind::kCount: {
      GUS_ASSIGN_OR_RETURN(
          CountReport report,
          CountEstimate(top, view, options.confidence_level,
                        options.bound_kind));
      value.label = "COUNT(*)";
      value.value = report.estimate;
      value.stddev = report.stddev;
      value.lo = report.interval.lo;
      value.hi = report.interval.hi;
      break;
    }
    case AggKind::kAvg: {
      GUS_ASSIGN_OR_RETURN(
          RatioReport report,
          AvgEstimate(top, view, options.confidence_level,
                      options.bound_kind));
      value.label = "AVG(" + item.expr->ToString() + ")";
      value.value = report.estimate;
      value.stddev = report.stddev;
      value.lo = report.interval.lo;
      value.hi = report.interval.hi;
      break;
    }
    case AggKind::kQuantile: {
      GUS_ASSIGN_OR_RETURN(SboxReport report,
                           SboxEstimate(top, view, options));
      GUS_ASSIGN_OR_RETURN(
          double q, EstimateQuantile(report.estimate, report.variance,
                                     item.quantile, options.bound_kind));
      std::ostringstream label;
      label << "QUANTILE(SUM(" << item.expr->ToString() << "), "
            << item.quantile << ")";
      value.label = label.str();
      value.value = q;
      value.lo = q;
      value.hi = q;
      break;
    }
  }
  return value;
}

/// \brief Per-item fan-out sink: one SampleViewBuilder per select item
/// (ungrouped) or one GroupedSumBuilder per item (grouped), plus the row
/// count; merges element-wise in unit order. Every engine feeds it.
class ItemFanoutSink final : public MergeableBatchSink {
 public:
  static Result<std::unique_ptr<ItemFanoutSink>> Make(
      const BatchLayout& layout, const std::vector<SelectItem>& items,
      const LineageSchema& schema, const std::string& group_by) {
    auto sink = std::unique_ptr<ItemFanoutSink>(new ItemFanoutSink());
    sink->reads_.assign(static_cast<size_t>(layout.schema.num_columns()), 0);
    const auto add_reads = [&sink](const BatchSink& builder) {
      const std::vector<char>& reads = *builder.columns_read();
      for (size_t c = 0; c < reads.size(); ++c) sink->reads_[c] |= reads[c];
    };
    for (const SelectItem& item : items) {
      if (group_by.empty()) {
        GUS_ASSIGN_OR_RETURN(SampleViewBuilder builder,
                             SampleViewBuilder::Make(layout, item.expr,
                                                     schema));
        add_reads(builder);
        sink->views_.push_back(std::move(builder));
      } else {
        GUS_ASSIGN_OR_RETURN(
            GroupedSumBuilder builder,
            GroupedSumBuilder::Make(layout, item.expr, group_by, schema));
        add_reads(builder);
        sink->groups_.push_back(std::move(builder));
      }
    }
    return sink;
  }

  /// Every item's columns (nullptr on a deserialized, merge-only sink).
  const std::vector<char>* columns_read() const override {
    return reads_.empty() ? nullptr : &reads_;
  }

  Status Consume(const ColumnBatch& batch) override {
    sample_rows_ += batch.num_rows();
    for (SampleViewBuilder& builder : views_) {
      GUS_RETURN_NOT_OK(builder.Consume(batch));
    }
    for (GroupedSumBuilder& builder : groups_) {
      GUS_RETURN_NOT_OK(builder.Consume(batch));
    }
    return Status::OK();
  }

  // Grouped mode accumulates straight off the selection (no gather);
  // ungrouped mode keeps the default gather-then-Consume path.
  bool wants_views() const override { return !groups_.empty(); }
  Status ConsumeView(const SelView& view) override {
    if (groups_.empty()) return BatchSink::ConsumeView(view);
    sample_rows_ += view.num_rows();
    for (GroupedSumBuilder& builder : groups_) {
      GUS_RETURN_NOT_OK(builder.ConsumeView(view));
    }
    return Status::OK();
  }

  Status MergeFrom(BatchSink* other) override {
    auto* o = static_cast<ItemFanoutSink*>(other);
    sample_rows_ += o->sample_rows_;
    for (size_t i = 0; i < views_.size(); ++i) {
      GUS_RETURN_NOT_OK(views_[i].Merge(std::move(o->views_[i])));
    }
    for (size_t i = 0; i < groups_.size(); ++i) {
      GUS_RETURN_NOT_OK(groups_[i].Merge(std::move(o->groups_[i])));
    }
    return Status::OK();
  }

  /// \brief The kServed view-cache entry: a wire bundle of META (just the
  /// i64 row count, a private mini-payload only DeserializeState reads)
  /// then one VBLD (ungrouped) or GRUP (grouped) section per item.
  std::string SerializeState() const {
    WireBundleWriter bundle;
    WireWriter meta;
    meta.PutI64(sample_rows_);
    bundle.AddSection(WireTag::kMeta, meta.Take());
    for (const SampleViewBuilder& builder : views_) {
      bundle.AddSection(WireTag::kViewBuilder, builder.SerializeState());
    }
    for (const GroupedSumBuilder& builder : groups_) {
      bundle.AddSection(WireTag::kGroupedSum, builder.SerializeState());
    }
    return bundle.Finish();
  }

  /// Rebuilds the sink a SerializeState entry holds for a query of
  /// `num_items` select items. A poisoned entry fails loudly (container
  /// checksum, META shape, item count), never serves damaged numbers.
  static Result<std::unique_ptr<ItemFanoutSink>> DeserializeState(
      std::string_view bytes, size_t num_items, bool grouped) {
    GUS_ASSIGN_OR_RETURN(std::vector<WireSectionView> sections,
                         ParseWireBundle(bytes));
    GUS_ASSIGN_OR_RETURN(WireSectionView meta,
                         FindWireSection(sections, WireTag::kMeta));
    auto sink = std::unique_ptr<ItemFanoutSink>(new ItemFanoutSink());
    WireReader r(meta.payload);
    GUS_RETURN_NOT_OK(r.ReadI64(&sink->sample_rows_));
    GUS_RETURN_NOT_OK(r.ExpectEnd());
    const WireTag item_tag =
        grouped ? WireTag::kGroupedSum : WireTag::kViewBuilder;
    for (const WireSectionView& section : sections) {
      if (section.tag != item_tag) continue;
      if (grouped) {
        GUS_ASSIGN_OR_RETURN(
            GroupedSumBuilder builder,
            GroupedSumBuilder::DeserializeState(section.payload));
        sink->groups_.push_back(std::move(builder));
      } else {
        GUS_ASSIGN_OR_RETURN(
            SampleViewBuilder builder,
            SampleViewBuilder::DeserializeState(section.payload));
        sink->views_.push_back(std::move(builder));
      }
    }
    const size_t items = grouped ? sink->groups_.size() : sink->views_.size();
    if (items != num_items) {
      return Status::InvalidArgument(
          "view-cache entry carries " + std::to_string(items) +
          " item states, expected " + std::to_string(num_items) +
          "; refusing to serve");
    }
    return sink;
  }

  int64_t sample_rows() const { return sample_rows_; }
  std::vector<SampleViewBuilder>& views() { return views_; }
  std::vector<GroupedSumBuilder>& groups() { return groups_; }

 private:
  ItemFanoutSink() = default;

  int64_t sample_rows_ = 0;
  std::vector<SampleViewBuilder> views_;
  std::vector<GroupedSumBuilder> groups_;
  std::vector<char> reads_;  // union of the builders' columns_read()
};

/// The estimate tail every engine shares: per-item estimation over the
/// merged sink's builders (views when ungrouped, group tables otherwise).
/// `stats`, when set, receives its wall time in estimate_ms.
Result<ApproxResult> EstimateFromBuilders(const PlannedQuery& planned,
                                          const SoaResult& soa,
                                          const SboxOptions& options,
                                          ItemFanoutSink* fanout,
                                          ExecStats* stats) {
  return TimeEstimate(stats, [&]() -> Result<ApproxResult> {
    ApproxResult result;
    result.sample_rows = fanout->sample_rows();
    for (size_t i = 0; i < planned.items.size(); ++i) {
      if (planned.group_by.empty()) {
        GUS_ASSIGN_OR_RETURN(ApproxValue value,
                             EstimateItem(planned.items[i], soa.top,
                                          fanout->views()[i].view(), options));
        result.values.push_back(std::move(value));
      } else {
        GUS_ASSIGN_OR_RETURN(
            auto estimates,
            fanout->groups()[i].Finish(soa.top, options.confidence_level,
                                options.bound_kind));
        const std::string label =
            "SUM(" + planned.items[i].expr->ToString() + ")";
        const std::string group_prefix = planned.group_by + "=";
        result.values.reserve(result.values.size() + estimates.size());
        for (const GroupEstimate& ge : estimates) {
          ApproxValue& value = result.values.emplace_back();
          value.label = label;
          value.group = group_prefix;
          value.group += ge.key.ToString();
          value.value = ge.estimate;
          value.stddev = ge.stddev;
          value.lo = ge.interval.lo;
          value.hi = ge.interval.hi;
        }
      }
    }
    return result;
  });
}

/// Runs `planned` through the front door (ExecutePlanToSink) on
/// exec.engine into one merged ItemFanoutSink.
Result<std::unique_ptr<ItemFanoutSink>> ExecuteToFanout(
    const PlannedQuery& planned, const SoaResult& soa,
    ColumnarCatalog* columnar, uint64_t seed, const ExecOptions& exec) {
  Rng rng(seed);
  std::unique_ptr<MergeableBatchSink> sink;
  GUS_RETURN_NOT_OK(ExecutePlanToSink(
      planned.plan, columnar, &rng, ExecMode::kSampled, exec,
      [&planned, &soa](const BatchLayout& layout)
          -> Result<std::unique_ptr<MergeableBatchSink>> {
        GUS_ASSIGN_OR_RETURN(std::unique_ptr<ItemFanoutSink> fanout,
                             ItemFanoutSink::Make(layout, planned.items,
                                                  soa.top.schema(),
                                                  planned.group_by));
        return std::unique_ptr<MergeableBatchSink>(std::move(fanout));
      },
      &sink));
  return std::unique_ptr<ItemFanoutSink>(
      static_cast<ItemFanoutSink*>(sink.release()));
}

/// \brief Served path (ExecEngine::kServed): kMorselParallel at pinned
/// morsel geometry (ShardedExecOptions) fronted by the process-wide
/// approximate-view cache.
///
/// The cache entry is the merged ItemFanoutSink's SerializeState bundle.
/// Builder serialization round-trips bit-exactly, so a hit reproduces the
/// miss's ApproxResult to the last bit while executing nothing —
/// ExecStats' cache counters prove which path ran. Keyed on (sql +
/// estimator options, catalog content, seed, normalized morsel geometry);
/// the thread count is absent because a pinned morsel split makes the
/// result thread-count invariant.
Result<ApproxResult> RunServed(const PlannedQuery& planned,
                               const SoaResult& soa, ColumnarCatalog* columnar,
                               const std::string& sql, uint64_t seed,
                               const SboxOptions& options,
                               const ExecOptions& exec) {
  ViewCache* cache = ProcessViewCache();
  ViewCacheKey key;
  {
    WireWriter w;
    w.PutString(sql);
    w.PutDouble(options.confidence_level);
    w.PutU8(static_cast<uint8_t>(options.bound_kind));
    w.PutU8(options.subsample.has_value() ? 1 : 0);
    if (options.subsample.has_value()) {
      w.PutI64(options.subsample->target_rows);
      w.PutU64(options.subsample->seed);
    }
    key.query_fingerprint = WireChecksum(w.buffer());
  }
  GUS_ASSIGN_OR_RETURN(key.catalog_fingerprint,
                       PlanCatalogFingerprint(planned.plan, columnar));
  key.seed = seed;
  key.morsel_rows = ShardedExecOptions(exec).morsel_rows;
  {
    const double scale = 1.0;  // sqlish has no admission front door (yet)
    uint64_t bits = 0;
    std::memcpy(&bits, &scale, sizeof(bits));
    key.scale_bits = bits;
  }

  std::unique_ptr<ItemFanoutSink> fanout;
  std::optional<std::string> cached = cache->Lookup(key);
  if (cached.has_value()) {
    if (exec.stats != nullptr) ++exec.stats->cache_hits;
    GUS_ASSIGN_OR_RETURN(fanout,
                         ItemFanoutSink::DeserializeState(
                             *cached, planned.items.size(),
                             !planned.group_by.empty()));
  } else {
    ExecOptions pinned = ShardedExecOptions(exec);
    pinned.engine = ExecEngine::kMorselParallel;
    GUS_ASSIGN_OR_RETURN(fanout, ExecuteToFanout(planned, soa, columnar, seed,
                                                 pinned));
    if (exec.stats != nullptr) ++exec.stats->cache_misses;
    cache->Insert(key, fanout->SerializeState());
  }
  return EstimateFromBuilders(planned, soa, options, fanout.get(), exec.stats);
}

}  // namespace

Result<ApproxResult> RunApproxQuery(const std::string& sql,
                                    const Catalog& catalog, uint64_t seed,
                                    const SboxOptions& options,
                                    ExecEngine engine) {
  ExecOptions exec;
  exec.engine = engine;
  return RunApproxQuery(sql, catalog, seed, options, exec);
}

Result<ApproxResult> RunApproxQuery(const std::string& sql,
                                    const Catalog& catalog, uint64_t seed,
                                    const SboxOptions& options,
                                    const ExecOptions& exec) {
  GUS_RETURN_NOT_OK(exec.Validate());
  GUS_ASSIGN_OR_RETURN(ParsedQuery parsed, ParseQuery(sql));
  GUS_ASSIGN_OR_RETURN(PlannedQuery planned, PlanQuery(parsed, catalog));
  GUS_ASSIGN_OR_RETURN(SoaResult soa, SoaTransform(planned.plan));
  ColumnarCatalog columnar(&catalog);
  if (exec.engine == ExecEngine::kServed) {
    return RunServed(planned, soa, &columnar, sql, seed, options, exec);
  }
  GUS_ASSIGN_OR_RETURN(std::unique_ptr<ItemFanoutSink> fanout,
                       ExecuteToFanout(planned, soa, &columnar, seed, exec));
  return EstimateFromBuilders(planned, soa, options, fanout.get(), exec.stats);
}

}  // namespace sqlish
}  // namespace gus
