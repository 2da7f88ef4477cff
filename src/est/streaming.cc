#include "est/streaming.h"

#include <algorithm>
#include <cmath>

#include "algebra/ops.h"
#include "algebra/translate.h"
#include "est/unbiased.h"
#include "est/variance.h"
#include "est/wire.h"
#include "est/ys.h"
#include "plan/exec_stats.h"
#include "plan/vector_eval.h"
#include "util/hash.h"

namespace gus {

namespace {

constexpr char kNonNumericAggregate[] = "aggregate expression must be numeric";
constexpr char kMergeOnly[] =
    "deserialized estimator state is merge/finish-only (the bound aggregate "
    "expression does not travel on the wire)";

}  // namespace

Result<SampleViewBuilder> SampleViewBuilder::Make(const BatchLayout& layout,
                                                  const ExprPtr& f_expr,
                                                  const LineageSchema& schema) {
  SampleViewBuilder builder;
  GUS_ASSIGN_OR_RETURN(builder.source_,
                       MapAnalysisDims(layout.lineage_schema, schema));
  GUS_ASSIGN_OR_RETURN(builder.bound_, f_expr->Bind(layout.schema));
  ExprColumnFootprint(builder.bound_, layout.schema.num_columns(),
                      &builder.reads_);
  builder.view_.schema = schema;
  builder.view_.lineage.assign(schema.arity(), {});
  return builder;
}

Status SampleViewBuilder::Consume(const ColumnBatch& batch) {
  if (bound_ == nullptr) return Status::InvalidArgument(kMergeOnly);
  // Appends straight into the view's f column — no intermediate copies.
  GUS_RETURN_NOT_OK(EvalExprBatchToDoubles(bound_, batch,
                                           kNonNumericAggregate, &view_.f));
  const int n = static_cast<int>(source_.size());
  for (int d = 0; d < n; ++d) {
    auto& col = view_.lineage[d];
    col.reserve(col.size() + batch.num_rows());
    for (int64_t i = 0; i < batch.num_rows(); ++i) {
      col.push_back(batch.lineage_at(i, source_[d]));
    }
  }
  return Status::OK();
}

Status SampleViewBuilder::Merge(SampleViewBuilder&& other) {
  if (source_ != other.source_) {
    return Status::InvalidArgument(
        "cannot merge SampleViewBuilders over different layouts");
  }
  return view_.Merge(std::move(other.view_));
}

std::string SampleViewBuilder::SerializeState() const {
  WireWriter w;
  EncodeSourceMap(source_, &w);
  EncodeSampleView(view_, &w);
  return w.Take();
}

Result<SampleViewBuilder> SampleViewBuilder::DeserializeState(
    std::string_view payload) {
  WireReader r(payload);
  SampleViewBuilder builder;
  GUS_RETURN_NOT_OK(DecodeSourceMap(&r, &builder.source_));
  GUS_RETURN_NOT_OK(DecodeSampleView(&r, &builder.view_));
  GUS_RETURN_NOT_OK(r.ExpectEnd());
  if (builder.view_.schema.arity() !=
      static_cast<int>(builder.source_.size())) {
    return Status::InvalidArgument(
        "wire SampleViewBuilder source map does not match the view schema");
  }
  return builder;
}

Result<StreamingSboxEstimator> StreamingSboxEstimator::Make(
    const BatchLayout& layout, const ExprPtr& f_expr, const GusParams& gus,
    const SboxOptions& options) {
  StreamingSboxEstimator est;
  GUS_ASSIGN_OR_RETURN(est.source_,
                       MapAnalysisDims(layout.lineage_schema, gus.schema()));
  GUS_ASSIGN_OR_RETURN(est.bound_, f_expr->Bind(layout.schema));
  ExprColumnFootprint(est.bound_, layout.schema.num_columns(), &est.reads_);
  est.gus_ = gus;
  est.options_ = options;
  est.retained_.schema = gus.schema();
  est.retained_.lineage.assign(gus.schema().arity(), {});
  return est;
}

double StreamingSboxEstimator::InterimP() const {
  if (!options_.subsample.has_value()) return 1.0;
  const int64_t target = options_.subsample->target_rows;
  if (rows_seen_ <= target) return 1.0;
  const double ratio =
      static_cast<double>(target) / static_cast<double>(rows_seen_);
  return std::pow(ratio, 1.0 / gus_.schema().arity());
}

void StreamingSboxEstimator::Prune() {
  const double p = InterimP();
  if (p >= 1.0) return;
  const int n = gus_.schema().arity();
  int64_t w = 0;
  for (int64_t i = 0; i < retained_.num_rows(); ++i) {
    if (ustar_[i] >= p) continue;
    if (w != i) {
      retained_.f[w] = retained_.f[i];
      for (int d = 0; d < n; ++d) {
        retained_.lineage[d][w] = retained_.lineage[d][i];
      }
      ustar_[w] = ustar_[i];
    }
    ++w;
  }
  retained_.f.resize(w);
  for (int d = 0; d < n; ++d) retained_.lineage[d].resize(w);
  ustar_.resize(w);
}

Status StreamingSboxEstimator::Consume(const ColumnBatch& batch) {
  if (bound_ == nullptr) return Status::InvalidArgument(kMergeOnly);
  f_scratch_.clear();
  GUS_RETURN_NOT_OK(EvalExprBatchToDoubles(bound_, batch,
                                           kNonNumericAggregate,
                                           &f_scratch_));
  const std::vector<double>& f = f_scratch_;
  const int n = gus_.schema().arity();
  const bool subsampling = options_.subsample.has_value();
  const uint64_t seed = subsampling ? options_.subsample->seed : 0;
  // The retention threshold shrinks as rows_seen_ grows, so the value at
  // batch start over-approximates every per-row threshold in the batch:
  // hoisting it keeps the retained set a superset of the final filter's
  // (Finish() applies the exact final p) while avoiding a pow per row.
  const double p_batch = InterimP();
  for (int64_t i = 0; i < batch.num_rows(); ++i) {
    open_sum_ += f[i];
    ++open_rows_;
    ++rows_seen_;
    double u = 0.0;
    if (subsampling) {
      // Max over the per-dimension pseudo-random units: a row survives a
      // threshold p iff u < p, matching the Section 7 filter exactly.
      for (int d = 0; d < n; ++d) {
        const uint64_t dim_seed = HashCombine(seed, static_cast<uint64_t>(d));
        u = std::max(u, LineageUnitValue(dim_seed,
                                         batch.lineage_at(i, source_[d])));
      }
      if (u >= p_batch) continue;  // cannot survive the final filter
    }
    retained_.f.push_back(f[i]);
    for (int d = 0; d < n; ++d) {
      retained_.lineage[d].push_back(batch.lineage_at(i, source_[d]));
    }
    if (subsampling) ustar_.push_back(u);
  }
  if (subsampling) {
    const int64_t bound =
        std::max<int64_t>(2 * options_.subsample->target_rows, 1024);
    if (retained_.num_rows() > bound) Prune();
  }
  return Status::OK();
}

Status StreamingSboxEstimator::Merge(StreamingSboxEstimator&& other) {
  if (!(gus_.schema() == other.gus_.schema()) ||
      source_ != other.source_) {
    return Status::InvalidArgument(
        "cannot merge estimators with different analysis schemas");
  }
  const bool subsampling = options_.subsample.has_value();
  if (subsampling != other.options_.subsample.has_value() ||
      (subsampling &&
       (options_.subsample->target_rows != other.options_.subsample->target_rows ||
        options_.subsample->seed != other.options_.subsample->seed))) {
    return Status::InvalidArgument(
        "cannot merge estimators with different subsample configurations");
  }
  rows_seen_ += other.rows_seen_;
  // Segments concatenate instead of summing eagerly: the final fold in
  // Finish then depends only on the global segment sequence, never on how
  // segments were grouped into workers or shards.
  SealSegment();
  other.SealSegment();
  closed_sums_.insert(closed_sums_.end(), other.closed_sums_.begin(),
                      other.closed_sums_.end());
  GUS_RETURN_NOT_OK(retained_.Merge(std::move(other.retained_)));
  if (subsampling) {
    ustar_.insert(ustar_.end(), other.ustar_.begin(), other.ustar_.end());
    // The merged stream is longer, so the interim threshold tightened;
    // re-prune under the same bound discipline as Consume.
    const int64_t bound =
        std::max<int64_t>(2 * options_.subsample->target_rows, 1024);
    if (retained_.num_rows() > bound) Prune();
  }
  return Status::OK();
}

std::string StreamingSboxEstimator::SerializeState() const {
  WireWriter w;
  EncodeGusParams(gus_, &w);
  w.PutDouble(options_.confidence_level);
  w.PutU8(static_cast<uint8_t>(options_.bound_kind));
  w.PutU8(options_.subsample.has_value() ? 1 : 0);
  if (options_.subsample.has_value()) {
    w.PutI64(options_.subsample->target_rows);
    w.PutU64(options_.subsample->seed);
  }
  EncodeSourceMap(source_, &w);
  w.PutI64(rows_seen_);
  const std::vector<double> sums = SegmentSums();
  w.PutU64(sums.size());
  for (double s : sums) w.PutDouble(s);
  EncodeSampleView(retained_, &w);
  if (options_.subsample.has_value()) {
    // ustar_ and retained_ are index-aligned; the row count travels once,
    // inside the view encoding.
    for (double u : ustar_) w.PutDouble(u);
  }
  return w.Take();
}

Result<StreamingSboxEstimator> StreamingSboxEstimator::DeserializeState(
    std::string_view payload) {
  WireReader r(payload);
  StreamingSboxEstimator est;
  GUS_RETURN_NOT_OK(DecodeGusParams(&r, &est.gus_));
  GUS_RETURN_NOT_OK(r.ReadDouble(&est.options_.confidence_level));
  uint8_t bound_kind = 0, has_subsample = 0;
  GUS_RETURN_NOT_OK(r.ReadU8(&bound_kind));
  if (bound_kind > static_cast<uint8_t>(BoundKind::kChebyshev)) {
    return Status::InvalidArgument("wire SBox state has an unknown BoundKind");
  }
  est.options_.bound_kind = static_cast<BoundKind>(bound_kind);
  GUS_RETURN_NOT_OK(r.ReadU8(&has_subsample));
  if (has_subsample > 1) {
    return Status::InvalidArgument("wire SBox state has a malformed "
                                   "subsample flag");
  }
  if (has_subsample == 1) {
    SubsampleConfig config;
    GUS_RETURN_NOT_OK(r.ReadI64(&config.target_rows));
    GUS_RETURN_NOT_OK(r.ReadU64(&config.seed));
    if (config.target_rows < 1) {
      return Status::InvalidArgument(
          "wire SBox state has a non-positive subsample target");
    }
    est.options_.subsample = config;
  }
  GUS_RETURN_NOT_OK(DecodeSourceMap(&r, &est.source_));
  GUS_RETURN_NOT_OK(r.ReadI64(&est.rows_seen_));
  uint64_t num_segments = 0;
  GUS_RETURN_NOT_OK(r.ReadU64(&num_segments));
  if (num_segments > r.remaining() / 8) {
    return Status::InvalidArgument("truncated wire SBox segment sums");
  }
  est.closed_sums_.resize(num_segments);
  for (double& s : est.closed_sums_) GUS_RETURN_NOT_OK(r.ReadDouble(&s));
  GUS_RETURN_NOT_OK(DecodeSampleView(&r, &est.retained_));
  if (!(est.retained_.schema == est.gus_.schema())) {
    return Status::InvalidArgument(
        "wire SBox state: retained view schema does not match the GUS "
        "schema");
  }
  if (est.rows_seen_ < est.retained_.num_rows()) {
    return Status::InvalidArgument(
        "wire SBox state: retained more rows than were seen");
  }
  if (has_subsample == 1) {
    est.ustar_.resize(est.retained_.num_rows());
    for (double& u : est.ustar_) GUS_RETURN_NOT_OK(r.ReadDouble(&u));
  }
  GUS_RETURN_NOT_OK(r.ExpectEnd());
  return est;
}

void StreamingSboxEstimator::SealSegment() {
  if (open_rows_ == 0) return;
  closed_sums_.push_back(open_sum_);
  open_sum_ = 0.0;
  open_rows_ = 0;
}

std::vector<double> StreamingSboxEstimator::SegmentSums() const {
  std::vector<double> sums = closed_sums_;
  if (open_rows_ > 0) sums.push_back(open_sum_);
  return sums;
}

Status StreamingSboxEstimator::CompactDesign(const GusParams& outer) {
  GUS_ASSIGN_OR_RETURN(gus_, GusCompact(outer, gus_));
  return Status::OK();
}

Result<SboxReport> StreamingSboxEstimator::Finish() {
  if (gus_.a() <= 0.0) {
    return Status::InvalidArgument("estimator needs a > 0");
  }
  SboxReport report;
  report.sample_rows = rows_seen_;
  // Left fold in segment (= stream) order; a lone segment reproduces the
  // serial single-accumulator sum bit for bit.
  double sum_f = 0.0;
  for (double s : SegmentSums()) sum_f += s;
  report.estimate = sum_f / gus_.a();

  // Assemble the variance view + GUS exactly as SboxEstimate does.
  SampleView final_view;
  const SampleView* variance_view = &retained_;
  GusParams analysis = gus_;
  if (options_.subsample.has_value() &&
      rows_seen_ > options_.subsample->target_rows) {
    const int n = gus_.schema().arity();
    const double ratio =
        static_cast<double>(options_.subsample->target_rows) /
        static_cast<double>(rows_seen_);
    const double p_per_dim = std::pow(ratio, 1.0 / n);
    final_view.schema = gus_.schema();
    final_view.lineage.assign(n, {});
    for (int64_t i = 0; i < retained_.num_rows(); ++i) {
      if (ustar_[i] >= p_per_dim) continue;
      final_view.f.push_back(retained_.f[i]);
      for (int d = 0; d < n; ++d) {
        final_view.lineage[d].push_back(retained_.lineage[d][i]);
      }
    }
    std::vector<DimBernoulli> dims;
    for (const auto& rel : gus_.schema().relations()) {
      dims.push_back({rel, p_per_dim});
    }
    GUS_ASSIGN_OR_RETURN(GusParams sub_gus,
                         MultiDimBernoulliGus(gus_.schema(), dims));
    GUS_ASSIGN_OR_RETURN(analysis, GusCompact(sub_gus, gus_));
    variance_view = &final_view;
  }
  report.variance_rows = variance_view->num_rows();
  report.analysis_gus = analysis;

  GUS_ASSIGN_OR_RETURN(const std::vector<double> Y,
                       ComputeAllYS(*variance_view));
  GUS_ASSIGN_OR_RETURN(report.y_hat, UnbiasedYEstimates(analysis, Y));
  GUS_ASSIGN_OR_RETURN(double var, VarianceFromY(gus_, report.y_hat));
  report.variance = std::max(0.0, var);
  report.stddev = std::sqrt(report.variance);
  GUS_ASSIGN_OR_RETURN(
      report.interval,
      MakeInterval(report.estimate, report.variance,
                   options_.confidence_level, options_.bound_kind));
  return report;
}

Result<SboxReport> StreamingSboxEstimator::FinishDegraded(
    std::vector<StreamingSboxEstimator> shard_states,
    const GusParams& survival, int surviving, int total) {
  if (shard_states.empty() ||
      static_cast<int>(shard_states.size()) != surviving) {
    return Status::InvalidArgument(
        "degraded finish: got " + std::to_string(shard_states.size()) +
        " shard states for " + std::to_string(surviving) + " survivors");
  }
  if (surviving < 2 || surviving >= total) {
    return Status::InvalidArgument(
        "degraded finish needs 2 <= surviving < total, got " +
        std::to_string(surviving) + " of " + std::to_string(total));
  }
  const GusParams& base = shard_states[0].gus_;
  const SboxOptions& options = shard_states[0].options_;
  if (base.a() <= 0.0) {
    return Status::InvalidArgument("estimator needs a > 0");
  }
  for (size_t k = 1; k < shard_states.size(); ++k) {
    if (!(shard_states[k].gus_.schema() == base.schema())) {
      return Status::InvalidArgument(
          "degraded finish: shard estimator schemas diverge");
    }
  }
  if (!(survival.schema() == base.schema())) {
    return Status::InvalidArgument(
        "degraded finish: survival quasi-operator schema mismatch");
  }

  // Point estimate: fold the global segment sequence (concatenation of the
  // surviving shards' segments, in shard order) and divide by the composed
  // a — the same arithmetic the survival-compacted merge performs, so the
  // mean-over-kills identity holds to the last bit.
  SboxReport report;
  double sum_f = 0.0;
  int64_t rows = 0;
  std::vector<double> shard_totals;
  shard_totals.reserve(shard_states.size());
  for (const StreamingSboxEstimator& s : shard_states) {
    double total_k = 0.0;
    for (double v : s.SegmentSums()) total_k += v;
    shard_totals.push_back(total_k);
    sum_f += total_k;
    rows += s.rows_seen_;
  }
  report.sample_rows = rows;
  report.estimate = sum_f / (survival.a() * base.a());

  // Section-7 threshold for the merged stream, applied per shard: the
  // filter is monotone in p, so filtering each shard's retained rows at
  // the global threshold yields exactly the merged retained set.
  const int n = base.schema().arity();
  GusParams analysis = base;
  double p_per_dim = 1.0;
  const bool subsampled = options.subsample.has_value() &&
                          rows > options.subsample->target_rows;
  if (subsampled) {
    const double ratio =
        static_cast<double>(options.subsample->target_rows) /
        static_cast<double>(rows);
    p_per_dim = std::pow(ratio, 1.0 / n);
    std::vector<DimBernoulli> dims;
    for (const auto& rel : base.schema().relations()) {
      dims.push_back({rel, p_per_dim});
    }
    GUS_ASSIGN_OR_RETURN(GusParams sub_gus,
                         MultiDimBernoulliGus(base.schema(), dims));
    GUS_ASSIGN_OR_RETURN(analysis, GusCompact(sub_gus, base));
  }

  // Pair statistics split by co-survival class. y_S is a sum over ordered
  // row pairs, so y_S(merged) - sum_k y_S(shard k) is exactly the
  // cross-shard pair mass.
  const size_t num_subsets = base.schema().num_subsets();
  std::vector<double> y_within(num_subsets, 0.0);
  SampleView merged_view;
  merged_view.schema = base.schema();
  merged_view.lineage.assign(n, {});
  for (const StreamingSboxEstimator& s : shard_states) {
    SampleView view_k;
    view_k.schema = base.schema();
    view_k.lineage.assign(n, {});
    for (int64_t i = 0; i < s.retained_.num_rows(); ++i) {
      if (subsampled && s.ustar_[i] >= p_per_dim) continue;
      view_k.f.push_back(s.retained_.f[i]);
      merged_view.f.push_back(s.retained_.f[i]);
      for (int d = 0; d < n; ++d) {
        view_k.lineage[d].push_back(s.retained_.lineage[d][i]);
        merged_view.lineage[d].push_back(s.retained_.lineage[d][i]);
      }
    }
    GUS_ASSIGN_OR_RETURN(const std::vector<double> y_k,
                         ComputeAllYS(view_k));
    for (size_t mask = 0; mask < num_subsets; ++mask) {
      y_within[mask] += y_k[mask];
    }
  }
  GUS_ASSIGN_OR_RETURN(const std::vector<double> y_merged,
                       ComputeAllYS(merged_view));
  report.variance_rows = merged_view.num_rows();
  report.analysis_gus = analysis;

  // Horvitz-Thompson correction at each class's true co-survival
  // probability recovers an unbiased estimate of the complete sample's
  // Y table; the base-design recursion then de-biases base sampling.
  const double m = static_cast<double>(surviving);
  const double nn = static_cast<double>(total);
  const double w_within = nn / m;
  const double w_cross = (nn * (nn - 1.0)) / (m * (m - 1.0));
  std::vector<double> y_corrected(num_subsets, 0.0);
  for (size_t mask = 0; mask < num_subsets; ++mask) {
    y_corrected[mask] = w_within * y_within[mask] +
                        w_cross * (y_merged[mask] - y_within[mask]);
  }
  GUS_ASSIGN_OR_RETURN(report.y_hat,
                       UnbiasedYEstimates(analysis, y_corrected));
  GUS_ASSIGN_OR_RETURN(double var_base, VarianceFromY(base, report.y_hat));

  // Between-shard survival variance: X_p scales a uniform WOR m-of-N draw
  // over the shard contributions T_k / a.
  const double t_bar = sum_f / m;
  double s2 = 0.0;
  for (double t : shard_totals) s2 += (t - t_bar) * (t - t_bar);
  s2 /= (m - 1.0);
  const double var_survival =
      nn * nn * (1.0 / m - 1.0 / nn) * s2 / (base.a() * base.a());

  report.variance = std::max(0.0, var_base) + var_survival;
  report.stddev = std::sqrt(report.variance);
  GUS_ASSIGN_OR_RETURN(
      report.interval,
      MakeInterval(report.estimate, report.variance,
                   options.confidence_level, options.bound_kind));
  return report;
}

void StreamingSboxEstimator::Reset() {
  // Everything Consume/Merge/Finish accumulate goes back to the
  // just-Made state; gus_/options_/source_/bound_/reads_ are the
  // immutable binding and stay.
  rows_seen_ = 0;
  closed_sums_.clear();
  open_sum_ = 0.0;
  open_rows_ = 0;
  f_scratch_.clear();
  retained_.schema = gus_.schema();
  retained_.lineage.assign(gus_.schema().arity(), {});
  retained_.f.clear();
  ustar_.clear();
}

Result<SboxReport> EstimatePlanParallel(const PlanPtr& plan,
                                        ColumnarCatalog* catalog, Rng* rng,
                                        const ExprPtr& f_expr,
                                        const GusParams& gus,
                                        const SboxOptions& options,
                                        ExecMode mode,
                                        const ExecOptions& exec) {
  std::unique_ptr<MergeableBatchSink> sink;
  GUS_RETURN_NOT_OK(ExecutePlanToSink(
      plan, catalog, rng, mode, exec,
      [&](const BatchLayout& layout)
          -> Result<std::unique_ptr<MergeableBatchSink>> {
        GUS_ASSIGN_OR_RETURN(
            StreamingSboxEstimator est,
            StreamingSboxEstimator::Make(layout, f_expr, gus, options));
        return std::unique_ptr<MergeableBatchSink>(
            new StreamingSboxEstimator(std::move(est)));
      },
      &sink));
  auto* est = static_cast<StreamingSboxEstimator*>(sink.get());
  return TimeEstimate(exec.stats, [est] { return est->Finish(); });
}

}  // namespace gus
