#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "data/tpch_gen.h"
#include "harness.h"
#include "util/thread_pool.h"

namespace perfbench {

namespace {

uint64_t Bits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

}  // namespace

bool SameAnswer(const Answer& a, const Answer& b) {
  if (a.sample_rows != b.sample_rows || a.values.size() != b.values.size()) {
    return false;
  }
  for (size_t i = 0; i < a.values.size(); ++i) {
    const AnswerValue& x = a.values[i];
    const AnswerValue& y = b.values[i];
    if (x.label != y.label || Bits(x.value) != Bits(y.value) ||
        Bits(x.lo) != Bits(y.lo) || Bits(x.hi) != Bits(y.hi)) {
      return false;
    }
  }
  return true;
}

std::map<std::string, double> LayerRecorder::Finish() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, double> out;
  for (const auto& [name, values] : samples_) out[name] = Median(values);
  for (const auto& [name, value] : totals_) out[name] = value;
  return out;
}

Answer AnswerFromReport(const gus::SboxReport& report) {
  Answer answer;
  answer.values.push_back(AnswerValue{"SUM", report.estimate,
                                      report.interval.lo, report.interval.hi,
                                      false});
  answer.sample_rows = report.sample_rows;
  return answer;
}

void RecordExecStats(const gus::ExecStats& stats, LayerRecorder* layers) {
  layers->Add("plan.prepare_ms", stats.prepare_ms);
  layers->Add("plan.morsel_loop_ms", stats.parallel_ms);
  layers->Add("plan.sink_fold_ms", stats.sink_fold_ms);
  layers->Add("plan.rows_emitted", static_cast<double>(stats.rows_emitted));
  const int64_t sinks = stats.sinks_created + stats.sinks_recycled;
  if (sinks > 0) {
    layers->Add("plan.sink_recycle_ratio",
                static_cast<double>(stats.sinks_recycled) /
                    static_cast<double>(sinks));
  }
  int64_t total = 0;
  int64_t busiest = 0;
  for (const int64_t morsels : stats.worker_morsels) {
    total += morsels;
    busiest = std::max(busiest, morsels);
  }
  if (total > 0) {
    const double mean = static_cast<double>(total) /
                        static_cast<double>(stats.worker_morsels.size());
    layers->Add("plan.worker_imbalance", static_cast<double>(busiest) / mean);
  }
  layers->Count("plan.pool_threads_spawned",
                static_cast<double>(stats.pool_threads_spawned));
}

gus::Catalog GenerateCatalog(int64_t orders, uint64_t seed,
                             SetupTimes* times) {
  gus::TpchConfig config;
  config.num_orders = orders;
  config.num_customers = std::max<int64_t>(1, orders / 10);
  config.num_parts = 60;
  config.max_lineitems_per_order = 7;
  config.seed = DeriveSeed(seed, 1);
  // Any gen_threads >= 2 selects the same (parallel) instance.
  config.gen_threads = std::max(2, gus::ThreadPool::HardwareThreads());
  const int64_t start = NowNs();
  gus::TpchData data = gus::GenerateTpch(config);
  times->gen_s += MsSince(start) / 1e3;
  // Moved rather than copied (TpchData::MakeCatalog copies): the row form
  // of the big scales is the largest allocation of a run.
  gus::Catalog catalog;
  catalog.emplace("l", std::move(data.lineitem));
  catalog.emplace("o", std::move(data.orders));
  catalog.emplace("c", std::move(data.customer));
  catalog.emplace("p", std::move(data.part));
  return catalog;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index = static_cast<size_t>(std::max(1.0, rank)) - 1;
  return values[std::min(index, values.size() - 1)];
}

double MsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e6;
}

void CheckOk(const gus::Status& status, const char* what) {
  if (status.ok()) return;
  std::fprintf(stderr, "perfbench: %s failed: %s\n", what,
               status.ToString().c_str());
  std::exit(2);
}

}  // namespace perfbench
