// Shared types of the repository benchmark (see perfbench/README.md).
//
// A workload builds its inputs from the workload seed, answers queries on
// the path users call (the timed closed loop), answers the same queries
// again on a reference path (the correctness check), and, in the traced
// run, times the layers underneath with spans and library counters. The
// runner in main.cc owns the loop, the clocks and the report; workloads
// own only the calls into libgus.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "est/sbox.h"
#include "plan/exec_stats.h"
#include "plan/executor.h"
#include "trace.h"
#include "util/hash.h"
#include "util/status.h"

namespace perfbench {

/// Sizes and knobs a run derives from the command line.
struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  /// Tiny inputs for the harness self-test; the timings mean nothing.
  bool smoke = false;
  /// Scratch directory inside the checkout (segments, sockets).
  std::string work_dir;
};

/// One estimated value: an SBox report or one sqlish select item (one group).
struct AnswerValue {
  std::string label;
  double value = 0.0;
  double lo = 0.0;
  double hi = 0.0;
  /// QUANTILE items carry a point interval and are skipped by the CI metric.
  bool quantile = false;
};

/// What one query returned, in the form the checks compare.
struct Answer {
  std::vector<AnswerValue> values;
  int64_t sample_rows = 0;
};

/// Bit-for-bit equality of labels, values, intervals and sample size.
bool SameAnswer(const Answer& a, const Answer& b);

/// Set-up phases a workload reports besides the total (0 = not part of it).
struct SetupTimes {
  double gen_s = 0.0;    ///< GenerateTpch
  double write_s = 0.0;  ///< WriteCatalogSegments
  double start_s = 0.0;  ///< WorkerDaemon::Start, all daemons
};

/// \brief Per-layer numbers a workload collects in the traced run.
///
/// Add() records one sample per query (reported as the median); Count()
/// sums over the traced phase; Set() records a final value. Thread-safe.
class LayerRecorder {
 public:
  void Add(const std::string& name, double value) {
    std::lock_guard<std::mutex> lock(mu_);
    samples_[name].push_back(value);
  }
  void Count(const std::string& name, double value) {
    std::lock_guard<std::mutex> lock(mu_);
    totals_[name] += value;
  }
  void Set(const std::string& name, double value) {
    std::lock_guard<std::mutex> lock(mu_);
    totals_[name] = value;
  }

  /// Medians of the samples, overlaid by the totals.
  std::map<std::string, double> Finish() const;

 private:
  mutable std::mutex mu_;  // guards samples_, totals_
  std::map<std::string, std::vector<double>> samples_;
  std::map<std::string, double> totals_;
};

/// \brief One benchmark workload. Run() must be safe to call concurrently
/// from clients() threads; everything else runs on the main thread.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Generates the data from the seed, ingests it and runs the warm-up
  /// queries, so the timed phase starts steady.
  virtual gus::Status Setup(SetupTimes* times) = 0;

  /// Closed-loop client threads.
  virtual int clients() const { return 1; }

  /// \brief Answers query `index` of `client` on the measured path.
  ///
  /// With a tracer, wraps the library call in a span named after its layer
  /// and records library counters into `layers`; both are null in the
  /// timed (untraced) phase.
  virtual gus::Result<Answer> Run(int client, int64_t index, Tracer* tracer,
                                  LayerRecorder* layers) = 0;

  /// The same query on the reference path (outside any timed region).
  virtual gus::Result<Answer> Reference(int client, int64_t index) = 0;

  /// Queries per client, from index 0, that are checked against Reference.
  virtual int64_t checked_per_client() const = 0;

  /// \brief Traced run only: times the layers under query (client, index)
  /// with calls of the benchmark's own into the modules' public functions.
  virtual gus::Status Probe(int client, int64_t index, Tracer* tracer,
                            LayerRecorder* layers) = 0;

  /// Traced run only: called before the traced phase starts.
  virtual void BeginTrace() {}

  /// Traced run only: counters read once after the traced phase.
  virtual void FinishLayers(int64_t traced_queries, LayerRecorder* layers) {
    (void)traced_queries;
    (void)layers;
  }
};

std::unique_ptr<Workload> MakeQ1Join(const RunOptions& options);
std::unique_ptr<Workload> MakeSqlMix(const RunOptions& options);
std::unique_ptr<Workload> MakeServedRepeat(const RunOptions& options);
std::unique_ptr<Workload> MakeSegmentScan(const RunOptions& options);

/// Worker threads the workloads pin (the benchmark's 4-thread host shape).
inline constexpr int kThreads = 4;

/// Independent sub-seed for stream `stream` of the workload seed.
inline uint64_t DeriveSeed(uint64_t seed, uint64_t stream) {
  return gus::HashCombine(gus::Mix64(seed), stream);
}

/// The seed of query `index` of `client`: a pure function of the workload
/// seed, so every run with one seed issues the identical queries.
inline uint64_t QuerySeed(uint64_t seed, int client, int64_t index) {
  return DeriveSeed(seed, 0x51ULL << 56 | static_cast<uint64_t>(client) << 40 |
                              static_cast<uint64_t>(index));
}

/// The answer form of an SBox report.
Answer AnswerFromReport(const gus::SboxReport& report);

/// Records the plan-layer phases and counters of one execution.
void RecordExecStats(const gus::ExecStats& stats, LayerRecorder* layers);

/// \brief Generates the TPC-H-like catalog at `orders` orders from the
/// workload seed (parallel generator layout), timing it into
/// `times->gen_s`.
gus::Catalog GenerateCatalog(int64_t orders, uint64_t seed,
                             SetupTimes* times);

double Median(std::vector<double> values);

/// Nearest-rank percentile, q in (0, 1].
double Percentile(std::vector<double> values, double q);

/// Milliseconds since `start`.
double MsSince(int64_t start_ns);

/// Exits the run with code 2 and `what` on a set-up or probe error (the
/// benchmark cannot measure anything without its inputs).
void CheckOk(const gus::Status& status, const char* what);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
