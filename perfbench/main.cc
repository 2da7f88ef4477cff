// perfbench — the repository benchmark's measuring program.
//
//   perfbench --workload <q1_join|sql_mix|served_repeat|segment_scan>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--smoke] [--perturb-reference] [--work-dir <dir>]
//             [--git-sha <sha>] [--source-digest <hex>]
//
// One run: set the workload up several times (setup_s is the median), run
// the closed loop for --seconds with tracing off, check a fixed subset of
// answers against the reference path, and — with --trace 1 — run a fixed
// number of further queries with spans and library counters on, plus the
// layer probes. Prints one JSON record on stdout (perfbench/run.py turns
// it into the benchmark's result line). Exit code 0: every answer checked
// equal to its reference and no query failed; 1: a query failed or an
// answer differed (the record is still printed); 2: the run could not be
// set up.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "harness.h"
#include "kernels/simd/simd_dispatch.h"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

/// Set-up repetitions per run; setup_s is their median.
constexpr int kSetupReps = 3;
/// Queries a run completes at least, so >= 10 samples lie beyond p90.
constexpr int64_t kMinQueries = 100;
/// Traced-run queries (a fixed count, so the traced counters repeat
/// exactly for a fixed seed), and how many of them are probed.
constexpr int64_t kTracedQueries = 30;
constexpr int64_t kProbedQueries = 6;
/// Index offset of the traced queries: fresh seeds, so the served view
/// cache does not answer them from the timed phase. A multiple of 10
/// keeps served_repeat's hit schedule.
constexpr int64_t kTracedIndexBase = 1000000;

struct Args {
  RunOptions run;
  double seconds = 10.0;
  bool trace = false;
  bool perturb_reference = false;
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--smoke] [--perturb-reference] "
               "[--work-dir <dir>] [--git-sha <sha>] [--source-digest <hex>]\n",
               why);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  args.run.work_dir = ".bench_work";
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args.run.smoke = true;
      continue;
    }
    if (flag == "--perturb-reference") {
      args.perturb_reference = true;
      continue;
    }
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.run.workload = value;
    } else if (flag == "--seed") {
      args.run.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') Usage("--seed takes an unsigned integer");
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.seconds > 0.0)) {
        Usage("--seconds takes a positive number");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("--trace takes 0 or 1");
      args.trace = value == "1";
    } else if (flag == "--work-dir") {
      args.run.work_dir = value;
    } else if (flag == "--git-sha") {
      args.git_sha = value;
    } else if (flag == "--source-digest") {
      args.source_digest = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.run.workload.empty()) Usage("--workload is required");
  return args;
}

std::unique_ptr<Workload> MakeWorkload(const RunOptions& options) {
  if (options.workload == "q1_join") return MakeQ1Join(options);
  if (options.workload == "sql_mix") return MakeSqlMix(options);
  if (options.workload == "served_repeat") return MakeServedRepeat(options);
  if (options.workload == "segment_scan") return MakeSegmentScan(options);
  Usage(("unknown workload " + options.workload).c_str());
}

/// What one closed-loop phase measured.
struct Phase {
  std::vector<double> latencies_ms;  ///< successful queries
  /// answers[client][index] for the first `keep_answers` indices of each
  /// client (a failed query leaves an empty answer).
  std::vector<std::vector<Answer>> answers;
  /// (hi - lo) / (2 |value|) of every value of the first `min_per_client`
  /// answers of each client, skipping QUANTILE items and zero values.
  std::vector<double> ci_rel_halfwidths;
  int64_t attempted = 0;
  int64_t failed = 0;
  double wall_s = 0.0;
};

/// \brief Runs clients() closed-loop clients. Each stops once `seconds`
/// have passed and it has completed `min_per_client` queries, or at
/// `max_per_client` queries (0 = no cap). Query indices start at `base`.
/// Only a fixed prefix of answers is kept, so the harness's own memory does
/// not grow with the run length.
Phase RunPhase(Workload* workload, double seconds, int64_t min_per_client,
               int64_t max_per_client, int64_t base, int64_t keep_answers,
               Tracer* tracer, LayerRecorder* layers) {
  const int clients = workload->clients();
  std::vector<std::vector<double>> latencies(clients);
  std::vector<std::vector<Answer>> answers(clients);
  std::vector<std::vector<double>> widths(clients);
  std::vector<int64_t> attempted(clients, 0);
  std::vector<int64_t> failed(clients, 0);
  const int64_t start = NowNs();
  const auto deadline = start + static_cast<int64_t>(seconds * 1e9);
  auto client_loop = [&](int c) {
    for (int64_t i = 0;; ++i) {
      if (max_per_client > 0 && i >= max_per_client) break;
      if (i >= min_per_client && NowNs() >= deadline) break;
      const int64_t t0 = NowNs();
      gus::Result<Answer> answer = [&] {
        Tracer::Scope span(tracer, "query", base + i);
        return workload->Run(c, base + i, tracer, layers);
      }();
      const double ms = MsSince(t0);
      ++attempted[c];
      if (!answer.ok()) {
        std::fprintf(stderr, "perfbench: query %d/%lld failed: %s\n", c,
                     static_cast<long long>(base + i),
                     answer.status().ToString().c_str());
        ++failed[c];
        if (i < keep_answers) answers[c].emplace_back();
        continue;
      }
      latencies[c].push_back(ms);
      if (i < min_per_client) {
        for (const AnswerValue& v : answer->values) {
          if (v.quantile || v.value == 0.0) continue;
          widths[c].push_back((v.hi - v.lo) / (2.0 * std::fabs(v.value)));
        }
      }
      if (i < keep_answers) answers[c].push_back(std::move(answer).ValueOrDie());
    }
  };
  std::vector<std::thread> threads;
  for (int c = 1; c < clients; ++c) threads.emplace_back(client_loop, c);
  client_loop(0);
  for (std::thread& t : threads) t.join();

  Phase phase;
  phase.wall_s = MsSince(start) / 1e3;
  for (int c = 0; c < clients; ++c) {
    phase.latencies_ms.insert(phase.latencies_ms.end(), latencies[c].begin(),
                              latencies[c].end());
    phase.ci_rel_halfwidths.insert(phase.ci_rel_halfwidths.end(),
                                   widths[c].begin(), widths[c].end());
    phase.attempted += attempted[c];
    phase.failed += failed[c];
  }
  phase.answers = std::move(answers);
  return phase;
}

double PeakRssMiB() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string UnitOf(const std::string& name) {
  static const std::map<std::string, std::string> kExplicit = {
      {"throughput_qps", "1/s"},       {"peak_rss_mb", "MiB"},
      {"success_rate", "ratio"},       {"ci_rel_halfwidth", "ratio"},
      {"plan.worker_imbalance", "ratio"}};
  const auto it = kExplicit.find(name);
  if (it != kExplicit.end()) return it->second;
  auto ends_with = [&](const char* suffix) {
    const size_t n = std::strlen(suffix);
    return name.size() >= n && name.compare(name.size() - n, n, suffix) == 0;
  };
  if (ends_with("_ms")) return "ms";
  if (ends_with("_s")) return "s";
  if (ends_with("_ratio")) return "ratio";
  if (ends_with("_bytes") || ends_with("bytes_read")) return "bytes";
  return "count";
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonMetrics(const std::map<std::string, double>& metrics) {
  std::string out = "{";
  for (const auto& [name, value] : metrics) {
    if (out.size() > 1) out += ", ";
    out += JsonString(name) + ": {\"value\": " + JsonNumber(value) +
           ", \"unit\": " + JsonString(UnitOf(name)) + "}";
  }
  return out + "}";
}

/// This run's scratch directory, removed however the run ends.
std::string g_run_dir;

void RemoveRunDir() {
  std::error_code ignored;
  if (!g_run_dir.empty()) std::filesystem::remove_all(g_run_dir, ignored);
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  RunOptions options = args.run;
  options.work_dir += "/" + options.workload + "-" + std::to_string(getpid());
  std::filesystem::create_directories(options.work_dir);
  g_run_dir = options.work_dir;
  std::atexit(RemoveRunDir);

  // Set up kSetupReps times from scratch and keep the last instance; the
  // earlier ones are torn down first so only one is ever resident.
  const int reps = options.smoke ? 1 : kSetupReps;
  std::vector<double> setup_s;
  std::map<std::string, std::vector<double>> setup_phases;
  std::unique_ptr<Workload> workload;
  for (int r = 0; r < reps; ++r) {
    workload.reset();
    workload = MakeWorkload(options);
    SetupTimes times;
    const int64_t start = NowNs();
    CheckOk(workload->Setup(&times), "setup");
    setup_s.push_back(MsSince(start) / 1e3);
    setup_phases["data.gen_s"].push_back(times.gen_s);
    setup_phases["store.write_s"].push_back(times.write_s);
    setup_phases["serve.start_s"].push_back(times.start_s);
  }

  const int clients = workload->clients();
  const int64_t min_per_client =
      std::max((options.smoke ? 10 : kMinQueries + clients - 1) / clients,
               workload->checked_per_client());
  const Phase timed =
      RunPhase(workload.get(), args.seconds, min_per_client, 0, 0,
               workload->checked_per_client(), nullptr, nullptr);

  // Reference checks, outside the timed region.
  int64_t wrong = 0;
  bool perturbed = false;
  for (int c = 0; c < clients; ++c) {
    for (int64_t i = 0; i < workload->checked_per_client(); ++i) {
      const Answer& got = timed.answers[c][i];
      if (got.values.empty()) continue;  // failed; already counted
      gus::Result<Answer> want = workload->Reference(c, i);
      if (!want.ok()) {
        std::fprintf(stderr, "perfbench: reference %d/%lld failed: %s\n", c,
                     static_cast<long long>(i),
                     want.status().ToString().c_str());
        ++wrong;
        continue;
      }
      if (args.perturb_reference && !perturbed) {
        // Self-test hook: a reference off by one ulp must be caught.
        double& v = want->values.front().value;
        v = std::nextafter(v, v + 1.0);
        perturbed = true;
      }
      if (!SameAnswer(got, *want)) {
        std::fprintf(stderr,
                     "perfbench: answer %d/%lld differs from its reference\n",
                     c, static_cast<long long>(i));
        ++wrong;
      }
    }
  }

  const int64_t completed = timed.attempted - timed.failed;
  int64_t bad = timed.failed + wrong;
  std::map<std::string, double> metrics;
  metrics["latency_p50_ms"] = Median(timed.latencies_ms);
  metrics["latency_p90_ms"] = Percentile(timed.latencies_ms, 0.90);
  metrics["throughput_qps"] = static_cast<double>(completed) / timed.wall_s;
  metrics["success_rate"] = static_cast<double>(timed.attempted - bad) /
                            static_cast<double>(timed.attempted);
  metrics["ci_rel_halfwidth"] = Median(timed.ci_rel_halfwidths);
  metrics["setup_s"] = Median(setup_s);

  std::map<std::string, double> layers;
  if (args.trace) {
    Tracer tracer;
    LayerRecorder recorder;
    workload->BeginTrace();
    // Whole multiples of 10 per client keep served_repeat's 30% hit
    // schedule exact.
    const int64_t per_client =
        options.smoke ? 10 : (kTracedQueries / clients + 9) / 10 * 10;
    const Phase traced = RunPhase(workload.get(), 0.0, per_client, per_client,
                                  kTracedIndexBase, 0, &tracer, &recorder);
    for (int c = 0; c < clients; ++c) {
      for (int64_t i = 0; i < kProbedQueries / clients; ++i) {
        CheckOk(workload->Probe(c, kTracedIndexBase + i, &tracer, &recorder),
                "layer probe");
      }
    }
    workload->FinishLayers(traced.attempted, &recorder);
    layers = recorder.Finish();
    for (const auto& [name, self_ms] : tracer.SelfMsByName()) {
      if (name != "query") layers[name + "_ms"] = Median(self_ms);
    }
    for (const auto& [name, values] : setup_phases) {
      layers[name] = Median(values);
    }
    layers["trace.overhead_ratio"] =
        Median(traced.latencies_ms) / metrics["latency_p50_ms"];
    if (!tracer.WriteJsonLines(args.run.work_dir + "/trace_" +
                               options.workload + ".jsonl")) {
      std::fprintf(stderr, "perfbench: could not write the span file\n");
    }
    bad += traced.failed;
  }
  // Last, so it covers every phase of the run.
  metrics["peak_rss_mb"] = PeakRssMiB();

  const bool correct = bad == 0;
  std::string provenance =
      "{\"hardware_threads\": " +
      std::to_string(std::thread::hardware_concurrency()) +
      ", \"simd_tier\": " +
      JsonString(gus::simd::SimdTierName(gus::simd::ActiveSimdTier())) +
      ", \"gus_simd_env\": " +
      JsonString(std::getenv("GUS_SIMD") ? std::getenv("GUS_SIMD") : "") +
      ", \"compiler\": " + JsonString(PERFBENCH_COMPILER) +
      ", \"compiler_version_string\": " + JsonString(__VERSION__) +
      ", \"build_type\": " + JsonString(PERFBENCH_BUILD_TYPE) +
      ", \"git_sha\": " + JsonString(args.git_sha) +
      ", \"source_digest\": " + JsonString(args.source_digest) +
      ", \"workload_seed\": " + std::to_string(options.seed) + "}";
  std::printf(
      "{\"workload\": %s, \"seed\": %llu, \"trace\": %d, \"smoke\": %d, "
      "\"provenance\": %s, \"correct\": %s, \"attempted\": %lld, "
      "\"failed\": %lld, \"wrong_answers\": %lld, \"checked\": %lld, "
      "\"timed_wall_s\": %s, \"metrics\": %s, \"layers\": %s}\n",
      JsonString(options.workload).c_str(),
      static_cast<unsigned long long>(options.seed), args.trace ? 1 : 0,
      options.smoke ? 1 : 0, provenance.c_str(), correct ? "true" : "false",
      static_cast<long long>(timed.attempted),
      static_cast<long long>(bad), static_cast<long long>(wrong),
      static_cast<long long>(workload->checked_per_client() * clients),
      JsonNumber(timed.wall_s).c_str(), JsonMetrics(metrics).c_str(),
      JsonMetrics(layers).c_str());
  std::fflush(stdout);

  workload.reset();
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
