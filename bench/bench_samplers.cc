// A3 — Ablation: physical sampler throughput (tuples/second) for every
// sampling operator in the library.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "sampling/samplers.h"
#include "util/random.h"

namespace gus {

using bench::ValueOrAbort;

namespace {

Relation MakeTable(int64_t n) {
  std::vector<Row> rows;
  rows.reserve(n);
  Rng rng(3);
  for (int64_t i = 0; i < n; ++i) {
    rows.push_back(Row{Value(rng.Uniform(0.0, 100.0))});
  }
  return Relation::MakeBase("R", Schema({{"v", ValueType::kFloat64}}),
                            std::move(rows));
}

}  // namespace

void PrintSamplers() {
  bench::PrintHeader("A3", "Physical sampler throughput (tuples/s)");
  std::printf("Timings follow; arg is the input cardinality.\n");
}

namespace {

constexpr int64_t kRows = 200000;

void BM_Bernoulli(benchmark::State& state) {
  Relation table = MakeTable(kRows);
  Rng rng(9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(BernoulliSample(table, 0.1, &rng));
  }
  state.SetItemsProcessed(state.iterations() * kRows);
}
BENCHMARK(BM_Bernoulli);

void BM_WorFisherYates(benchmark::State& state) {
  Relation table = MakeTable(kRows);
  Rng rng(10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(WorSample(table, kRows / 10, &rng));
  }
  state.SetItemsProcessed(state.iterations() * kRows);
}
BENCHMARK(BM_WorFisherYates);

void BM_Reservoir(benchmark::State& state) {
  Relation table = MakeTable(kRows);
  Rng rng(11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ReservoirSample(table, kRows / 10, &rng));
  }
  state.SetItemsProcessed(state.iterations() * kRows);
}
BENCHMARK(BM_Reservoir);

void BM_WrDistinct(benchmark::State& state) {
  Relation table = MakeTable(kRows);
  Rng rng(12);
  for (auto _ : state) {
    benchmark::DoNotOptimize(WrDistinctSample(table, kRows / 10, &rng));
  }
  state.SetItemsProcessed(state.iterations() * kRows);
}
BENCHMARK(BM_WrDistinct);

void BM_BlockBernoulli(benchmark::State& state) {
  Relation table = ValueOrAbort(AssignBlockLineage(MakeTable(kRows), 128));
  Rng rng(13);
  for (auto _ : state) {
    benchmark::DoNotOptimize(BlockBernoulliSample(table, 0.1, &rng));
  }
  state.SetItemsProcessed(state.iterations() * kRows);
}
BENCHMARK(BM_BlockBernoulli);

void BM_LineageBernoulli(benchmark::State& state) {
  Relation table = MakeTable(kRows);
  for (auto _ : state) {
    benchmark::DoNotOptimize(LineageBernoulliSample(table, "R", 0.1, 77));
  }
  state.SetItemsProcessed(state.iterations() * kRows);
}
BENCHMARK(BM_LineageBernoulli);

// The fixed-size WOR keep-set kernel every engine resolves through (priority
// pass + exact selection); args are (N, n). (256000, 128000) is Query 1's
// orders side in the repo benchmark.
void BM_DecoupledWorKeep(benchmark::State& state) {
  const int64_t n_rows = state.range(0);
  const int64_t n = state.range(1);
  uint64_t seed = 14;
  for (auto _ : state) {
    benchmark::DoNotOptimize(DecoupledWorKeepIndices(n_rows, n, seed++));
  }
  state.SetItemsProcessed(state.iterations() * n_rows);
}
BENCHMARK(BM_DecoupledWorKeep)
    ->Args({256000, 128000})
    ->Args({1000000, 500000})
    ->Args({4000000, 40000})
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace gus

GUS_BENCH_MAIN(gus::PrintSamplers)
