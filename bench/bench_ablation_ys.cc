// A2 — Ablation: Y_S grouping strategy — hash grouping (flat open
// addressing, est/ys.cc) vs sort grouping. Same groups (unit tested; the
// two fold them in different orders, so the sums agree to rounding); this
// bench measures throughput across sample sizes and group counts.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "est/ys.h"
#include "util/random.h"

namespace gus {

using bench::ValueOrAbort;

namespace {

SampleView MakeView(int64_t rows, uint64_t groups, uint64_t seed) {
  SampleView view;
  view.schema = LineageSchema::Make({"A", "B"}).ValueOrDie();
  view.lineage.assign(2, {});
  Rng rng(seed);
  for (int64_t i = 0; i < rows; ++i) {
    view.lineage[0].push_back(rng.UniformInt(groups));
    view.lineage[1].push_back(rng.UniformInt(groups * 4));
    view.f.push_back(rng.Uniform(0.0, 1.0));
  }
  return view;
}

}  // namespace

void PrintAblationYs() {
  bench::PrintHeader("A2",
                     "Y_S grouping: flat hash vs sort-and-scan (same groups)");
  std::printf(
      "Timings follow; args are {rows, distinct groups}. Expected shape:\n"
      "hash wins at low group counts (cache-resident table), sort narrows\n"
      "the gap when groups are numerous.\n");
}

namespace {

void BM_YsHash(benchmark::State& state) {
  SampleView view =
      MakeView(state.range(0), static_cast<uint64_t>(state.range(1)), 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeYS(view, 0b01));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_YsHash)
    ->Args({10000, 64})
    ->Args({10000, 4096})
    ->Args({100000, 64})
    ->Args({100000, 4096})
    ->Args({100000, 65536});

void BM_YsSorted(benchmark::State& state) {
  SampleView view =
      MakeView(state.range(0), static_cast<uint64_t>(state.range(1)), 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeYSSorted(view, 0b01));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_YsSorted)
    ->Args({10000, 64})
    ->Args({10000, 4096})
    ->Args({100000, 64})
    ->Args({100000, 4096})
    ->Args({100000, 65536});

void BM_AllYs(benchmark::State& state) {
  SampleView view =
      MakeView(state.range(0), 1024, 8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeAllYS(view));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_AllYs)->Arg(10000)->Arg(100000)->Arg(200000);

}  // namespace
}  // namespace gus

GUS_BENCH_MAIN(gus::PrintAblationYs)
