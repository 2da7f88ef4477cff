// A2 — Ablation: Y_S grouping strategy — the lattice's dense coding
// (each lineage column coded once, subsets derived by refinement,
// est/ys.cc) vs sort grouping. Same groups (unit tested; the two fold them
// in different orders, so the sums agree to rounding); this bench measures
// throughput across sample sizes and group counts, plus the two Finish
// shapes the lattice targets: all 2^3 subsets of a foreign-key chain
// lineage (l -> o -> c) and a many-group GROUP BY.

#include <benchmark/benchmark.h>

#include "algebra/translate.h"
#include "bench/bench_util.h"
#include "est/group_by.h"
#include "est/ys.h"
#include "rel/column_batch.h"
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
                     "Y_S grouping: lattice coding vs sort-and-scan (same "
                     "groups)");
  std::printf(
      "Timings follow; BM_YsHash/BM_YsSorted args are {rows, distinct\n"
      "groups}. Expected shape: coding wins at low group counts\n"
      "(cache-resident table), sort narrows the gap when groups are\n"
      "numerous. BM_AllYsFkChain is every subset of a 73k-row l -> o -> c\n"
      "lineage (l and o arrive in scan order and are read as runs, c is\n"
      "the one column coding, no pair coding); BM_GroupedFinish is\n"
      "GroupedSumBuilder::Finish over 20k rows in ~12.6k groups.\n");
}

namespace {

void BM_YsHash(benchmark::State& state) {
  SampleView view =
      MakeView(state.range(0), static_cast<uint64_t>(state.range(1)), 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeYS(view, 0b01).ValueOrDie());
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
    benchmark::DoNotOptimize(ComputeAllYS(view).ValueOrDie());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_AllYs)->Arg(10000)->Arg(100000)->Arg(200000);

/// A lineage (l, o, c) shaped like a 10% lineitem sample joined to its
/// orders and customers: each kept lineitem is distinct, each order id
/// determines its customer, rows arrive order by order.
SampleView MakeFkChainView(int64_t rows, uint64_t seed) {
  SampleView view;
  view.schema = LineageSchema::Make({"l", "o", "c"}).ValueOrDie();
  view.lineage.assign(3, {});
  Rng rng(seed);
  uint64_t line = 0;
  for (uint64_t order = 0; view.num_rows() < rows; ++order) {
    const uint64_t customer = rng.UniformInt(uint64_t{20000});
    const uint64_t lines = 1 + rng.UniformInt(uint64_t{7});
    for (uint64_t k = 0; k < lines && view.num_rows() < rows; ++k, ++line) {
      if (rng.Uniform(0.0, 1.0) >= 0.1) continue;
      view.lineage[0].push_back(line);
      view.lineage[1].push_back(order);
      view.lineage[2].push_back(customer);
      view.f.push_back(rng.Uniform(0.0, 1000.0));
    }
  }
  return view;
}

void BM_AllYsFkChain(benchmark::State& state) {
  const SampleView view = MakeFkChainView(73000, 9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeAllYS(view).ValueOrDie());
  }
  state.SetItemsProcessed(state.iterations() * view.num_rows());
}
BENCHMARK(BM_AllYsFkChain)->Unit(benchmark::kMillisecond);

void BM_GroupedFinish(benchmark::State& state) {
  // 20k sampled orders keyed by one of 20k customers: ~12.6k groups of
  // ~1.6 rows, the shape of a GROUP BY o_custkey over a 10% sample.
  constexpr int64_t kRows = 20000;
  Rng rng(10);
  std::vector<Row> rows;
  for (int64_t i = 0; i < kRows; ++i) {
    rows.push_back(Row{Value(static_cast<int64_t>(rng.UniformInt(
                           uint64_t{20000}))),
                       Value(rng.Uniform(0.0, 1000.0))});
  }
  const Relation rel = Relation::MakeBase(
      "o", Schema({{"k", ValueType::kInt64}, {"v", ValueType::kFloat64}}),
      std::move(rows));
  const ColumnarRelation columnar =
      ValueOrAbort(ColumnarRelation::FromRelation(rel));
  const LineageSchema schema = LineageSchema::Make({"o"}).ValueOrDie();
  const GusParams gus =
      ValueOrAbort(MultiDimBernoulliGus(schema, {{"o", 0.1}}));
  GroupedSumBuilder builder = ValueOrAbort(
      GroupedSumBuilder::Make(columnar.layout(), Col("v"), "k", schema));
  if (!builder.Consume(columnar.data()).ok()) std::abort();
  for (auto _ : state) {
    benchmark::DoNotOptimize(ValueOrAbort(builder.Finish(gus)));
  }
  state.counters["groups"] = static_cast<double>(builder.num_groups());
}
BENCHMARK(BM_GroupedFinish)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace gus

GUS_BENCH_MAIN(gus::PrintAblationYs)
