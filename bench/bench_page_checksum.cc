// S1 — Segment page checksum: word-wide PageChecksum vs byte-serial FNV-1a
// over one 1 MiB buffer (about one default-sized segment's pages), the
// integrity pass every segment fault runs over every page byte.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "bench/bench_util.h"
#include "kernels/page_codec.h"
#include "util/hash.h"
#include "util/random.h"

namespace gus {

void PrintPageChecksum() {
  bench::PrintHeader("S1",
                     "segment page checksum: PageChecksum vs FNV-1a (1 MiB)");
  std::printf(
      "Timings follow; bytes/s is the checksum throughput. Each iteration\n"
      "re-reads the buffer (ClobberMemory) and keeps the result\n"
      "(DoNotOptimize), so the loop-invariant hash cannot be hoisted.\n");
}

namespace {

constexpr size_t kBufferBytes = size_t{1} << 20;

std::vector<uint8_t> RandomBuffer() {
  std::vector<uint8_t> buffer(kBufferBytes);
  Rng rng(11);
  for (uint8_t& b : buffer) b = static_cast<uint8_t>(rng.Next());
  return buffer;
}

void BM_PageChecksum(benchmark::State& state) {
  const std::vector<uint8_t> buffer = RandomBuffer();
  for (auto _ : state) {
    uint64_t sum = PageChecksum(0, buffer.data(), buffer.size());
    benchmark::DoNotOptimize(sum);
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(kBufferBytes));
}
BENCHMARK(BM_PageChecksum);

void BM_FnvHashBytes(benchmark::State& state) {
  const std::vector<uint8_t> buffer = RandomBuffer();
  for (auto _ : state) {
    uint64_t sum = HashBytes(kFnv1aOffset, buffer.data(), buffer.size());
    benchmark::DoNotOptimize(sum);
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(kBufferBytes));
}
BENCHMARK(BM_FnvHashBytes);

}  // namespace
}  // namespace gus

GUS_BENCH_MAIN(gus::PrintPageChecksum)
