// Reader scaling of the one-writer-many-readers front-end: locked vs
// optimistic reads.
//
// Sweeps a one-shard ShardedMcCuckoo<McCuckooTable> (the paper's §III.H
// design) over thread counts {1,2,4,8,16} under the paper's read-heavy
// profile (95% Find / 5% InsertOrAssign; thread 0 carries the write share —
// it is the only writer of the single-writer mode — all other threads are
// pure readers) in both reader policies:
//   * locked     — every Find takes the shared lock (the paper's design),
//   * optimistic — seqlock-validated lock-free Find with a shared-lock
//                  fallback (src/core/seqlock.h).
// All writes update existing keys, so occupancy stays fixed and every
// iteration does comparable work.
//
// Timing is manual: each benchmark iteration launches the thread set, has
// every thread run a fixed op count, and reports the wall time from start
// barrier to last join. google-benchmark's built-in ->Threads() timing
// averages per-thread clocks, which under oversubscription can report
// real_time below cpu_time — meaningless as aggregate throughput. Manual
// wall-clock over a fixed total op count is physically interpretable on any
// machine.
//
// What to expect: with threads spread over multiple cores, every locked
// read pays two atomic RMWs on the one rwlock cache line, which ping-pongs
// between readers — locked throughput flattens while optimistic readers
// (no shared-memory writes on a clean read) keep scaling. On a single-core
// host neither effect exists — blocked threads don't waste the core, the
// lock line never changes caches — so the comparison reduces to per-op
// cost and optimistic measures slightly below locked (the version
// record/validate work, ~20% here). The ratio is only meaningful as a win
// on multi-core hosts.
//
// Results merge into BENCH_throughput.json under the "concurrent." prefix
// (concurrent.read_scaling.{locked,optimistic}.tN); items/sec counts
// operations across all threads. 3 repetitions, best recorded (see
// bench_reporter.h) to damp scheduler noise.

#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_reporter.h"
#include "src/common/rng.h"
#include "src/core/config.h"
#include "src/core/mccuckoo_table.h"
#include "src/core/sharded_mccuckoo.h"
#include "src/obs/timing.h"
#include "src/workload/keyset.h"

namespace mccuckoo {
namespace {

using Table = McCuckooTable<uint64_t, uint64_t>;
using Wrapper = ShardedMcCuckoo<Table>;

uint64_t TotalSlots() { return BenchSlotsOrDefault(9ull * 10'000); }

constexpr double kPrefillLoad = 0.6;
constexpr uint64_t kWritePct = 5;
constexpr uint64_t kOpsPerThread = 1 << 15;

struct Fixture {
  std::unique_ptr<Wrapper> locked;
  std::unique_ptr<Wrapper> optimistic;
  std::vector<uint64_t> keys;  // live key set
};

Fixture& GetFixture() {
  static Fixture* f = [] {
    auto* fx = new Fixture();
    TableOptions o;
    o.num_hashes = 3;
    o.slots_per_bucket = 1;
    o.buckets_per_table = TotalSlots() / o.num_hashes;
    o.maxloop = 500;
    o.seed = 7;
    const size_t live =
        static_cast<size_t>(kPrefillLoad * static_cast<double>(o.capacity()));
    fx->keys = MakeUniqueKeys(live, 7, 0);
    std::vector<uint64_t> values(fx->keys.begin(), fx->keys.end());
    fx->locked = std::make_unique<Wrapper>(o, 1);
    fx->locked->InsertBatch(fx->keys, values);
    fx->optimistic = std::make_unique<Wrapper>(o, 1, ReadMode::kOptimistic);
    fx->optimistic->InsertBatch(fx->keys, values);
    return fx;
  }();
  return *f;
}

/// One thread's share of an iteration: kOpsPerThread ops, 95/5 mixed on
/// thread 0 (the sole permitted writer), pure reads elsewhere.
void RunThread(Wrapper* table, const std::vector<uint64_t>* keys, int tid,
               uint64_t round, const std::atomic<bool>* go) {
  Xoshiro256 rng(SplitMix64(0xC0FFEE + tid * 1000003 + round));
  uint64_t v = 0;
  while (!go->load(std::memory_order_acquire)) {
  }
  for (uint64_t i = 0; i < kOpsPerThread; ++i) {
    const uint64_t r = rng.Next();
    const uint64_t key = (*keys)[r % keys->size()];
    if (tid == 0 && r % 100 < kWritePct) {
      benchmark::DoNotOptimize(table->InsertOrAssign(key, r));
    } else {
      benchmark::DoNotOptimize(table->Find(key, &v));
    }
  }
}

void BM_ReadScaling(benchmark::State& state, Wrapper* table, int threads) {
  Fixture& fx = GetFixture();
  uint64_t round = 0;
  for (auto _ : state) {
    std::atomic<bool> go{false};
    std::vector<std::thread> pool;
    pool.reserve(threads - 1);
    for (int t = 1; t < threads; ++t) {
      pool.emplace_back(RunThread, table, &fx.keys, t, round, &go);
    }
    Stopwatch sw;  // src/obs/timing.h — the shared bench/metrics clock
    go.store(true, std::memory_order_release);
    RunThread(table, &fx.keys, 0, round, &go);
    for (auto& th : pool) th.join();
    state.SetIterationTime(sw.ElapsedSeconds());
    ++round;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          threads * kOpsPerThread);
}

void RegisterAll() {
  Fixture& fx = GetFixture();  // build tables before any timing starts
  for (const int threads : {1, 2, 4, 8, 16}) {
    const std::string suffix = ".t" + std::to_string(threads);
    benchmark::RegisterBenchmark(("locked" + suffix).c_str(),
                                 BM_ReadScaling, fx.locked.get(), threads)
        ->Repetitions(3)
        ->ReportAggregatesOnly(false)
        ->UseManualTime();
    benchmark::RegisterBenchmark(("optimistic" + suffix).c_str(),
                                 BM_ReadScaling, fx.optimistic.get(),
                                 threads)
        ->Repetitions(3)
        ->ReportAggregatesOnly(false)
        ->UseManualTime();
  }
}

}  // namespace
}  // namespace mccuckoo

int main(int argc, char** argv) {
  mccuckoo::RegisterAll();
  // Full-namespace merge prefix, so write_scaling and this binary can each
  // rewrite their own "concurrent.*" rows without erasing the other's.
  return mccuckoo::RunBenchmarksToJson(argc, argv, "concurrent.read_scaling.");
}
