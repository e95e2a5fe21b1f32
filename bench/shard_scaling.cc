// Concurrent throughput of the sharded front-end.
//
// Sweeps ShardedMcCuckoo<McCuckooTable> over shard counts {1,2,4,8,16} and
// thread counts {1,2,4,8,16} under two workloads:
//   * read_heavy — 95% Find / 5% InsertOrAssign (the paper's §III.H
//     deployment profile),
//   * mixed      — 50% Find / 50% InsertOrAssign, plus one per-shard
//     maintenance snapshot (ForEachItem under that shard's exclusive lock)
//     every 4096 operations per thread — the cache-style expiry scan /
//     persistence snapshot that sharded front-ends exist to make cheap.
// All writes update existing keys, so table occupancy stays fixed and every
// iteration does comparable work.
//
// Sharding pays off through two stacked mechanisms, and the two workloads
// separate them. read_heavy isolates lock contention: one shard is exactly
// the paper's one-writer-many-readers design point (every writer
// serializes behind a single lock), and the benefit of more shards only
// materializes with real core-level parallelism. mixed adds the
// granularity benefit, which holds on any machine: a whole-shard
// maintenance pass costs O(shard size) and blocks only that shard, so both
// its amortized CPU cost and its blocking scope shrink proportionally to
// 1/shards. Tables default to a small (cache-resident) footprint because
// this benchmark measures synchronization and maintenance granularity, not
// the memory hierarchy — bench/batch_throughput.cc covers DRAM-bound
// behaviour.
//
// Results merge into BENCH_throughput.json under the "shard." prefix;
// items/sec counts operations across all threads. 3 repetitions are run
// and the best is recorded (see bench_reporter.h) to damp scheduler noise.

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_reporter.h"
#include "src/common/rng.h"
#include "src/core/config.h"
#include "src/core/mccuckoo_table.h"
#include "src/core/sharded_mccuckoo.h"
#include "src/workload/keyset.h"

namespace mccuckoo {
namespace {

using Sharded = ShardedMcCuckoo<McCuckooTable<uint64_t, uint64_t>>;

uint64_t TotalSlots() { return BenchSlotsOrDefault(9ull * 10'000); }

constexpr double kPrefillLoad = 0.6;

// One maintenance snapshot per this many mixed-workload ops per thread.
constexpr uint64_t kMaintEvery = 4096;

struct Fixture {
  std::map<size_t, std::unique_ptr<Sharded>> tables;  // by shard count
  std::vector<uint64_t> keys;                         // live key set
};

/// Built eagerly before benchmarks run (threaded benchmarks must not race
/// on construction).
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
    for (const size_t shards : {1, 2, 4, 8, 16}) {
      auto t = std::make_unique<Sharded>(o, shards);
      t->InsertBatch(fx->keys, values);
      fx->tables.emplace(shards, std::move(t));
    }
    return fx;
  }();
  return *f;
}

void BM_Workload(benchmark::State& state, size_t shards, uint64_t write_pct,
                 bool maintenance) {
  Fixture& fx = GetFixture();
  Sharded& table = *fx.tables.at(shards);
  const std::vector<uint64_t>& keys = fx.keys;
  Xoshiro256 rng(SplitMix64(0xC0FFEE + state.thread_index()));
  uint64_t v = 0;
  uint64_t ops = 0;
  for (auto _ : state) {
    const uint64_t r = rng.Next();
    const uint64_t key = keys[r % keys.size()];
    if (r % 100 < write_pct) {
      benchmark::DoNotOptimize(table.InsertOrAssign(key, r));
    } else {
      benchmark::DoNotOptimize(table.Find(key, &v));
    }
    if (maintenance && ++ops % kMaintEvery == 0) {
      // Snapshot the shard this key routes to: dedup-scan every live item
      // under the shard's exclusive lock, as an expiry/persistence pass
      // would. Cost and blocking scope are both O(shard size).
      uint64_t live = 0;
      table.WithExclusiveShard(table.ShardOf(key), [&](const auto& t) {
        t.ForEachItem([&](uint64_t, uint64_t) { ++live; });
      });
      benchmark::DoNotOptimize(live);
    }
  }
  state.SetItemsProcessed(state.iterations());
}

void RegisterAll() {
  GetFixture();  // build all tables before any thread pool spins up
  struct Workload {
    const char* name;
    uint64_t write_pct;
    bool maintenance;
  };
  for (const Workload w :
       {Workload{"read_heavy", 5, false}, Workload{"mixed", 50, true}}) {
    for (const size_t shards : {1, 2, 4, 8, 16}) {
      for (const int threads : {1, 2, 4, 8, 16}) {
        const std::string name = std::string(w.name) + ".shards" +
                                 std::to_string(shards) + ".t" +
                                 std::to_string(threads);
        benchmark::RegisterBenchmark(name.c_str(), BM_Workload, shards,
                                     w.write_pct, w.maintenance)
            ->Threads(threads)
            ->Repetitions(3)
            ->ReportAggregatesOnly(false)
            ->UseRealTime();
      }
    }
  }
}

}  // namespace
}  // namespace mccuckoo

int main(int argc, char** argv) {
  mccuckoo::RegisterAll();
  return mccuckoo::RunBenchmarksToJson(argc, argv, "shard.");
}
