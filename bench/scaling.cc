// Concurrent throughput of the sharded front-end: every "shard.*" and
// "concurrent.*" row of BENCH_throughput.json.
//
// Three row families price the paper's §III.H one-writer-many-readers
// design and the striped multi-writer extension:
//   * shard.{read_heavy,mixed}.shardsS.tN — ShardedMcCuckoo<McCuckooTable>
//     over S shards, every thread writing. read_heavy is 95% Find / 5%
//     InsertOrAssign (the paper's deployment profile); mixed is 50/50 plus
//     one maintenance snapshot (ForEachItem under the key's shard's
//     exclusive lock) every 4096 ops per thread — the cache-style expiry
//     scan / persistence snapshot that sharded front-ends exist to make
//     cheap. read_heavy isolates lock contention: one shard is exactly the
//     paper's design point, and more shards only pay with real core-level
//     parallelism. mixed adds the granularity benefit, which holds on any
//     machine: a whole-shard pass costs O(shard size) and blocks only that
//     shard, so its cost and blocking scope shrink as 1/shards.
//   * concurrent.read_scaling.{locked,optimistic}.tN — one shard, 95/5 on
//     thread 0 (the single writer), pure reads on every other thread.
//     locked takes the shared lock on every Find (the paper's design);
//     optimistic is the seqlock-validated lock-free Find with a shared-lock
//     fallback (src/core/seqlock.h). On several cores every locked read
//     pays two atomic RMWs on the one rwlock line, which ping-pongs between
//     readers, so locked flattens while optimistic keeps scaling; on one
//     core only the per-op cost is left, and optimistic measures below
//     locked (its version record/validate work).
//   * concurrent.write_scaling.[B-McCuckoo.]{single,multi}.tN — one shard,
//     pure updates on every thread. single serializes every write behind
//     the shard's exclusive lock; multi (with optimistic reads) runs writers
//     under striped bucket locks (src/core/lock_stripes.h), serializing
//     only on candidate-stripe collisions. McCuckoo rows use single-slot
//     buckets, B-McCuckoo rows 3-slot buckets with about the same slot
//     count. The t1 rows price the striped path's fixed overhead. Rows
//     above t1 are skipped when hardware_concurrency < 4: oversubscribed
//     spinning writers on one core measure the scheduler, not the table.
//
// Every table is d = 3 with 0.6 x $MCCUCKOO_BENCH_SLOTS (default 90000)
// live keys, maxloop 500, seed 7, and is built once, on first use, for
// each (layout, shards, read mode, write mode) a row names. All writes
// update live keys, so occupancy stays fixed and every iteration does
// comparable work. Tables are cache-resident on purpose: this measures
// synchronization and maintenance granularity, not the memory hierarchy
// (bench/batch_throughput.cc covers DRAM-bound behaviour).
//
// Timing is manual: each iteration launches the thread set behind a start
// barrier, every thread runs a fixed op count, and the wall time from
// barrier to last join is the iteration time. google-benchmark's
// ->Threads() timing averages per-thread clocks, which under
// oversubscription can report real_time below cpu_time — meaningless as
// aggregate throughput. items/sec counts operations across all threads;
// 3 repetitions, best recorded (see bench_reporter.h). The binary owns the
// "shard." and "concurrent." namespaces of the results file.

#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_reporter.h"
#include "src/common/rng.h"
#include "src/core/blocked_mccuckoo_table.h"
#include "src/core/config.h"
#include "src/core/mccuckoo_table.h"
#include "src/core/sharded_mccuckoo.h"
#include "src/obs/timing.h"
#include "src/workload/keyset.h"

namespace mccuckoo {
namespace {

using McTable = McCuckooTable<uint64_t, uint64_t>;
using BlockedTable = BlockedMcCuckooTable<uint64_t, uint64_t>;

enum class Layout : uint8_t { kMcCuckoo, kBlocked };

constexpr double kPrefillLoad = 0.6;
constexpr uint64_t kOpsPerThread = 1 << 15;
constexpr uint64_t kMaintEvery = 4096;

/// Which prefilled table a row runs on.
struct TableKey {
  Layout layout;
  size_t shards;
  ReadMode read;
  WriteMode write;

  auto operator<=>(const TableKey&) const = default;
};

/// The op mix every thread of a row runs.
struct Mix {
  uint64_t write_pct;  // % of ops that are InsertOrAssign on a live key
  bool all_write;      // every thread writes, or only thread 0
  bool maintenance;    // a ForEachItem snapshot every kMaintEvery ops
};

constexpr Mix kReadHeavy{5, true, false};
constexpr Mix kMixed{50, true, true};
constexpr Mix kOneWriter{5, false, false};
constexpr Mix kUpdates{100, true, false};

/// One row family: rows `name`.t1, .t2, .t4, ... .t`max_threads`.
struct Family {
  std::string name;
  TableKey table;
  Mix mix;
  int max_threads;
  bool needs_cores;  // rows above t1 need >= 4 hardware threads
};

std::vector<Family> Families() {
  constexpr Layout kMc = Layout::kMcCuckoo;
  constexpr ReadMode kLocked = ReadMode::kLocked;
  constexpr ReadMode kOptimistic = ReadMode::kOptimistic;
  constexpr WriteMode kSingle = WriteMode::kSingleWriter;
  constexpr WriteMode kMulti = WriteMode::kMultiWriter;
  std::vector<Family> rows;
  for (const size_t s : {1, 2, 4, 8, 16}) {
    const TableKey t{kMc, s, kLocked, kSingle};
    const std::string shards = ".shards" + std::to_string(s);
    rows.push_back({"shard.read_heavy" + shards, t, kReadHeavy, 16, false});
    rows.push_back({"shard.mixed" + shards, t, kMixed, 16, false});
  }
  rows.push_back({"concurrent.read_scaling.locked",
                  {kMc, 1, kLocked, kSingle}, kOneWriter, 16, false});
  rows.push_back({"concurrent.read_scaling.optimistic",
                  {kMc, 1, kOptimistic, kSingle}, kOneWriter, 16, false});
  for (const auto& [layout, infix] :
       {std::pair<Layout, std::string>{kMc, ""},
        std::pair<Layout, std::string>{Layout::kBlocked, "B-McCuckoo."}}) {
    const std::string name = "concurrent.write_scaling." + infix;
    rows.push_back({name + "single", {layout, 1, kLocked, kSingle}, kUpdates,
                    8, true});
    rows.push_back({name + "multi", {layout, 1, kOptimistic, kMulti},
                    kUpdates, 8, true});
  }
  return rows;
}

template <typename Table>
struct Fixture {
  ShardedMcCuckoo<Table> table;
  std::vector<uint64_t> keys;  // live key set

  Fixture(const TableOptions& o, const TableKey& k)
      : table(o, k.shards, k.read, k.write),
        keys(MakeUniqueKeys(static_cast<size_t>(
                                kPrefillLoad *
                                static_cast<double>(o.capacity())),
                            7, 0)) {
    table.InsertBatch(keys, keys);
  }
};

/// The prefilled table `k` names, built on first use (before the timed
/// loop) and shared by every row that names it.
template <typename Table>
Fixture<Table>& GetFixture(const TableKey& k) {
  static std::map<TableKey, std::unique_ptr<Fixture<Table>>> built;
  std::unique_ptr<Fixture<Table>>& fx = built[k];
  if (fx == nullptr) {
    TableOptions o;
    o.num_hashes = 3;
    o.slots_per_bucket = k.layout == Layout::kBlocked ? 3 : 1;
    o.buckets_per_table =
        BenchSlotsOrDefault(90'000) / (o.num_hashes * o.slots_per_bucket);
    o.maxloop = 500;
    o.seed = 7;
    fx = std::make_unique<Fixture<Table>>(o, k);
  }
  return *fx;
}

/// One thread's share of an iteration: kOpsPerThread ops of `mix`.
template <typename Table>
void RunThread(const Mix& mix, Fixture<Table>& fx, int tid, uint64_t round,
               const std::atomic<bool>& go) {
  ShardedMcCuckoo<Table>& table = fx.table;
  const std::vector<uint64_t>& keys = fx.keys;
  Xoshiro256 rng(SplitMix64(0xC0FFEE + tid * 1000003 + round));
  const bool writes = mix.all_write || tid == 0;
  uint64_t v = 0;
  while (!go.load(std::memory_order_acquire)) {
  }
  for (uint64_t i = 1; i <= kOpsPerThread; ++i) {
    const uint64_t r = rng.Next();
    const uint64_t key = keys[r % keys.size()];
    if (writes && r % 100 < mix.write_pct) {
      benchmark::DoNotOptimize(table.InsertOrAssign(key, r));
    } else {
      benchmark::DoNotOptimize(table.Find(key, &v));
    }
    if (mix.maintenance && i % kMaintEvery == 0) {
      // Dedup-scan every live item of the key's shard under its exclusive
      // lock, as an expiry/persistence pass would.
      uint64_t live = 0;
      table.WithExclusiveShard(table.ShardOf(key), [&](const auto& t) {
        t.ForEachItem([&](uint64_t, uint64_t) { ++live; });
      });
      benchmark::DoNotOptimize(live);
    }
  }
}

template <typename Table>
void BM_Row(benchmark::State& state, const Family* f, int threads) {
  Fixture<Table>& fx = GetFixture<Table>(f->table);
  uint64_t round = 0;
  for (auto _ : state) {
    std::atomic<bool> go{false};
    std::vector<std::thread> pool;
    pool.reserve(threads - 1);
    for (int t = 1; t < threads; ++t) {
      pool.emplace_back([&, t] { RunThread(f->mix, fx, t, round, go); });
    }
    Stopwatch sw;  // src/obs/timing.h — the shared bench/metrics clock
    go.store(true, std::memory_order_release);
    RunThread(f->mix, fx, 0, round, go);
    for (auto& th : pool) th.join();
    state.SetIterationTime(sw.ElapsedSeconds());
    ++round;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          threads * kOpsPerThread);
}

void RegisterAll() {
  static const std::vector<Family> families = Families();
  const bool few_cores = std::thread::hardware_concurrency() < 4;
  for (const Family& f : families) {
    for (int t = 1; t <= f.max_threads; t *= 2) {
      if (t > 1 && f.needs_cores && few_cores) continue;
      const auto bm = f.table.layout == Layout::kBlocked ? BM_Row<BlockedTable>
                                                         : BM_Row<McTable>;
      benchmark::RegisterBenchmark((f.name + ".t" + std::to_string(t)).c_str(),
                                   bm, &f, t)
          ->Repetitions(3)
          ->ReportAggregatesOnly(false)
          ->UseManualTime();
    }
  }
}

}  // namespace
}  // namespace mccuckoo

int main(int argc, char** argv) {
  mccuckoo::RegisterAll();
  return mccuckoo::RunBenchmarksToJson(argc, argv, "",
                                       {"shard.", "concurrent."});
}
