// Concurrent throughput of the sharded front-end: every "shard.*" and
// "concurrent.*" row of BENCH_throughput.json.
//
// ShardedMcCuckoo runs one concurrency mode: optimistic lock-free readers
// and striped writers (src/core/sharded_mccuckoo.h). The paper's §III.H
// one-writer-many-readers design survives here only as RwLockReference
// below, the baseline the scaling gates (bench/gates.txt) compare against.
// Three row families:
//   * shard.{read_heavy,mixed}.shardsS.tN — ShardedMcCuckoo<McCuckooTable>
//     over S shards, every thread writing. read_heavy is 95% Find / 5%
//     InsertOrAssign (the paper's deployment profile); mixed is 50/50 plus
//     one maintenance snapshot (ForEachItem under WithExclusiveShard on
//     the key's shard) every 4096 ops per thread — the cache-style expiry
//     scan / persistence snapshot that sharded front-ends exist to make
//     cheap. read_heavy prices the front-end's per-op cost and its
//     contention; more shards only pay with real core-level parallelism.
//     mixed adds the granularity benefit, which holds on any machine: a
//     whole-shard pass costs O(shard size) and blocks only that shard, so
//     its cost and blocking scope shrink as 1/shards.
//   * concurrent.read_scaling.{locked,optimistic}.tN — one table, 95/5 on
//     thread 0 (the only writer), pure reads on every other thread.
//     locked is the reference: every Find takes the shared side of one
//     std::shared_mutex and runs FindNoStats, and the writer takes the
//     exclusive side. optimistic is the one-shard front-end: the
//     seqlock-validated lock-free Find with a striped fallback
//     (src/core/seqlock.h). On several cores every locked read pays two
//     atomic RMWs on the one rwlock line, which ping-pongs between readers,
//     so locked flattens while optimistic keeps scaling; on one core only
//     the per-op cost is left, and optimistic measures below locked. Both
//     record the lookup cells (FindNoStats records the outcome grid,
//     partition probes and stash probes as Find does), but every
//     optimistic read also draws from the latency sampler, one more atomic
//     RMW and a clock pair on every 32nd read, which FindNoStats skips
//     along with AccessStats. With metrics compiled out
//     (-DMCCUCKOO_NO_METRICS) the two t1 rows measure at parity.
//   * concurrent.write_scaling.[B-McCuckoo.]{single,multi}.tN — one table,
//     pure updates on every thread. single is the reference: every write
//     takes the one rwlock exclusively and runs the table's InsertOrAssign,
//     the paper's single writer. multi is the one-shard front-end, whose
//     writers serialize only on candidate-stripe collisions
//     (src/core/lock_stripes.h). McCuckoo rows use single-slot buckets,
//     B-McCuckoo rows 3-slot buckets with about the same slot count. The t1
//     rows price the striped path's fixed overhead. Rows above t1 are
//     skipped when hardware_concurrency < 4: oversubscribed spinning
//     writers on one core measure the scheduler, not the table.
//
// Every table is d = 3 with 0.6 x --slots (default 90000) live keys,
// maxloop 500, seed 7, and is built once, on first use, for each (layout,
// shards, front) a row names. All writes update live keys, so occupancy
// stays fixed and every rep does comparable work. Tables are
// cache-resident on purpose: this measures synchronization and maintenance
// granularity, not the memory hierarchy (bench/batch_throughput.cc covers
// DRAM-bound behaviour).
//
// Rows are timed by bench/bench_driver.h. A row's untimed setup launches
// its thread set, which waits behind a start barrier; its timed body
// releases the barrier, runs thread 0's share and joins the rest, so the
// timed window runs from barrier to last join and thread spawn stays
// outside it. Every thread runs a fixed op count, and items/sec counts
// operations across all threads. The rows of one sweep at one thread count
// (every shard count, or the reference and the front-end) form one group
// of interleaved reps. The binary owns the "shard." and "concurrent."
// namespaces of the results file.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_driver.h"
#include "src/common/rng.h"
#include "src/core/blocked_mccuckoo_table.h"
#include "src/core/config.h"
#include "src/core/mccuckoo_table.h"
#include "src/core/sharded_mccuckoo.h"
#include "src/workload/keyset.h"

namespace mccuckoo {
namespace {

using McTable = McCuckooTable<uint64_t, uint64_t>;
using BlockedTable = BlockedMcCuckooTable<uint64_t, uint64_t>;

/// The paper's §III.H design, the baseline of the locked and single rows:
/// one std::shared_mutex around a bare table, laid out as a
/// ShardedMcCuckoo shard is (the table on its own cache line).
template <typename Table>
struct alignas(64) RwLockReference {
  explicit RwLockReference(const TableOptions& o) : table(o) {}

  bool Find(uint64_t key, uint64_t* out) const {
    std::shared_lock lock(mutex);
    return table.FindNoStats(key, out);
  }
  InsertResult InsertOrAssign(uint64_t key, uint64_t value) {
    std::unique_lock lock(mutex);
    return table.InsertOrAssign(key, value);
  }

  mutable std::shared_mutex mutex;
  // Every reader and writer RMWs the lock word, and the table's first
  // members are read on every probe: sharing a line would cost four
  // concurrent writers about 30% of their throughput.
  alignas(64) Table table;
};

template <typename Front>
constexpr bool kSharded = requires(const Front& f) { f.ShardOf(0); };

enum class Layout : uint8_t { kMcCuckoo, kBlocked };

constexpr double kPrefillLoad = 0.6;
constexpr uint64_t kOpsPerThread = 1 << 17;
constexpr uint64_t kMaintEvery = 4096;

/// Which prefilled table a row runs on: the front-end over `shards` shards,
/// or (reference) the one-table RwLockReference.
struct TableKey {
  Layout layout;
  size_t shards;
  bool reference;

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

/// One row sweep: rows `stem`<variant>.t1, .t2, .t4, ... .t`max_threads`
/// for each variant, each variant on its own table.
struct Sweep {
  std::string stem;
  std::vector<std::pair<std::string, TableKey>> variants;
  Mix mix;
  int max_threads;
  bool needs_cores;  // rows above t1 need >= 4 hardware threads
};

std::vector<Sweep> Sweeps() {
  using enum Layout;
  std::vector<std::pair<std::string, TableKey>> shards;
  for (const size_t s : {1, 2, 4, 8, 16}) {
    shards.push_back({"shards" + std::to_string(s), {kMcCuckoo, s, false}});
  }
  std::vector<Sweep> sweeps = {
      {"shard.read_heavy.", shards, kReadHeavy, 16, false},
      {"shard.mixed.", shards, kMixed, 16, false},
      {"concurrent.read_scaling.",
       {{"locked", {kMcCuckoo, 1, true}},
        {"optimistic", {kMcCuckoo, 1, false}}},
       kOneWriter, 16, false}};
  for (const Layout layout : {kMcCuckoo, kBlocked}) {
    sweeps.push_back({std::string("concurrent.write_scaling.") +
                          (layout == kBlocked ? "B-McCuckoo." : ""),
                      {{"single", {layout, 1, true}},
                       {"multi", {layout, 1, false}}},
                      kUpdates, 8, true});
  }
  return sweeps;
}

template <typename Front>
struct Fixture {
  std::unique_ptr<Front> table;
  std::vector<uint64_t> keys;  // live key set

  Fixture(const TableOptions& o, const TableKey& k)
      : keys(MakeUniqueKeys(static_cast<size_t>(
                                kPrefillLoad *
                                static_cast<double>(o.capacity())),
                            7, 0)) {
    if constexpr (kSharded<Front>) {
      table = std::make_unique<Front>(o, k.shards);
    } else {
      table = std::make_unique<Front>(o);
    }
    for (const uint64_t key : keys) table->InsertOrAssign(key, key);
  }
};

/// The prefilled table `k` names, built on first use (before the timed
/// loop) and shared by every row that names it.
template <typename Front>
Fixture<Front>& GetFixture(const TableKey& k, uint64_t slots) {
  static std::map<TableKey, std::unique_ptr<Fixture<Front>>> built;
  std::unique_ptr<Fixture<Front>>& fx = built[k];
  if (fx == nullptr) {
    TableOptions o;
    o.num_hashes = 3;
    o.slots_per_bucket = k.layout == Layout::kBlocked ? 3 : 1;
    o.buckets_per_table = slots / (o.num_hashes * o.slots_per_bucket);
    o.maxloop = 500;
    o.seed = 7;
    fx = std::make_unique<Fixture<Front>>(o, k);
  }
  return *fx;
}

/// One thread's share of a rep: kOpsPerThread ops of `mix`.
template <typename Front>
void RunThread(const Mix& mix, Fixture<Front>& fx, int tid, uint64_t round,
               const std::atomic<bool>& go) {
  Front& table = *fx.table;
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
      DoNotOptimize(table.InsertOrAssign(key, r));
    } else {
      DoNotOptimize(table.Find(key, &v));
    }
    if constexpr (kSharded<Front>) {
      if (mix.maintenance && i % kMaintEvery == 0) {
        // Dedup-scan every live item of the key's shard under exclusive
        // access, as an expiry/persistence pass would.
        uint64_t live = 0;
        table.WithExclusiveShard(table.ShardOf(key), [&](const auto& t) {
          t.ForEachItem([&](uint64_t, uint64_t) { ++live; });
        });
        DoNotOptimize(live);
      }
    }
  }
}

/// The row `key`: `threads` threads each running one share of `mix`.
template <typename Front>
BenchRow MakeRow(const std::string& key, const TableKey& table, const Mix& mix,
                 int threads, uint64_t slots) {
  struct Launch {
    Fixture<Front>* fx = nullptr;
    std::atomic<bool> go{false};
    std::vector<std::thread> pool;
    uint64_t round = 0;
  };
  auto l = std::make_shared<Launch>();
  return {key,
          [l, mix, threads] {
            l->go.store(true, std::memory_order_release);
            RunThread(mix, *l->fx, 0, l->round, l->go);
            for (auto& th : l->pool) th.join();
            l->pool.clear();
            ++l->round;
            return static_cast<uint64_t>(threads) * kOpsPerThread;
          },
          [l, table, mix, threads, slots] {
            l->fx = &GetFixture<Front>(table, slots);
            l->go.store(false, std::memory_order_relaxed);
            for (int t = 1; t < threads; ++t) {
              l->pool.emplace_back(
                  [l, mix, t] { RunThread(mix, *l->fx, t, l->round, l->go); });
            }
          }};
}

std::vector<BenchGroup> Groups(uint64_t slots) {
  const bool few_cores = std::thread::hardware_concurrency() < 4;
  std::vector<BenchGroup> groups;
  for (const Sweep& sweep : Sweeps()) {
    for (int t = 1; t <= sweep.max_threads; t *= 2) {
      if (t > 1 && sweep.needs_cores && few_cores) continue;
      BenchGroup group;
      for (const auto& [variant, table] : sweep.variants) {
        const auto make =
            table.layout == Layout::kBlocked
                ? (table.reference ? MakeRow<RwLockReference<BlockedTable>>
                                   : MakeRow<ShardedMcCuckoo<BlockedTable>>)
                : (table.reference ? MakeRow<RwLockReference<McTable>>
                                   : MakeRow<ShardedMcCuckoo<McTable>>);
        group.push_back(make(sweep.stem + variant + ".t" + std::to_string(t),
                             table, sweep.mix, t, slots));
      }
      groups.push_back(std::move(group));
    }
  }
  return groups;
}

}  // namespace
}  // namespace mccuckoo

int main(int argc, char** argv) {
  using namespace mccuckoo;
  const BenchOptions opt = ParseBenchOptions(argc, argv, 90'000);
  return RunBenchToJson(opt, Groups(opt.slots), {"shard.", "concurrent."});
}
