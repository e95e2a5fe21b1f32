// The insert_grow row that micro_throughput and the metrics_overhead pair
// share: scalar writes into a growing, DRAM-sized table in the cache
// store's configuration (8 shards, multi-writer, optimistic reads, d = 3,
// kResetCounters, stash on, growth on from 64Ki slots) take InsertOrAssign
// of `count` distinct keys — the write a store SET makes. Unlike the
// cache-resident insert rows, every write here misses on its counter and
// bucket lines, so the row prices how those misses overlap. Each rep builds
// (and drops the previous rep's) table untimed.
//
// Header-only on purpose: metrics_overhead_off instantiates the table with
// -DMCCUCKOO_NO_METRICS in its own translation unit.

#ifndef MCCUCKOO_BENCH_INSERT_GROW_ROW_H_
#define MCCUCKOO_BENCH_INSERT_GROW_ROW_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_driver.h"
#include "src/core/mccuckoo_table.h"
#include "src/core/sharded_mccuckoo.h"
#include "src/hash/hashers.h"
#include "src/workload/keyset.h"

namespace mccuckoo {

inline BenchRow InsertGrowRow(const std::string& key, uint64_t count) {
  using Sharded = ShardedMcCuckoo<McCuckooTable<uint64_t, uint64_t, XxHasher>>;
  auto table = std::make_shared<std::unique_ptr<Sharded>>();
  const auto keys = std::make_shared<const std::vector<uint64_t>>(
      MakeUniqueKeys(count, 7, 5));
  return {key,
          [=] {
            Sharded& t = **table;
            for (const uint64_t k : *keys) {
              DoNotOptimize(t.InsertOrAssign(k, k));
            }
            return uint64_t{keys->size()};
          },
          [=] {
            TableOptions o;
            o.num_hashes = 3;
            o.seed = 0x5EEDCAFE;
            o.buckets_per_table = ((uint64_t{1} << 16) + 2) / 3;
            o.deletion_mode = DeletionMode::kResetCounters;
            o.growth_enabled = true;
            table->reset();
            *table = std::make_unique<Sharded>(o, 8);
          }};
}

}  // namespace mccuckoo

#endif  // MCCUCKOO_BENCH_INSERT_GROW_ROW_H_
