// Stress and differential tests of the true multi-writer path: concurrent
// writers under striped bucket locks (ShardedMcCuckoo's writers, at one
// shard and at several), with optimistic readers and the striped
// Find fallback running against them. Run under TSan (-DMCCUCKOO_TSAN=ON)
// this is the data-race check for the claim-then-move protocol; without it
// the tests still pin down counter exactness and linearizable membership.
// The one-shard cases run on both layouts: each `...Blocked` id repeats its
// McCuckoo namesake on BlockedMcCuckooTable (3-slot buckets, about the same
// slot count), whose write engine is the same protocol at slot level.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/common/rng.h"
#include "src/core/blocked_mccuckoo_table.h"
#include "src/core/growth.h"
#include "src/core/mccuckoo_table.h"
#include "src/core/sharded_mccuckoo.h"
#include "src/workload/keyset.h"

namespace mccuckoo {
namespace {

using Table = McCuckooTable<uint64_t, uint64_t>;
using BlockedTable = BlockedMcCuckooTable<uint64_t, uint64_t>;

TableOptions StressOptions() {
  TableOptions o;
  o.buckets_per_table = 2048;
  o.maxloop = 200;
  o.deletion_mode = DeletionMode::kResetCounters;
  return o;
}

/// `o` on the blocked layout: 3-slot buckets, a third as many of them.
TableOptions Blocked(TableOptions o) {
  o.slots_per_bucket = 3;
  o.buckets_per_table = (o.buckets_per_table + 2) / 3;
  return o;
}

/// A one-shard front-end table.
template <typename T>
std::unique_ptr<ShardedMcCuckoo<T>> MultiWriterShard(const TableOptions& o) {
  return std::make_unique<ShardedMcCuckoo<T>>(o, 1);
}

template <typename T>
void ExpectInvariants(ShardedMcCuckoo<T>& table) {
  const Status s =
      table.WithExclusiveShard(0, [](T& t) { return t.CheckInvariants(); });
  EXPECT_TRUE(s.ok()) << s.message();
}

// Writer threads insert disjoint key ranges while optimistic readers (with
// the striped fallback behind them) assert that every key a writer has
// committed is found with its exact value, and that alien keys stay absent.
template <typename T>
void DisjointInsertersWithReaders(const TableOptions& o) {
  auto table_ptr = MultiWriterShard<T>(o);
  ShardedMcCuckoo<T>& table = *table_ptr;
  constexpr int kWriters = 4;
  constexpr size_t kPerWriter = 1000;
  std::vector<std::vector<uint64_t>> keys;
  for (int w = 0; w < kWriters; ++w) {
    keys.push_back(MakeUniqueKeys(kPerWriter, 5, static_cast<uint64_t>(w)));
  }
  const auto missing = MakeUniqueKeys(1000, 5, 99);

  std::array<std::atomic<size_t>, kWriters> committed{};
  std::atomic<bool> stop{false};
  std::atomic<int> reader_errors{0};

  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      uint64_t i = static_cast<uint64_t>(r) * 7919;
      while (!stop.load(std::memory_order_acquire)) {
        const int w = static_cast<int>(i % kWriters);
        const size_t limit = committed[w].load(std::memory_order_acquire);
        if (limit > 0) {
          const uint64_t k = keys[w][i % limit];
          uint64_t v = 0;
          if (!table.Find(k, &v) || v != k + 42) reader_errors.fetch_add(1);
        }
        if (table.Contains(missing[i % missing.size()])) {
          reader_errors.fetch_add(1);
        }
        ++i;
      }
    });
  }

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (size_t i = 0; i < kPerWriter; ++i) {
        table.Insert(keys[w][i], keys[w][i] + 42);
        committed[w].store(i + 1, std::memory_order_release);
      }
    });
  }
  for (auto& th : writers) th.join();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  stop.store(true, std::memory_order_release);
  for (auto& th : readers) th.join();

  EXPECT_EQ(reader_errors.load(), 0);
  // Counter discipline: the atomic size tally is exact after quiescence.
  EXPECT_EQ(table.size() + table.stash_size(), kWriters * kPerWriter);
  for (int w = 0; w < kWriters; ++w) {
    for (uint64_t k : keys[w]) {
      uint64_t v = 0;
      ASSERT_TRUE(table.Find(k, &v)) << k;
      EXPECT_EQ(v, k + 42);
    }
  }
  ExpectInvariants(table);
#ifndef MCCUCKOO_NO_METRICS
  const MetricsSnapshot s = table.metrics_snapshot();
  EXPECT_EQ(s.inserts, kWriters * kPerWriter);
  EXPECT_GT(s.writer_lock_acquisitions, 0u);
#endif
}

TEST(MultiWriterStressTest, DisjointInsertersWithReaders) {
  DisjointInsertersWithReaders<Table>(StressOptions());
}

TEST(MultiWriterStressTest, DisjointInsertersWithReadersBlocked) {
  DisjointInsertersWithReaders<BlockedTable>(Blocked(StressOptions()));
}

// Mixed insert/erase churn from several writers over disjoint partitions,
// then a differential oracle: each writer's op log replayed serially into a
// std::unordered_map must agree with the table exactly (per-partition
// determinism follows from partition disjointness).
template <typename T>
void MixedChurnMatchesSerializedOracle(const TableOptions& o) {
  auto table_ptr = MultiWriterShard<T>(o);
  ShardedMcCuckoo<T>& table = *table_ptr;
  constexpr int kWriters = 4;
  constexpr int kOpsPerWriter = 8000;

  struct Op {
    bool erase;
    uint64_t key;
    uint64_t value;
  };
  std::vector<std::vector<Op>> logs(kWriters);

  std::atomic<bool> stop{false};
  std::atomic<int> reader_errors{0};
  std::thread reader([&] {
    // Values are always key + generation tags; a torn read would surface as
    // a value outside the writer's own arithmetic.
    uint64_t i = 0;
    const auto keys = MakeUniqueKeys(512, 17, 0);
    while (!stop.load(std::memory_order_acquire)) {
      uint64_t v = 0;
      const uint64_t k = keys[i % keys.size()];
      if (table.Find(k, &v) && (v < k || v > k + kOpsPerWriter)) {
        reader_errors.fetch_add(1);
      }
      ++i;
    }
  });

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      const auto part = MakeUniqueKeys(512, 17, static_cast<uint64_t>(w));
      Xoshiro256 rng(1000 + static_cast<uint64_t>(w));
      auto& log = logs[w];
      log.reserve(kOpsPerWriter);
      for (int op = 0; op < kOpsPerWriter; ++op) {
        const uint64_t k = part[FastRange64(rng.Next(), part.size())];
        if (rng.Next() % 4 == 0) {
          table.Erase(k);
          log.push_back({true, k, 0});
        } else {
          const uint64_t v = k + static_cast<uint64_t>(op % kOpsPerWriter);
          table.InsertOrAssign(k, v);
          log.push_back({false, k, v});
        }
      }
    });
  }
  for (auto& th : writers) th.join();
  stop.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(reader_errors.load(), 0);

  std::unordered_map<uint64_t, uint64_t> oracle;
  for (const auto& log : logs) {
    for (const Op& op : log) {
      if (op.erase) {
        oracle.erase(op.key);
      } else {
        oracle[op.key] = op.value;
      }
    }
  }
  EXPECT_EQ(table.size() + table.stash_size(), oracle.size());
  for (const auto& [k, v] : oracle) {
    uint64_t got = 0;
    ASSERT_TRUE(table.Find(k, &got)) << k;
    EXPECT_EQ(got, v) << k;
  }
  for (int w = 0; w < kWriters; ++w) {
    for (uint64_t k : MakeUniqueKeys(512, 17, static_cast<uint64_t>(w))) {
      if (!oracle.contains(k)) {
        EXPECT_FALSE(table.Contains(k)) << k;
      }
    }
  }
  ExpectInvariants(table);
}

TEST(MultiWriterStressTest, MixedChurnMatchesSerializedOracle) {
  MixedChurnMatchesSerializedOracle<Table>(StressOptions());
}

TEST(MultiWriterStressTest, MixedChurnMatchesSerializedOracleBlocked) {
  MixedChurnMatchesSerializedOracle<BlockedTable>(Blocked(StressOptions()));
}

// The same churn in kTombstone mode: concurrent erases mark every copy
// deleted through the striped writer (StripedWriter::MarkDeleted), and
// re-inserts land on the tombstones. The store erases with
// kResetCounters, so only this case runs that writer's tombstone mark.
TableOptions TombstoneOptions() {
  TableOptions o = StressOptions();
  o.deletion_mode = DeletionMode::kTombstone;
  return o;
}

TEST(MultiWriterStressTest, MixedChurnMatchesSerializedOracleTombstone) {
  MixedChurnMatchesSerializedOracle<Table>(TombstoneOptions());
}

TEST(MultiWriterStressTest, MixedChurnMatchesSerializedOracleTombstoneBlocked) {
  MixedChurnMatchesSerializedOracle<BlockedTable>(Blocked(TombstoneOptions()));
}

// Concurrent writers driving the table through forced growth under
// optimistic readers: a small table with the growth engine on must
// escalate to the table-wide drain, rehash, and lose nothing, and no
// reader may miss a key its writer has committed.
template <typename T>
void GrowthUnderConcurrentWriters(const TableOptions& o) {
  auto table_ptr = MultiWriterShard<T>(o);
  ShardedMcCuckoo<T>& table = *table_ptr;

  constexpr int kWriters = 4;
  constexpr size_t kPerWriter = 800;  // ~8x the initial capacity in total
  std::vector<std::vector<uint64_t>> keys;
  for (int w = 0; w < kWriters; ++w) {
    keys.push_back(MakeUniqueKeys(kPerWriter, 31, static_cast<uint64_t>(w)));
  }
  std::array<std::atomic<size_t>, kWriters> committed{};
  std::atomic<bool> stop{false};
  std::atomic<int> reader_errors{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      uint64_t i = static_cast<uint64_t>(r) * 104729;
      while (!stop.load(std::memory_order_acquire)) {
        const int w = static_cast<int>(i % kWriters);
        const size_t limit = committed[w].load(std::memory_order_acquire);
        if (limit > 0) {
          const uint64_t k = keys[w][i % limit];
          uint64_t v = 0;
          if (!table.Find(k, &v) || v != k + 1) reader_errors.fetch_add(1);
        }
        ++i;
      }
    });
  }
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (size_t i = 0; i < kPerWriter; ++i) {
        const uint64_t k = keys[w][i];
        table.Insert(k, k + 1);
        committed[w].store(i + 1, std::memory_order_release);
      }
    });
  }
  for (auto& th : writers) th.join();
  stop.store(true, std::memory_order_release);
  for (auto& th : readers) th.join();

  EXPECT_EQ(reader_errors.load(), 0);
  EXPECT_EQ(table.size() + table.stash_size(), kWriters * kPerWriter);
  for (int w = 0; w < kWriters; ++w) {
    for (uint64_t k : keys[w]) {
      uint64_t v = 0;
      ASSERT_TRUE(table.Find(k, &v)) << k;
      EXPECT_EQ(v, k + 1);
    }
  }
  ExpectInvariants(table);
#ifndef MCCUCKOO_NO_METRICS
  // 8x overload of the initial table cannot fit without growing.
  EXPECT_GT(table.metrics_snapshot().growth_rehashes, 0u);
#endif
}

TableOptions GrowthOptions() {
  TableOptions o = StressOptions();
  o.buckets_per_table = 128;
  o.maxloop = 64;
  o.growth_enabled = true;
  return o;
}

TEST(MultiWriterStressTest, GrowthUnderConcurrentWriters) {
  GrowthUnderConcurrentWriters<Table>(GrowthOptions());
}

TEST(MultiWriterStressTest, GrowthUnderConcurrentWritersBlocked) {
  GrowthUnderConcurrentWriters<BlockedTable>(Blocked(GrowthOptions()));
}

// Concurrent writers overfilling a growth-off shard: every insert the
// multi-writer BFS cannot place lands in the stash, and each must leave one
// stash-spill span in the shard's ring, just as a single-writer spill does.
// Every other insert is an InsertOrAssign, whose stash screen reads the
// flags of its candidates while other writers spill: on the blocked layout
// those flags are bits of words shared with other writers' buckets.
template <typename T>
void ConcurrentSpillsRecordSpans(const TableOptions& o) {
  auto table_ptr = MultiWriterShard<T>(o);
  ShardedMcCuckoo<T>& table = *table_ptr;

  constexpr int kWriters = 4;
  constexpr size_t kPerWriter = 225;  // 900 keys into about 770 slots
  std::vector<std::vector<uint64_t>> keys;
  for (int w = 0; w < kWriters; ++w) {
    keys.push_back(MakeUniqueKeys(kPerWriter, 53, static_cast<uint64_t>(w)));
  }
  std::atomic<uint64_t> stashed{0};
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (size_t i = 0; i < kPerWriter; ++i) {
        const uint64_t k = keys[w][i];
        const InsertResult r = i % 2 == 0 ? table.Insert(k, k + 5)
                                          : table.InsertOrAssign(k, k + 5);
        if (r == InsertResult::kStashed) stashed.fetch_add(1);
      }
    });
  }
  for (auto& th : writers) th.join();

  ASSERT_GT(stashed.load(), 0u);
  EXPECT_EQ(table.stash_size(), stashed.load());
  for (int w = 0; w < kWriters; ++w) {
    for (uint64_t k : keys[w]) {
      uint64_t v = 0;
      ASSERT_TRUE(table.Find(k, &v)) << k;
      EXPECT_EQ(v, k + 5);
    }
  }
  // Includes the rule that every stashed key's candidate flags are set.
  ExpectInvariants(table);
  if constexpr (kMetricsEnabled) {
    const MetricsSnapshot s = table.metrics_snapshot();
    EXPECT_EQ(s.span_counts[static_cast<size_t>(SpanKind::kStashSpill)],
              stashed.load());
    // A spill is a dead end unless contention used up every replan.
    const uint64_t dead_ends =
        s.span_counts[static_cast<size_t>(SpanKind::kBfsDeadEnd)];
    EXPECT_GT(dead_ends, 0u);
    EXPECT_LE(dead_ends, stashed.load());
  }
}

TableOptions SpillOptions() {
  TableOptions o = StressOptions();
  o.buckets_per_table = 256;
  o.eviction_policy = EvictionPolicy::kBfs;
  return o;
}

TEST(MultiWriterStressTest, ConcurrentSpillsRecordSpans) {
  ConcurrentSpillsRecordSpans<Table>(SpillOptions());
}

TEST(MultiWriterStressTest, ConcurrentSpillsRecordSpansBlocked) {
  ConcurrentSpillsRecordSpans<BlockedTable>(Blocked(SpillOptions()));
}

// A multi-writer InsertBatch far past the initial capacity must grow the
// table as it goes, exactly as per-key Inserts do: deferring every growth
// request to the end of the batch would pin the table at its initial size
// and spill nearly the whole batch into the stash.
TEST(MultiWriterStressTest, InsertBatchGrowsMidBatch) {
  TableOptions o = StressOptions();
  o.buckets_per_table = 1024;
  o.growth_enabled = true;
  ShardedMcCuckoo<Table> table(o, 1);
  const uint64_t initial_capacity = table.capacity();
  const auto keys = MakeUniqueKeys(64 * initial_capacity, 47, 0);
  std::vector<uint64_t> values(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) values[i] = keys[i] + 3;
  std::vector<InsertResult> results(keys.size());
  table.InsertBatch(keys, values, results.data());

  EXPECT_EQ(table.stash_size(), 0u);
  EXPECT_GT(table.capacity(), initial_capacity);
  EXPECT_EQ(table.TotalItems(), keys.size());
  for (uint64_t k : keys) {
    uint64_t v = 0;
    ASSERT_TRUE(table.Find(k, &v)) << k;
    ASSERT_EQ(v, k + 3);
  }
  EXPECT_TRUE(
      table.WithExclusiveShard(0, [](Table& t) { return t.CheckInvariants(); })
          .ok());
}

// Single-threaded differential trace: the front-end's striped writers and
// optimistic reads must be operation-for-operation identical to the bare
// table's single writer (SoloWriter plus FindNoStats, the paper's §III.H
// writer) when only one thread drives them. The bare table is built from
// the one shard's own options, so both share geometry and seeds. This is
// also the configuration whose t1 overhead bench/scaling's
// concurrent.write_scaling rows record — here we pin semantics, the bench
// speed.
template <typename T>
void SingleThreadMatchesSingleWriterWrapper(const TableOptions& o) {
  auto multi_ptr = MultiWriterShard<T>(o);
  ShardedMcCuckoo<T>& multi = *multi_ptr;
  T single(multi.WithExclusiveShard(0, [](T& t) { return t.options(); }));

  const auto keys = MakeUniqueKeys(3000, 11, 0);
  Xoshiro256 rng(123);
  for (int op = 0; op < 30000; ++op) {
    const uint64_t k = keys[FastRange64(rng.Next(), keys.size())];
    switch (rng.Next() % 4) {
      case 0: {
        const InsertResult a = single.InsertOrAssign(k, k + op);
        const InsertResult b = multi.InsertOrAssign(k, k + op);
        ASSERT_EQ(a, b) << "op " << op;
        break;
      }
      case 1: {
        ASSERT_EQ(single.Erase(k), multi.Erase(k)) << "op " << op;
        break;
      }
      default: {
        uint64_t va = 0, vb = 0;
        const bool fa = single.FindNoStats(k, &va);
        const bool fb = multi.Find(k, &vb);
        ASSERT_EQ(fa, fb) << "op " << op;
        if (fa) {
          ASSERT_EQ(va, vb) << "op " << op;
        }
        break;
      }
    }
  }
  EXPECT_EQ(single.size(), multi.size());
  EXPECT_EQ(single.stash_size(), multi.stash_size());
  ExpectInvariants(multi);
}

TEST(MultiWriterStressTest, SingleThreadMatchesSingleWriterWrapper) {
  SingleThreadMatchesSingleWriterWrapper<Table>(StressOptions());
}

TEST(MultiWriterStressTest, SingleThreadMatchesSingleWriterWrapperBlocked) {
  SingleThreadMatchesSingleWriterWrapper<BlockedTable>(
      Blocked(StressOptions()));
}

// The sharded front-end at four shards: all writers hammer all shards
// (no partitioning), batched and scalar reads run concurrently, and the
// final state must match the per-shard serialized oracle of disjoint key
// ownership (keys are unique, so last-writer-wins doesn't arise for
// Insert-only traffic).
TEST(MultiWriterStressTest, ShardedMultiWriterInsertStress) {
  TableOptions o = StressOptions();
  o.buckets_per_table = 512;
  ShardedMcCuckoo<Table> table(o, /*num_shards=*/4);

  constexpr int kWriters = 4;
  constexpr size_t kPerWriter = 1000;
  std::vector<std::vector<uint64_t>> keys;
  for (int w = 0; w < kWriters; ++w) {
    keys.push_back(MakeUniqueKeys(kPerWriter, 23, static_cast<uint64_t>(w)));
  }

  std::atomic<bool> stop{false};
  std::atomic<int> reader_errors{0};
  std::thread reader([&] {
    constexpr size_t kB = 32;
    uint64_t out[kB];
    bool found[kB];
    uint64_t i = 0;
    while (!stop.load(std::memory_order_acquire)) {
      const int w = static_cast<int>(i % kWriters);
      table.FindBatch(std::span<const uint64_t>(keys[w].data(), kB), out,
                      found);
      for (size_t j = 0; j < kB; ++j) {
        if (found[j] && out[j] != keys[w][j] + 7) reader_errors.fetch_add(1);
      }
      ++i;
    }
  });

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (uint64_t k : keys[w]) table.Insert(k, k + 7);
    });
  }
  for (auto& th : writers) th.join();
  stop.store(true, std::memory_order_release);
  reader.join();

  EXPECT_EQ(reader_errors.load(), 0);
  EXPECT_EQ(table.TotalItems(), kWriters * kPerWriter);
  for (int w = 0; w < kWriters; ++w) {
    for (uint64_t k : keys[w]) {
      uint64_t v = 0;
      ASSERT_TRUE(table.Find(k, &v)) << k;
      EXPECT_EQ(v, k + 7);
    }
  }
  for (size_t sh = 0; sh < table.num_shards(); ++sh) {
    EXPECT_TRUE(table
                    .WithExclusiveShard(
                        sh, [](Table& t) { return t.CheckInvariants(); })
                    .ok());
  }
#ifndef MCCUCKOO_NO_METRICS
  EXPECT_GT(table.metrics_snapshot().writer_lock_acquisitions, 0u);
#endif
}

// Erase/insert churn against the sharded front-end with concurrent
// Contains probes; membership after quiescence must match the oracle.
TEST(MultiWriterStressTest, ShardedMultiWriterChurn) {
  TableOptions o = StressOptions();
  o.buckets_per_table = 512;
  ShardedMcCuckoo<Table> table(o, /*num_shards=*/2);

  constexpr int kWriters = 4;
  constexpr int kOpsPerWriter = 6000;
  struct Op {
    bool erase;
    uint64_t key;
    uint64_t value;
  };
  std::vector<std::vector<Op>> logs(kWriters);

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      const auto part = MakeUniqueKeys(400, 41, static_cast<uint64_t>(w));
      Xoshiro256 rng(2000 + static_cast<uint64_t>(w));
      auto& log = logs[w];
      log.reserve(kOpsPerWriter);
      for (int op = 0; op < kOpsPerWriter; ++op) {
        const uint64_t k = part[FastRange64(rng.Next(), part.size())];
        if (rng.Next() % 3 == 0) {
          table.Erase(k);
          log.push_back({true, k, 0});
        } else {
          const uint64_t v = k ^ static_cast<uint64_t>(op);
          table.InsertOrAssign(k, v);
          log.push_back({false, k, v});
        }
      }
    });
  }
  for (auto& th : writers) th.join();

  std::unordered_map<uint64_t, uint64_t> oracle;
  for (const auto& log : logs) {
    for (const Op& op : log) {
      if (op.erase) {
        oracle.erase(op.key);
      } else {
        oracle[op.key] = op.value;
      }
    }
  }
  EXPECT_EQ(table.TotalItems(), oracle.size());
  for (const auto& [k, v] : oracle) {
    uint64_t got = 0;
    ASSERT_TRUE(table.Find(k, &got)) << k;
    EXPECT_EQ(got, v) << k;
  }
}

// Full-load churn with growth off: four writers keep more keys live than
// the table has slots, so inserts run BFS searches to dead ends and spill
// to the stash while erases of stashed keys and of sole copies run beside
// them, all on the plain counter-byte stores of the multi-writer path.
// After quiescence membership must match the oracle, the table must hold
// more items than slots (the stash took the overflow) and every shard must
// pass its invariant check.
TEST(MultiWriterStressTest, ShardedFullLoadChurnPastLoadFactorOne) {
  TableOptions o = StressOptions();
  o.buckets_per_table = 256;
  o.growth_enabled = false;
  ShardedMcCuckoo<Table> table(o, /*num_shards=*/2);
  constexpr int kWriters = 4;
  constexpr size_t kKeysPerWriter = 350;
  constexpr int kOpsPerWriter = 5000;
  struct Op {
    bool erase;
    uint64_t key;
    uint64_t value;
  };
  std::vector<std::vector<Op>> logs(kWriters);
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      const auto part =
          MakeUniqueKeys(kKeysPerWriter, 47, static_cast<uint64_t>(w));
      auto& log = logs[w];
      log.reserve(kKeysPerWriter + kOpsPerWriter);
      for (uint64_t k : part) {  // fill past the slot count first
        table.InsertOrAssign(k, k);
        log.push_back({false, k, k});
      }
      Xoshiro256 rng(4000 + static_cast<uint64_t>(w));
      for (int op = 0; op < kOpsPerWriter; ++op) {
        const uint64_t k = part[FastRange64(rng.Next(), part.size())];
        if (rng.Next() % 3 == 0) {
          table.Erase(k);
          log.push_back({true, k, 0});
        } else {
          const uint64_t v = k ^ (static_cast<uint64_t>(op) << 20);
          table.InsertOrAssign(k, v);
          log.push_back({false, k, v});
        }
      }
    });
  }
  for (auto& th : writers) th.join();

  std::unordered_map<uint64_t, uint64_t> oracle;
  for (const auto& log : logs) {
    for (const Op& op : log) {
      if (op.erase) {
        oracle.erase(op.key);
      } else {
        oracle[op.key] = op.value;
      }
    }
  }
  EXPECT_EQ(table.TotalItems(), oracle.size());
  EXPECT_GT(table.TotalItems(), table.capacity());
  EXPECT_GT(table.stash_size(), 0u);
  for (const auto& [k, v] : oracle) {
    uint64_t got = 0;
    ASSERT_TRUE(table.Find(k, &got)) << k;
    EXPECT_EQ(got, v) << k;
  }
  for (size_t i = 0; i < table.num_shards(); ++i) {
    const Status s = table.WithExclusiveShard(
        i, [](Table& t) { return t.CheckInvariants(); });
    EXPECT_TRUE(s.ok()) << "shard " << i << ": " << s.ToString();
  }
}

// Writers race InsertOrAssign on a few shared hot keys while another thread
// inserts fresh keys, whose kick chains move the hot keys' copies. Every
// write stores a value unique to its writer and round and reports the value
// it replaced through `previous`. Per key, the reports must chain all the
// writes back to the initial value, each value replaced exactly once: the
// guarantee ItemStore::Set relies on to unlink exactly the item it replaced.
TEST(MultiWriterStressTest, ShardedInsertOrAssignPreviousChains) {
  ShardedMcCuckoo<Table> table(StressOptions(), /*num_shards=*/2);
  constexpr int kWriters = 4;
  constexpr uint64_t kRounds = 3000;
  const auto hot = MakeUniqueKeys(6, 43, 0);
  for (uint64_t k : hot) table.Insert(k, 0);

  struct Report {
    size_t key;  // index into hot
    uint64_t previous;
    uint64_t value;
    InsertResult result;
  };
  std::vector<std::vector<Report>> logs(kWriters);
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      Xoshiro256 rng(3000 + static_cast<uint64_t>(w));
      for (uint64_t round = 1; round <= kRounds; ++round) {
        const size_t i = FastRange64(rng.Next(), hot.size());
        const uint64_t v = (static_cast<uint64_t>(w + 1) << 32) | round;
        uint64_t prev = ~0ull;
        const InsertResult r = table.InsertOrAssign(hot[i], v, &prev);
        logs[w].push_back({i, prev, v, r});
      }
    });
  }
  threads.emplace_back([&] {
    for (uint64_t k : MakeUniqueKeys(3500, 43, 1)) table.Insert(k, k);
  });
  for (auto& th : threads) th.join();

  // replaced[i][v]: how often value v of hot key i was reported replaced.
  std::vector<std::unordered_map<uint64_t, int>> replaced(hot.size());
  std::vector<std::vector<uint64_t>> written(hot.size());
  for (const auto& log : logs) {
    for (const Report& r : log) {
      ASSERT_EQ(r.result, InsertResult::kUpdated);
      ++replaced[r.key][r.previous];
      written[r.key].push_back(r.value);
    }
  }
  for (size_t i = 0; i < hot.size(); ++i) {
    uint64_t last = 0;
    ASSERT_TRUE(table.Find(hot[i], &last));
    // Exactly the initial value and every write but the surviving one were
    // replaced, once each.
    written[i].push_back(0);
    size_t expected_reports = 0;
    for (uint64_t v : written[i]) {
      const int want = v == last ? 0 : 1;
      EXPECT_EQ(replaced[i].count(v) ? replaced[i][v] : 0, want) << v;
      expected_reports += static_cast<size_t>(want);
    }
    EXPECT_EQ(replaced[i].size(), expected_reports) << "a phantom previous";
  }
  for (size_t sh = 0; sh < table.num_shards(); ++sh) {
    EXPECT_TRUE(table
                    .WithExclusiveShard(
                        sh, [](Table& t) { return t.CheckInvariants(); })
                    .ok());
  }
}

// Manual same-size rehashes under new seeds, through WithExclusiveShard,
// while writers insert disjoint keys and readers check every committed
// prefix. This is where the stripe drain, the exclusive section's aux guard
// and CommitRehash's "open the aux stripe only if not already odd" rule
// meet on the shard's one stripe array: a reader that validated across a
// commit, or a writer that slipped past the drain, would miss a committed
// key or break an invariant.
TEST(MultiWriterStressTest, RehashUnderMultiWriterTraffic) {
  auto table_ptr = MultiWriterShard<Table>(StressOptions());
  ShardedMcCuckoo<Table>& table = *table_ptr;
  constexpr int kWriters = 3;
  constexpr size_t kPerWriter = 1000;
  std::vector<std::vector<uint64_t>> keys;
  for (int w = 0; w < kWriters; ++w) {
    keys.push_back(MakeUniqueKeys(kPerWriter, 47, static_cast<uint64_t>(w)));
  }
  std::array<std::atomic<size_t>, kWriters> committed{};
  std::atomic<int> writers_done{0};
  std::atomic<bool> stop{false};
  std::atomic<int> reader_errors{0};

  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      uint64_t i = static_cast<uint64_t>(r) * 7919;
      while (!stop.load(std::memory_order_acquire)) {
        const int w = static_cast<int>(i % kWriters);
        const size_t limit = committed[w].load(std::memory_order_acquire);
        if (limit > 0) {
          const uint64_t k = keys[w][i % limit];
          uint64_t v = 0;
          if (!table.Find(k, &v) || v != k + 42) reader_errors.fetch_add(1);
        }
        ++i;
      }
    });
  }
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (size_t i = 0; i < kPerWriter; ++i) {
        table.Insert(keys[w][i], keys[w][i] + 42);
        committed[w].store(i + 1, std::memory_order_release);
      }
      writers_done.fetch_add(1, std::memory_order_release);
    });
  }
  // At least a few rehashes land mid-stream, whatever the scheduler does.
  int rehashes = 0;
  while (rehashes < 4 ||
         writers_done.load(std::memory_order_acquire) < kWriters) {
    const Status s = table.WithExclusiveShard(0, [&](Table& t) {
      return t.Rehash(t.options().buckets_per_table,
                      /*new_seed=*/5000 + static_cast<uint64_t>(rehashes));
    });
    ASSERT_TRUE(s.ok()) << s.message();
    ++rehashes;
    std::this_thread::yield();
  }
  for (auto& th : writers) th.join();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  stop.store(true, std::memory_order_release);
  for (auto& th : readers) th.join();

  EXPECT_EQ(reader_errors.load(), 0);
  EXPECT_EQ(table.TotalItems(), kWriters * kPerWriter);
  for (int w = 0; w < kWriters; ++w) {
    for (uint64_t k : keys[w]) {
      uint64_t v = 0;
      ASSERT_TRUE(table.Find(k, &v)) << k;
      EXPECT_EQ(v, k + 42);
    }
  }
  EXPECT_EQ(table.WithExclusiveShard(0, [](Table& t) {
    return t.rehash_epoch();
  }), static_cast<uint64_t>(rehashes));
  ExpectInvariants(table);
}

// Writers racing auto-growth from a tiny table: each insert computes its
// candidates before claiming their stripes, with nothing else holding
// growth off, so every one of the many rehashes can land between a
// writer's candidate computation and its claim. The writer must see the
// rehash epoch move under its claims and start over; one that inserted
// with candidates of the old geometry would leave keys in buckets they do
// not hash to, which the readers or the final checks catch.
TEST(MultiWriterStressTest, WritersRestartOnRehashEpoch) {
  TableOptions o = StressOptions();
  o.buckets_per_table = 8;
  o.growth_enabled = true;
  auto table_ptr = MultiWriterShard<Table>(o);
  ShardedMcCuckoo<Table>& table = *table_ptr;
  const uint64_t initial_capacity = table.capacity();
  constexpr int kWriters = 3;
  constexpr size_t kPerWriter = 1500;
  std::vector<std::vector<uint64_t>> keys;
  for (int w = 0; w < kWriters; ++w) {
    keys.push_back(MakeUniqueKeys(kPerWriter, 59, static_cast<uint64_t>(w)));
  }
  std::array<std::atomic<size_t>, kWriters> committed{};
  std::atomic<bool> stop{false};
  std::atomic<int> reader_errors{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      uint64_t i = static_cast<uint64_t>(r) * 7919;
      while (!stop.load(std::memory_order_acquire)) {
        const int w = static_cast<int>(i % kWriters);
        const size_t limit = committed[w].load(std::memory_order_acquire);
        if (limit > 0) {
          const uint64_t k = keys[w][i % limit];
          uint64_t v = 0;
          if (!table.Find(k, &v) || v != k + 7) reader_errors.fetch_add(1);
        }
        ++i;
      }
    });
  }
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (size_t i = 0; i < kPerWriter; ++i) {
        table.Insert(keys[w][i], keys[w][i] + 7);
        committed[w].store(i + 1, std::memory_order_release);
      }
    });
  }
  for (auto& th : writers) th.join();
  stop.store(true, std::memory_order_release);
  for (auto& th : readers) th.join();

  EXPECT_EQ(reader_errors.load(), 0);
  // 4500 keys from 24 slots: at least seven doublings.
  EXPECT_GE(table.capacity(), initial_capacity << 7);
  EXPECT_EQ(table.TotalItems(), kWriters * kPerWriter);
  for (int w = 0; w < kWriters; ++w) {
    for (uint64_t k : keys[w]) {
      uint64_t v = 0;
      ASSERT_TRUE(table.Find(k, &v)) << k;
      EXPECT_EQ(v, k + 7);
    }
  }
  ExpectInvariants(table);
}

// Growth bookkeeping with four writers on one growth-enabled shard: the
// easy inserts settle it with a relaxed bump and the rest serialize the
// policy on the aux stripe. The load trigger must still fire on time (a
// fast path that skipped it would let the table fill until BFS searches
// turn hard, well past the ceiling), the shard must grow repeatedly, and
// nothing may degrade. A sampler reads the items before the capacity, so
// a growth between the two reads can only lower a sample.
TEST(MultiWriterStressTest, GrowthBookkeepingKeepsTriggersUnderWriters) {
  TableOptions o = StressOptions();
  o.buckets_per_table = 128;
  // Searches may expand 1000 nodes, so no search below saturation runs
  // half of that: pressure comes from the load trigger alone.
  o.maxloop = 1000;
  o.growth_enabled = true;
  auto table_ptr = MultiWriterShard<Table>(o);
  ShardedMcCuckoo<Table>& table = *table_ptr;
  const uint64_t initial_capacity = table.capacity();
  constexpr int kWriters = 4;
  constexpr size_t kPerWriter = 800;  // ~8x the initial capacity in total
  std::vector<std::vector<uint64_t>> keys;
  for (int w = 0; w < kWriters; ++w) {
    keys.push_back(MakeUniqueKeys(kPerWriter, 61, static_cast<uint64_t>(w)));
  }
  std::atomic<bool> stop{false};
  double max_load = 0;
  std::thread sampler([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const double items = static_cast<double>(table.TotalItems());
      max_load =
          std::max(max_load, items / static_cast<double>(table.capacity()));
    }
  });
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (uint64_t k : keys[w]) table.Insert(k, k + 9);
    });
  }
  for (auto& th : writers) th.join();
  stop.store(true, std::memory_order_release);
  sampler.join();

  // The ceiling is kGrowthMaxLoadFactor; every writer checks the triggers
  // right after its own insert, so the overshoot is a few keys (0.03 of
  // the initial 384 slots is 11). Without the load trigger the table
  // fills to its first stash spill, past 0.9.
  EXPECT_LE(max_load, kGrowthMaxLoadFactor + 0.03);
  EXPECT_GE(table.capacity(), initial_capacity * 4);  // grew at least twice
  EXPECT_EQ(table.stash_size(), 0u);
  EXPECT_EQ(table.TotalItems(), kWriters * kPerWriter);
  for (int w = 0; w < kWriters; ++w) {
    for (uint64_t k : keys[w]) {
      uint64_t v = 0;
      ASSERT_TRUE(table.Find(k, &v)) << k;
      EXPECT_EQ(v, k + 9);
    }
  }
  const MetricsSnapshot m = table.metrics_snapshot();
  EXPECT_EQ(m.growth_suppressed, 0u);
  if constexpr (kMetricsEnabled) {
    EXPECT_GE(m.growth_rehashes, 2u);
  }
  ExpectInvariants(table);
}

// Scrapes while writers grow a shard: metrics_snapshot(), capacity() and
// the span-ring copy take only the aux stripe, under which the geometry,
// the stash and the ring are written. Each capacity read must be one the
// shard really had: the initial one or a growth span's target. Run under
// TSan, a scrape that read any of them outside the aux stripe is a race.
TEST(MultiWriterStressTest, ScrapesReadUnderAuxWhileShardGrows) {
  TableOptions o = StressOptions();
  o.buckets_per_table = 64;
  o.growth_enabled = true;
  auto table_ptr = MultiWriterShard<Table>(o);
  ShardedMcCuckoo<Table>& table = *table_ptr;
  const uint64_t slots_per_bucket_row =
      uint64_t{o.num_hashes} * o.slots_per_bucket;
  constexpr int kWriters = 3;
  constexpr size_t kPerWriter = 1000;
  std::vector<std::vector<uint64_t>> keys;
  for (int w = 0; w < kWriters; ++w) {
    keys.push_back(MakeUniqueKeys(kPerWriter, 67, static_cast<uint64_t>(w)));
  }
  std::atomic<bool> stop{false};
  std::vector<uint64_t> seen;  // every capacity a scrape read
  std::atomic<int> scrape_errors{0};
  std::thread scraper([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const MetricsSnapshot m = table.metrics_snapshot();
      seen.push_back(m.capacity_slots);
      seen.push_back(table.capacity());
      const std::vector<Span> spans = table.shard_spans(0);
      for (size_t i = 1; i < spans.size(); ++i) {
        if (spans[i].seq != spans[i - 1].seq + 1) scrape_errors.fetch_add(1);
      }
    }
  });
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (uint64_t k : keys[w]) table.Insert(k, k + 11);
    });
  }
  for (auto& th : writers) th.join();
  stop.store(true, std::memory_order_release);
  scraper.join();

  EXPECT_EQ(scrape_errors.load(), 0);
  ASSERT_FALSE(seen.empty());
  std::vector<uint64_t> had = {o.buckets_per_table};
  for (const Span& sp : table.shard_spans(0)) {
    if (sp.kind == SpanKind::kGrowth || sp.kind == SpanKind::kReseed) {
      had.push_back(sp.detail);
    }
  }
  if constexpr (kMetricsEnabled) {
    EXPECT_GT(had.size(), 1u);  // the shard grew
  }
  const uint64_t final_buckets = table.capacity() / slots_per_bucket_row;
  for (uint64_t c : seen) {
    ASSERT_EQ(c % slots_per_bucket_row, 0u) << c;
    const uint64_t buckets = c / slots_per_bucket_row;
    if constexpr (kMetricsEnabled) {
      EXPECT_NE(std::find(had.begin(), had.end(), buckets), had.end()) << c;
    } else {
      // No span ring: every geometry is the initial one doubled.
      EXPECT_TRUE(buckets % o.buckets_per_table == 0 &&
                  std::has_single_bit(buckets / o.buckets_per_table))
          << c;
    }
    EXPECT_LE(buckets, final_buckets) << c;
  }
  EXPECT_EQ(table.TotalItems(), kWriters * kPerWriter);
  ExpectInvariants(table);
}

}  // namespace
}  // namespace mccuckoo
