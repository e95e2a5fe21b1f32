// Stress and differential tests of the optimistic (seqlock-validated
// lock-free) read path. The core guarantee under test: a reader running
// concurrently with the writer never observes a committed key as missing —
// not even mid-kick-chain, when the key is transiently absent from every
// bucket — and never returns a torn value. Run under TSan
// (-DMCCUCKOO_TSAN=ON) this is the data-race check for the seqlock
// protocol itself.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <span>
#include <thread>
#include <vector>

#include "src/core/blocked_mccuckoo_table.h"
#include "src/core/mccuckoo_table.h"
#include "src/core/sharded_mccuckoo.h"
#include "src/common/rng.h"
#include "src/workload/keyset.h"

namespace mccuckoo {
namespace {

TableOptions SmallOptions(uint32_t slots_per_bucket) {
  TableOptions o;
  o.buckets_per_table = slots_per_bucket == 1 ? 2048 : 700;
  o.slots_per_bucket = slots_per_bucket;
  o.maxloop = 200;
  o.deletion_mode = DeletionMode::kResetCounters;
  return o;
}

// One writer inserting with kick chains in flight; N optimistic readers
// asserting every committed key is found with its exact value and that
// missing keys stay missing.
template <typename Table>
void RunOptimisticInsertStress(uint32_t slots_per_bucket) {
  ShardedMcCuckoo<Table> table(SmallOptions(slots_per_bucket), 1);
  const auto keys = MakeUniqueKeys(4000, 5, 0);
  const auto missing = MakeUniqueKeys(4000, 5, 7);

  std::atomic<size_t> committed{0};
  std::atomic<bool> stop{false};
  std::atomic<int> reader_errors{0};

  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      uint64_t i = static_cast<uint64_t>(r) * 7919;
      while (!stop.load(std::memory_order_acquire)) {
        const size_t limit = committed.load(std::memory_order_acquire);
        if (limit > 0) {
          const uint64_t k = keys[i % limit];
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

  for (size_t i = 0; i < keys.size(); ++i) {
    table.Insert(keys[i], keys[i] + 42);
    committed.store(i + 1, std::memory_order_release);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  stop.store(true, std::memory_order_release);
  for (auto& th : readers) th.join();

  EXPECT_EQ(reader_errors.load(), 0);
  EXPECT_EQ(table.size() + table.stash_size(), keys.size());
  EXPECT_TRUE(table.WithExclusiveShard(
      0, [](Table& t) { return t.ValidateInvariants(); }).ok());
}

TEST(OptimisticStressTest, SingleSlotInsertStress) {
  RunOptimisticInsertStress<McCuckooTable<uint64_t, uint64_t>>(1);
}

TEST(OptimisticStressTest, BlockedInsertStress) {
  RunOptimisticInsertStress<BlockedMcCuckooTable<uint64_t, uint64_t>>(3);
}

TEST(OptimisticStressTest, ErasesStayConsistent) {
  ShardedMcCuckoo<McCuckooTable<uint64_t, uint64_t>> table(SmallOptions(1), 1);
  const auto keys = MakeUniqueKeys(3000, 6, 0);
  for (uint64_t k : keys) table.Insert(k, k);

  std::atomic<size_t> erased{0};
  std::atomic<bool> stop{false};
  std::atomic<int> reader_errors{0};
  std::thread reader([&] {
    uint64_t i = 0;
    while (!stop.load(std::memory_order_acquire)) {
      const size_t low = erased.load(std::memory_order_acquire);
      const size_t idx = low + i % (keys.size() - low);
      if (!table.Contains(keys[idx]) &&
          idx >= erased.load(std::memory_order_acquire)) {
        // Re-checking the watermark after the miss rules out the benign
        // race where the writer erased keys[idx] mid-lookup.
        reader_errors.fetch_add(1);
      }
      ++i;
    }
  });
  for (size_t i = 0; i < keys.size() / 2; ++i) {
    erased.store(i + 1, std::memory_order_release);
    EXPECT_TRUE(table.Erase(keys[i]));
  }
  stop.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(reader_errors.load(), 0);
  EXPECT_EQ(table.size(), keys.size() / 2);
}

TEST(OptimisticStressTest, BatchReadsUnderConcurrency) {
  ShardedMcCuckoo<McCuckooTable<uint64_t, uint64_t>> table(SmallOptions(1), 1);
  const auto keys = MakeUniqueKeys(4000, 9, 0);
  std::vector<uint64_t> values(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) values[i] = keys[i] + 42;

  std::atomic<size_t> committed{0};
  std::atomic<bool> stop{false};
  std::atomic<int> reader_errors{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      constexpr size_t kB = 48;  // spans several optimistic tiles
      uint64_t out[kB];
      bool found[kB];
      uint64_t i = static_cast<uint64_t>(r) * 7919;
      while (!stop.load(std::memory_order_acquire)) {
        const size_t limit = committed.load(std::memory_order_acquire);
        if (limit >= kB) {
          const size_t base = i % (limit - kB + 1);
          table.FindBatch(std::span<const uint64_t>(&keys[base], kB), out,
                          found);
          for (size_t j = 0; j < kB; ++j) {
            if (!found[j] || out[j] != keys[base + j] + 42) {
              reader_errors.fetch_add(1);
            }
          }
        }
        ++i;
      }
    });
  }
  constexpr size_t kChunk = 64;
  for (size_t pos = 0; pos < keys.size(); pos += kChunk) {
    const size_t n = std::min(kChunk, keys.size() - pos);
    table.InsertBatch(std::span<const uint64_t>(&keys[pos], n),
                      std::span<const uint64_t>(&values[pos], n));
    committed.store(pos + n, std::memory_order_release);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  stop.store(true, std::memory_order_release);
  for (auto& th : readers) th.join();
  EXPECT_EQ(reader_errors.load(), 0);
  EXPECT_EQ(table.size() + table.stash_size(), keys.size());
}

// Keys pushed to the stash must stay visible through the optimistic path's
// striped fallback (the stash itself is never probed locklessly).
TEST(OptimisticStressTest, StashedKeysVisibleViaFallback) {
  TableOptions o = SmallOptions(1);
  o.buckets_per_table = 64;
  o.maxloop = 8;
  ShardedMcCuckoo<McCuckooTable<uint64_t, uint64_t>> table(o, 1);
  const auto keys = MakeUniqueKeys(192, 3, 0);
  for (uint64_t k : keys) table.Insert(k, k + 1);
  ASSERT_GT(table.stash_size(), 0u);
  for (uint64_t k : keys) {
    uint64_t v = 0;
    ASSERT_TRUE(table.Find(k, &v)) << k;
    EXPECT_EQ(v, k + 1);
  }
}

// Differential check: over one randomized insert/erase/lookup trace, the
// front-end (striped writers, optimistic reads) and the bare table behind
// the paper's lock (SoloWriter, FindNoStats, FindBatchNoStats) return
// bit-identical results for every scalar and batched lookup. The bare table
// is built from the one shard's own options, so both share geometry and
// seeds.
template <typename Table>
void RunDifferentialTrace(uint32_t slots_per_bucket) {
  ShardedMcCuckoo<Table> optimistic(SmallOptions(slots_per_bucket), 1);
  Table locked(optimistic.WithExclusiveShard(
      0, [](Table& t) { return t.options(); }));

  const auto keys = MakeUniqueKeys(3000, 11, 0);
  Xoshiro256 rng(123);
  for (int op = 0; op < 30000; ++op) {
    const uint64_t k = keys[FastRange64(rng.Next(), keys.size())];
    switch (rng.Next() % 4) {
      case 0: {
        // InsertOrAssign (not Insert): re-inserting a live key as a fresh
        // multi-copy entry leaves counter != copy-count after
        // kResetCounters erases — a pre-existing multiset quirk on both
        // sides, orthogonal to what this test compares.
        const InsertResult a = locked.InsertOrAssign(k, k + op);
        const InsertResult b = optimistic.InsertOrAssign(k, k + op);
        ASSERT_EQ(a, b) << "op " << op;
        break;
      }
      case 1: {
        ASSERT_EQ(locked.Erase(k), optimistic.Erase(k)) << "op " << op;
        break;
      }
      default: {
        uint64_t va = 0, vb = 0;
        const bool fa = locked.FindNoStats(k, &va);
        const bool fb = optimistic.Find(k, &vb);
        ASSERT_EQ(fa, fb) << "op " << op;
        if (fa) {
          ASSERT_EQ(va, vb) << "op " << op;
        }
        break;
      }
    }
  }
  ASSERT_EQ(locked.size(), optimistic.size());
  ASSERT_EQ(locked.stash_size(), optimistic.stash_size());

  // Batched sweep over the full key set, several tiles per call.
  constexpr size_t kB = 40;
  uint64_t out_a[kB], out_b[kB];
  bool found_a[kB], found_b[kB];
  for (size_t base = 0; base + kB <= keys.size(); base += kB) {
    const std::span<const uint64_t> batch(&keys[base], kB);
    const size_t ha = locked.FindBatchNoStats(batch, out_a, found_a);
    const size_t hb = optimistic.FindBatch(batch, out_b, found_b);
    ASSERT_EQ(ha, hb) << "base " << base;
    for (size_t j = 0; j < kB; ++j) {
      ASSERT_EQ(found_a[j], found_b[j]) << "base " << base << " j " << j;
      if (found_a[j]) {
        ASSERT_EQ(out_a[j], out_b[j]);
      }
    }
  }
  EXPECT_TRUE(optimistic.WithExclusiveShard(
      0, [](Table& t) { return t.ValidateInvariants(); }).ok());
}

TEST(OptimisticDifferentialTest, SingleSlotTraceMatchesLocked) {
  RunDifferentialTrace<McCuckooTable<uint64_t, uint64_t>>(1);
}

TEST(OptimisticDifferentialTest, BlockedTraceMatchesLocked) {
  RunDifferentialTrace<BlockedMcCuckooTable<uint64_t, uint64_t>>(3);
}

// Sharded front-end with optimistic readers: parallel writers on disjoint
// streams, readers validating committed prefixes through the per-shard
// seqlock arrays.
TEST(OptimisticStressTest, ShardedOptimisticReaders) {
  using Table = McCuckooTable<uint64_t, uint64_t>;
  TableOptions o = SmallOptions(1);
  o.buckets_per_table *= 4;
  ShardedMcCuckoo<Table> table(o, 4);

  constexpr int kWriters = 2;
  constexpr size_t kPerWriter = 3000;
  std::vector<std::vector<uint64_t>> streams;
  for (int w = 0; w < kWriters; ++w) {
    streams.push_back(MakeUniqueKeys(kPerWriter, 17, w));
  }

  std::array<std::atomic<size_t>, kWriters> committed{};
  std::atomic<bool> stop{false};
  std::atomic<int> reader_errors{0};

  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      constexpr size_t kB = 16;
      uint64_t out[kB];
      bool found[kB];
      uint64_t i = static_cast<uint64_t>(r) * 104729;
      while (!stop.load(std::memory_order_acquire)) {
        const int w = static_cast<int>(i % kWriters);
        const size_t limit = committed[w].load(std::memory_order_acquire);
        if (limit > 0) {
          const uint64_t k = streams[w][i % limit];
          uint64_t v = 0;
          if (!table.Find(k, &v) || v != k + 42) reader_errors.fetch_add(1);
        }
        if (limit >= kB) {
          const size_t base = i % (limit - kB + 1);
          table.FindBatch(
              std::span<const uint64_t>(&streams[w][base], kB), out, found);
          for (size_t j = 0; j < kB; ++j) {
            if (!found[j] || out[j] != streams[w][base + j] + 42) {
              reader_errors.fetch_add(1);
            }
          }
        }
        ++i;
      }
    });
  }

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      const auto& keys = streams[w];
      for (size_t i = 0; i < keys.size(); ++i) {
        table.Insert(keys[i], keys[i] + 42);
        committed[w].store(i + 1, std::memory_order_release);
      }
    });
  }
  for (auto& th : writers) th.join();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  stop.store(true, std::memory_order_release);
  for (auto& th : readers) th.join();

  EXPECT_EQ(reader_errors.load(), 0);
  EXPECT_EQ(table.TotalItems(), kWriters * kPerWriter);
  for (size_t s = 0; s < table.num_shards(); ++s) {
    EXPECT_TRUE(table.WithExclusiveShard(s, [](Table& t) {
      return t.ValidateInvariants();
    }).ok()) << "shard " << s;
  }
}

// Rehash restructures the whole bucket array; the aux stripe must force
// optimistic readers off the lock-free path for its duration, and every
// key must
// stay visible afterwards.
TEST(OptimisticStressTest, RehashUnderOptimisticReaders) {
  using Table = McCuckooTable<uint64_t, uint64_t>;
  ShardedMcCuckoo<Table> table(SmallOptions(1), 1);
  const auto keys = MakeUniqueKeys(1500, 21, 0);
  for (uint64_t k : keys) table.Insert(k, k + 1);

  std::atomic<bool> stop{false};
  std::atomic<int> reader_errors{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      uint64_t i = static_cast<uint64_t>(r) * 7919;
      while (!stop.load(std::memory_order_acquire)) {
        const uint64_t k = keys[i % keys.size()];
        uint64_t v = 0;
        if (!table.Find(k, &v) || v != k + 1) reader_errors.fetch_add(1);
        ++i;
      }
    });
  }
  const uint64_t buckets = SmallOptions(1).buckets_per_table;
  for (int round = 0; round < 3; ++round) {
    ASSERT_TRUE(table.WithExclusiveShard(0, [&](Table& t) {
      return t.Rehash(buckets, /*new_seed=*/1000 + round);
    }).ok());
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  stop.store(true, std::memory_order_release);
  for (auto& th : readers) th.join();
  EXPECT_EQ(reader_errors.load(), 0);
  for (uint64_t k : keys) EXPECT_TRUE(table.Contains(k)) << k;
}

// Auto-growth firing repeatedly while optimistic readers run: the writer
// pushes ~16x the initial capacity so growth rehashes land mid-stream,
// every committed key must stay visible with its exact value across each
// growth commit, and the readers' striped fallbacks stay bounded — each
// scalar read can fall back at most once, so fallbacks <= reads performed
// holds on any scheduler (non-flaky), while torn reads or lost keys would
// show up as reader_errors.
TEST(OptimisticStressTest, AutoGrowthUnderOptimisticReaders) {
  using Table = McCuckooTable<uint64_t, uint64_t>;
  TableOptions o;
  o.buckets_per_table = 256;
  o.maxloop = 200;
  o.deletion_mode = DeletionMode::kResetCounters;
  o.growth_enabled = true;
  ShardedMcCuckoo<Table> table(o, 1);

  const auto keys = MakeUniqueKeys(12000, 23, 0);
  std::atomic<size_t> committed{0};
  std::atomic<bool> stop{false};
  std::atomic<int> reader_errors{0};
  std::atomic<uint64_t> reader_ops{0};

  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      uint64_t i = static_cast<uint64_t>(r) * 7919;
      uint64_t ops = 0;
      while (!stop.load(std::memory_order_acquire)) {
        const size_t limit = committed.load(std::memory_order_acquire);
        if (limit > 0) {
          const uint64_t k = keys[i % limit];
          uint64_t v = 0;
          if (!table.Find(k, &v) || v != k + 42) reader_errors.fetch_add(1);
          ++ops;
        }
        ++i;
      }
      reader_ops.fetch_add(ops);
    });
  }

  for (size_t i = 0; i < keys.size(); ++i) {
    table.Insert(keys[i], keys[i] + 42);
    committed.store(i + 1, std::memory_order_release);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  stop.store(true, std::memory_order_release);
  for (auto& th : readers) th.join();

  EXPECT_EQ(reader_errors.load(), 0);
  EXPECT_EQ(table.size() + table.stash_size(), keys.size());

  const MetricsSnapshot snap = table.metrics_snapshot();
  if constexpr (kMetricsEnabled) {
    EXPECT_GT(snap.growth_rehashes, 0u);
  }
  EXPECT_LE(snap.optimistic_fallbacks, reader_ops.load());
  // Growth pressure was satisfied by growing, never by degrading.
  EXPECT_EQ(snap.growth_suppressed, 0u);
  EXPECT_TRUE(table.WithExclusiveShard(
      0, [](Table& t) { return t.CheckInvariants(); }).ok());
}

TEST(OptimisticStressTest, MetricsCountersExported) {
  ShardedMcCuckoo<McCuckooTable<uint64_t, uint64_t>> table(SmallOptions(1), 1);
  for (uint64_t k = 0; k < 500; ++k) table.Insert(k * 2654435761u, k);
  for (uint64_t k = 0; k < 500; ++k) table.Contains(k * 2654435761u);
  const MetricsSnapshot snap = table.metrics_snapshot();
  // Single-threaded: no writer contention, so no retries or fallbacks.
  EXPECT_EQ(snap.optimistic_retries, 0u);
  EXPECT_EQ(snap.optimistic_fallbacks, 0u);
}

}  // namespace
}  // namespace mccuckoo
