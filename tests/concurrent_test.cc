// Tests of the one-writer-many-readers design (§III.H), ShardedMcCuckoo at
// one shard: readers running concurrently with a writer never miss a
// committed key, never see a torn value, and never observe phantom keys —
// for both table layouts. Then the same guarantees with many shards.

#include "src/core/sharded_mccuckoo.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <span>
#include <thread>
#include <vector>

#include "src/core/blocked_mccuckoo_table.h"
#include "src/core/mccuckoo_table.h"
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

TEST(FindNoStatsTest, AgreesWithFindSingleSlot) {
  McCuckooTable<uint64_t, uint64_t> t(SmallOptions(1));
  const auto keys = MakeUniqueKeys(5000, 1, 0);
  for (uint64_t k : keys) t.Insert(k, k + 1);
  for (size_t i = 0; i < 1000; ++i) t.Erase(keys[i]);
  const auto missing = MakeUniqueKeys(3000, 1, 7);
  for (uint64_t k : keys) {
    uint64_t a = 0, b = 0;
    EXPECT_EQ(t.Find(k, &a), t.FindNoStats(k, &b)) << k;
    EXPECT_EQ(a, b);
  }
  for (uint64_t k : missing) {
    EXPECT_EQ(t.Find(k, nullptr), t.FindNoStats(k, nullptr)) << k;
  }
}

TEST(FindNoStatsTest, AgreesWithFindBlocked) {
  BlockedMcCuckooTable<uint64_t, uint64_t> t(SmallOptions(3));
  const auto keys = MakeUniqueKeys(5500, 2, 0);
  for (uint64_t k : keys) t.Insert(k, k + 1);
  for (size_t i = 0; i < 1000; ++i) t.Erase(keys[i]);
  const auto missing = MakeUniqueKeys(3000, 2, 7);
  for (uint64_t k : keys) {
    uint64_t a = 0, b = 0;
    EXPECT_EQ(t.Find(k, &a), t.FindNoStats(k, &b)) << k;
    EXPECT_EQ(a, b);
  }
  for (uint64_t k : missing) {
    EXPECT_EQ(t.Find(k, nullptr), t.FindNoStats(k, nullptr)) << k;
  }
}

TEST(FindNoStatsTest, FindsStashedKeys) {
  TableOptions o = SmallOptions(1);
  o.buckets_per_table = 64;
  o.maxloop = 8;
  McCuckooTable<uint64_t, uint64_t> t(o);
  const auto keys = MakeUniqueKeys(192, 3, 0);
  for (uint64_t k : keys) t.Insert(k, k);
  ASSERT_GT(t.stash_size(), 0u);
  for (uint64_t k : keys) EXPECT_TRUE(t.FindNoStats(k, nullptr)) << k;
}

TEST(FindNoStatsTest, MutatesNothing) {
  McCuckooTable<uint64_t, uint64_t> t(SmallOptions(1));
  for (uint64_t k : MakeUniqueKeys(1000, 4, 0)) t.Insert(k, k);
  t.ResetStats();
  for (uint64_t k = 0; k < 1000; ++k) t.FindNoStats(k, nullptr);
  EXPECT_EQ(t.stats().offchip_reads, 0u);
  EXPECT_EQ(t.stats().onchip_reads, 0u);
}

template <typename Table>
void RunOneShardUnderConcurrency(uint32_t slots_per_bucket) {
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
          if (!table.Find(k, &v) || v != k + 42) {
            reader_errors.fetch_add(1);
          }
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
  // Let readers chew on the fully-built table briefly.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  stop.store(true, std::memory_order_release);
  for (auto& th : readers) th.join();

  EXPECT_EQ(reader_errors.load(), 0);
  EXPECT_EQ(table.size() + table.stash_size(), keys.size());
  EXPECT_TRUE(table.WithExclusiveShard(
      0, [](Table& t) { return t.ValidateInvariants(); }).ok());
}

TEST(ShardedMcCuckooOneShardTest, SingleSlotUnderConcurrency) {
  RunOneShardUnderConcurrency<McCuckooTable<uint64_t, uint64_t>>(1);
}

TEST(ShardedMcCuckooOneShardTest, BlockedUnderConcurrency) {
  RunOneShardUnderConcurrency<BlockedMcCuckooTable<uint64_t, uint64_t>>(3);
}

TEST(ShardedMcCuckooOneShardTest, ConcurrentErasesStayConsistent) {
  ShardedMcCuckoo<McCuckooTable<uint64_t, uint64_t>> table(SmallOptions(1),
                                                            1);
  const auto keys = MakeUniqueKeys(3000, 6, 0);
  for (uint64_t k : keys) table.Insert(k, k);

  std::atomic<size_t> erased{0};
  std::atomic<bool> stop{false};
  std::atomic<int> reader_errors{0};
  std::thread reader([&] {
    uint64_t i = 0;
    while (!stop.load(std::memory_order_acquire)) {
      // Keys beyond the erase watermark must still be present.
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
    // Publish the watermark *before* erasing: a reader that misses keys[i]
    // then re-reads `erased` must find it already covered — storing after
    // the erase would let the miss outrun the watermark.
    erased.store(i + 1, std::memory_order_release);
    EXPECT_TRUE(table.Erase(keys[i]));
  }
  stop.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(reader_errors.load(), 0);
  EXPECT_EQ(table.size(), keys.size() / 2);
}

TEST(ShardedMcCuckooOneShardTest, BatchOpsUnderConcurrency) {
  ShardedMcCuckoo<McCuckooTable<uint64_t, uint64_t>> table(SmallOptions(1),
                                                            1);
  const auto keys = MakeUniqueKeys(4000, 9, 0);
  std::vector<uint64_t> values(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) values[i] = keys[i] + 42;

  std::atomic<size_t> committed{0};
  std::atomic<bool> stop{false};
  std::atomic<int> reader_errors{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      constexpr size_t kB = 16;
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

// --- ShardedMcCuckoo: many concurrent writers AND readers ----------------
//
// The sharded front-end's whole point is parallel writers; this stress runs
// several writers inserting disjoint key streams (mixing scalar Insert and
// InsertBatch so both lock paths are exercised) against readers doing
// scalar and batched lookups over the committed prefixes. Run under TSan
// (-DMCCUCKOO_TSAN=ON) this doubles as the data-race check for the
// per-shard locking and the one-shard-at-a-time batch grouping.
template <typename Table>
void RunShardedStress(uint32_t slots_per_bucket, size_t num_shards) {
  TableOptions o = SmallOptions(slots_per_bucket);
  o.buckets_per_table *= 4;  // room for all writers' keys
  ShardedMcCuckoo<Table> table(o, num_shards);

  constexpr int kWriters = 4;
  constexpr int kReaders = 3;
  constexpr size_t kPerWriter = 3000;
  std::vector<std::vector<uint64_t>> streams;
  for (int w = 0; w < kWriters; ++w) {
    streams.push_back(MakeUniqueKeys(kPerWriter, 17, w));
  }

  std::array<std::atomic<size_t>, kWriters> committed{};
  std::atomic<bool> stop{false};
  std::atomic<int> reader_errors{0};

  std::vector<std::thread> threads;
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      constexpr size_t kB = 16;
      uint64_t out[kB];
      bool found[kB];
      uint64_t i = static_cast<uint64_t>(r) * 104729;
      while (!stop.load(std::memory_order_acquire)) {
        const int w = static_cast<int>(i % kWriters);
        const size_t limit = committed[w].load(std::memory_order_acquire);
        if (limit > 0) {
          // Scalar probe of one committed key.
          const uint64_t k = streams[w][i % limit];
          uint64_t v = 0;
          if (!table.Find(k, &v) || v != k + 42) reader_errors.fetch_add(1);
        }
        if (limit >= kB) {
          // Batched probe of a committed window.
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
      std::vector<uint64_t> values(keys.size());
      for (size_t i = 0; i < keys.size(); ++i) values[i] = keys[i] + 42;
      size_t pos = 0;
      while (pos < keys.size()) {
        if ((pos / 32) % 2 == 0) {
          // Batched stretch.
          const size_t n = std::min<size_t>(32, keys.size() - pos);
          table.InsertBatch(std::span<const uint64_t>(&keys[pos], n),
                            std::span<const uint64_t>(&values[pos], n));
          pos += n;
        } else {
          // Scalar stretch.
          const size_t end = std::min(pos + 32, keys.size());
          for (; pos < end; ++pos) table.Insert(keys[pos], values[pos]);
        }
        committed[w].store(pos, std::memory_order_release);
      }
    });
  }
  for (auto& th : writers) th.join();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  stop.store(true, std::memory_order_release);
  for (auto& th : threads) th.join();

  EXPECT_EQ(reader_errors.load(), 0);
  EXPECT_EQ(table.TotalItems(), kWriters * kPerWriter);
  for (int w = 0; w < kWriters; ++w) {
    for (uint64_t k : streams[w]) {
      uint64_t v = 0;
      ASSERT_TRUE(table.Find(k, &v)) << k;
      ASSERT_EQ(v, k + 42);
    }
  }
  for (size_t s = 0; s < table.num_shards(); ++s) {
    EXPECT_TRUE(table.WithExclusiveShard(s, [](Table& t) {
      return t.ValidateInvariants();
    }).ok()) << "shard " << s;
  }
}

TEST(ShardedStressTest, SingleSlotManyWritersManyReaders) {
  RunShardedStress<McCuckooTable<uint64_t, uint64_t>>(1, 8);
}

TEST(ShardedStressTest, BlockedManyWritersManyReaders) {
  RunShardedStress<BlockedMcCuckooTable<uint64_t, uint64_t>>(3, 4);
}

TEST(ShardedStressTest, OneShardStillSafe) {
  RunShardedStress<McCuckooTable<uint64_t, uint64_t>>(1, 1);
}

TEST(ShardedMcCuckooOneShardTest, StatsSnapshotAndSizes) {
  ShardedMcCuckoo<McCuckooTable<uint64_t, uint64_t>> table(SmallOptions(1),
                                                            1);
  table.Insert(1, 10);
  table.InsertOrAssign(1, 11);
  uint64_t v = 0;
  ASSERT_TRUE(table.Find(1, &v));
  EXPECT_EQ(v, 11u);
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(table.stash_size(), 0u);
  EXPECT_GT(table.stats_snapshot().offchip_writes, 0u);
  EXPECT_GT(table.load_factor(), 0.0);
}

}  // namespace
}  // namespace mccuckoo
