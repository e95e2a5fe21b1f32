// Concurrency stress for the metrics layer: many readers recording metrics
// through the shared-lock lookup paths while a writer inserts and other
// threads snapshot/export continuously. Run under ThreadSanitizer in CI —
// the relaxed-atomic metric cells must be data-race free, and totals must
// be exact once the recorders are quiescent.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "src/core/mccuckoo_table.h"
#include "src/core/sharded_mccuckoo.h"
#include "src/obs/export.h"
#include "src/obs/metrics.h"
#include "src/workload/keyset.h"

namespace mccuckoo {
namespace {

using Table = McCuckooTable<uint64_t, uint64_t>;

TableOptions StressOptions() {
  TableOptions o;
  o.num_hashes = 3;
  o.buckets_per_table = 4096;
  o.slots_per_bucket = 1;
  o.maxloop = 200;
  o.seed = 0x57E55;
  return o;
}

TEST(MetricsStressTest, ShardedReadersWritersAndSnapshots) {
  constexpr size_t kReaders = 4;
  constexpr size_t kWriters = 2;
  constexpr size_t kKeysPerWriter = 3000;
  constexpr size_t kLookupRounds = 4;

  ShardedMcCuckoo<Table> table(StressOptions(), 4);
  const auto warm = MakeUniqueKeys(2000, 1, 99);
  for (uint64_t k : warm) table.Insert(k, k);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> total_lookups{0};
  std::vector<std::thread> threads;

  for (size_t w = 0; w < kWriters; ++w) {
    threads.emplace_back([&table, w] {
      const auto keys = MakeUniqueKeys(kKeysPerWriter, 1, 7 + w);
      for (uint64_t k : keys) table.Insert(k, k + 1);
    });
  }
  for (size_t r = 0; r < kReaders; ++r) {
    threads.emplace_back([&table, &warm, &total_lookups, r] {
      uint64_t done = 0;
      std::vector<uint64_t> out(warm.size());
      std::vector<uint8_t> found(warm.size());
      for (size_t round = 0; round < kLookupRounds; ++round) {
        if (r % 2 == 0) {
          for (uint64_t k : warm) {
            ASSERT_TRUE(table.Contains(k));
            ++done;
          }
        } else {
          ASSERT_EQ(table.FindBatch(warm, out.data(),
                                    reinterpret_cast<bool*>(found.data())),
                    warm.size());
          done += warm.size();
        }
      }
      total_lookups.fetch_add(done, std::memory_order_relaxed);
    });
  }
  // A scraper thread snapshots and renders concurrently with the traffic —
  // the exporter path must be as race-free as the recorders.
  threads.emplace_back([&table, &stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      const MetricsSnapshot s = table.metrics_snapshot();
      const std::string text = ExportPrometheus(s, AccessStats{});
      ASSERT_FALSE(text.empty());
      std::this_thread::yield();
    }
  });

  for (size_t i = 0; i < threads.size() - 1; ++i) threads[i].join();
  stop.store(true, std::memory_order_relaxed);
  threads.back().join();

  if (!kMetricsEnabled) GTEST_SKIP() << "metrics compiled out";
  // Quiescent totals are exact: relaxed increments never lose counts.
  const MetricsSnapshot s = table.metrics_snapshot();
  EXPECT_EQ(s.lookups, total_lookups.load());
  EXPECT_EQ(s.inserts, warm.size() + kWriters * kKeysPerWriter);
  EXPECT_EQ(s.occupancy_items, table.TotalItems());
}

TEST(MetricsStressTest, ShardedMcCuckooOneShardRecordsExactly) {
  constexpr size_t kReaders = 4;
  constexpr size_t kRounds = 4;

  ShardedMcCuckoo<Table> table{StressOptions(), 1};
  const auto warm = MakeUniqueKeys(2000, 1, 1);
  for (uint64_t k : warm) table.Insert(k, k);

  std::vector<std::thread> threads;
  threads.reserve(kReaders + 1);
  for (size_t r = 0; r < kReaders; ++r) {
    threads.emplace_back([&table, &warm] {
      for (size_t round = 0; round < kRounds; ++round) {
        for (uint64_t k : warm) ASSERT_TRUE(table.Contains(k));
      }
    });
  }
  threads.emplace_back([&table] {
    const auto keys = MakeUniqueKeys(2000, 1, 5);
    for (uint64_t k : keys) table.Insert(k, k);
  });
  for (auto& t : threads) t.join();

  if (!kMetricsEnabled) GTEST_SKIP() << "metrics compiled out";
  const MetricsSnapshot s = table.metrics_snapshot();
  EXPECT_EQ(s.lookups, kReaders * kRounds * warm.size());
  EXPECT_EQ(s.inserts, 2 * warm.size());
}

}  // namespace
}  // namespace mccuckoo
