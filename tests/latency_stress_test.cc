// TSan-gated concurrency stress for the latency recorder: many threads
// hammer one recorder directly while another snapshots it, then the same
// through a real table behind the concurrent front-end. Registered with
// the "tsan" ctest label so the sanitizer CI job picks it up; it is also
// a correctness test (deterministic total sample counts) under plain
// builds.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "src/core/config.h"
#include "src/core/mccuckoo_table.h"
#include "src/core/sharded_mccuckoo.h"
#include "src/obs/latency_recorder.h"
#include "src/obs/metrics.h"
#include "src/workload/keyset.h"

namespace mccuckoo {
namespace {

TEST(LatencyStressTest, ConcurrentRecordAndSnapshot) {
  if (!kMetricsEnabled) GTEST_SKIP() << "metrics compiled out";
  constexpr int kThreads = 4;
  constexpr uint64_t kOpsPerThread = 20'000;
  LatencyRecorder r(4);
  std::atomic<bool> stop{false};

  // One thread scrapes while the workers record — the scrape must be safe
  // (it reads relaxed atomics), and every intermediate snapshot must be
  // internally consistent (count == sum of buckets is checked by
  // HistogramSnapshot's invariant: PercentileUpperBound never walks past
  // the recorded total).
  std::thread scraper([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const HistogramSnapshot s = r.SnapshotOp(LatencyOp::kFind);
      // A torn snapshot (count bumped, bucket not yet) legitimately walks
      // into the top bucket's ~0 sentinel, so don't assert on the raw
      // value (and never on value+1 — that overflows at the sentinel);
      // the walk over one snapshot copy must stay monotone regardless.
      ASSERT_LE(s.PercentileUpperBound(0.5), s.PercentileUpperBound(1.0));
      MetricsSnapshot m;
      r.FoldInto(&m);
      ASSERT_GE(m.op_latency_ns[static_cast<size_t>(LatencyOp::kFind)].count,
                s.count);
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&r] {
      for (uint64_t i = 0; i < kOpsPerThread; ++i) {
        r.Finish(LatencyOp::kFind, r.MaybeStart(LatencyOp::kFind));
      }
    });
  }
  for (auto& w : workers) w.join();
  stop.store(true, std::memory_order_release);
  scraper.join();

  // The shared op counter makes the sampled total deterministic even
  // across threads: one sample per full period of the global stream.
  const uint64_t total_ops = kThreads * kOpsPerThread;
  EXPECT_EQ(r.ops_seen(LatencyOp::kFind), total_ops);
  EXPECT_EQ(r.SnapshotOp(LatencyOp::kFind).count,
            total_ops / r.sample_period());
}

TEST(LatencyStressTest, OptimisticReadersSampleWhileWriterUpdates) {
  if (!kMetricsEnabled) GTEST_SKIP() << "metrics compiled out";
  TableOptions o;
  o.num_hashes = 3;
  o.buckets_per_table = 5'000;
  o.latency_sample_period = 1;
  ShardedMcCuckoo<McCuckooTable<uint64_t, uint64_t>> table(
      o, 1, ReadMode::kOptimistic);

  const auto keys = MakeUniqueKeys(6'000, 7, 0);
  std::vector<uint64_t> values(keys.begin(), keys.end());
  table.InsertBatch(keys, values);

  // Updates to existing keys only: no growth, no rehash, no stash spills,
  // so no span records — reads and the final scrape race only with the
  // recorder's atomics, which is the contract under test.
  constexpr int kReaders = 3;
  constexpr uint64_t kReads = 30'000;
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&table, &keys, t] {
      uint64_t v = 0;
      for (uint64_t i = 0; i < kReads; ++i) {
        table.Find(keys[(i * (t + 1)) % keys.size()], &v);
      }
    });
  }
  std::thread writer([&table, &keys, &stop] {
    uint64_t round = 0;
    while (!stop.load(std::memory_order_acquire)) {
      for (size_t i = 0; i < 512; ++i) {
        table.InsertOrAssign(keys[i], round);
      }
      ++round;
    }
  });
  for (auto& r : readers) r.join();
  stop.store(true, std::memory_order_release);
  writer.join();

  const MetricsSnapshot s = table.metrics_snapshot();
  // Every read was sampled (period 1); the batch prefill sampled too.
  EXPECT_GE(s.op_latency_ns[static_cast<size_t>(LatencyOp::kFind)].count,
            static_cast<uint64_t>(kReaders) * kReads);
  EXPECT_GT(
      s.op_latency_ns[static_cast<size_t>(LatencyOp::kInsertBatch)].count, 0u);
  EXPECT_EQ(s.latency_sample_period, 1u);
}

}  // namespace
}  // namespace mccuckoo
