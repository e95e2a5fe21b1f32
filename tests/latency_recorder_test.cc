// Tests for the sampled op timer of TableMetrics (src/obs/metrics.h):
// deterministic counter-based sampling, period rounding, log2-quantile
// bounds, snapshot/merge plumbing, and the table-level wiring.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/core/blocked_mccuckoo_table.h"
#include "src/core/config.h"
#include "src/core/mccuckoo_table.h"
#include "src/core/sharded_mccuckoo.h"
#include "src/obs/metrics.h"
#include "src/workload/keyset.h"

namespace mccuckoo {
namespace {

/// `m`'s sampled-latency histogram for one op kind.
HistogramSnapshot SnapshotOp(const TableMetrics& m, LatencyOp op) {
  return m.Snapshot().op_latency_ns[static_cast<size_t>(op)];
}

TEST(LatencyRecorderTest, PeriodRoundsUpToPowerOfTwo) {
  TableMetrics r;
  if (!kMetricsEnabled) GTEST_SKIP() << "metrics compiled out";
  r.set_sample_period(3);
  EXPECT_EQ(r.sample_period(), 4u);
  r.set_sample_period(1);
  EXPECT_EQ(r.sample_period(), 1u);
  r.set_sample_period(32);
  EXPECT_EQ(r.sample_period(), 32u);
  r.set_sample_period(0);
  EXPECT_EQ(r.sample_period(), 0u);
}

TEST(LatencyRecorderTest, DisabledNeverSamples) {
  TableMetrics r;
  r.set_sample_period(0);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(r.MaybeStart(LatencyOp::kFind), 0u);
  }
  EXPECT_EQ(SnapshotOp(r, LatencyOp::kFind).count, 0u);
}

TEST(LatencyRecorderTest, SamplingIsDeterministic) {
  if (!kMetricsEnabled) GTEST_SKIP() << "metrics compiled out";
  // Operations 0, N, 2N, ... are the sampled ones, so M operations yield
  // exactly ceil(M / N) samples — no randomness involved.
  for (const uint32_t period : {1u, 4u, 8u, 32u}) {
    for (const uint64_t ops : {1u, 7u, 8u, 9u, 100u}) {
      TableMetrics r;
      r.set_sample_period(period);
      for (uint64_t i = 0; i < ops; ++i) {
        r.Finish(LatencyOp::kInsert, r.MaybeStart(LatencyOp::kInsert));
      }
      const uint64_t expected = (ops + period - 1) / period;
      EXPECT_EQ(SnapshotOp(r, LatencyOp::kInsert).count, expected)
          << "period=" << period << " ops=" << ops;
      EXPECT_EQ(r.ops_seen(LatencyOp::kInsert), ops);
    }
  }
}

TEST(LatencyRecorderTest, OpsAreIndependentStreams) {
  if (!kMetricsEnabled) GTEST_SKIP() << "metrics compiled out";
  TableMetrics r;
  r.set_sample_period(4);
  for (int i = 0; i < 8; ++i) {
    r.Finish(LatencyOp::kFind, r.MaybeStart(LatencyOp::kFind));
  }
  r.Finish(LatencyOp::kErase, r.MaybeStart(LatencyOp::kErase));
  EXPECT_EQ(SnapshotOp(r, LatencyOp::kFind).count, 2u);
  EXPECT_EQ(SnapshotOp(r, LatencyOp::kErase).count, 1u);
  EXPECT_EQ(SnapshotOp(r, LatencyOp::kInsert).count, 0u);
}

TEST(LatencyRecorderTest, QuantileUpperBoundIsTightLog2Bound) {
  if (!kMetricsEnabled) GTEST_SKIP() << "metrics compiled out";
  // The op timer's per-op histograms are Log2Histograms; the exported
  // quantile is the sample's bucket upper bound: >= the true value and
  // < 2x it for any value >= 1 below the last bucket (which absorbs
  // everything from 2^(kHistogramBuckets - 2) up).
  for (const uint64_t v :
       {1ull, 2ull, 3ull, 5ull, 100ull, 1000ull, 123456ull}) {
    Log2Histogram h;
    for (int i = 0; i < 100; ++i) h.Record(v);
    const HistogramSnapshot s = h.Snapshot();
    for (const double p : {0.50, 0.99, 0.999}) {
      const uint64_t bound = s.PercentileUpperBound(p);
      EXPECT_GE(bound, v) << "v=" << v << " p=" << p;
      EXPECT_LT(bound, 2 * v) << "v=" << v << " p=" << p;
    }
  }
  // Past the last bucket the bound stays conservative (never under-reports).
  Log2Histogram h;
  h.Record(1ull << 30);
  EXPECT_GE(h.Snapshot().PercentileUpperBound(0.5), 1ull << 30);
}

TEST(LatencyRecorderTest, QuantilesAreMonotoneAcrossMixedValues) {
  if (!kMetricsEnabled) GTEST_SKIP() << "metrics compiled out";
  Log2Histogram h;
  // 90 fast ops, 9 slow, 1 very slow: p50 must see the fast mode, p999
  // the slowest.
  for (int i = 0; i < 90; ++i) h.Record(100);
  for (int i = 0; i < 9; ++i) h.Record(10'000);
  h.Record(1'000'000);
  const HistogramSnapshot s = h.Snapshot();
  const uint64_t p50 = s.PercentileUpperBound(0.50);
  const uint64_t p99 = s.PercentileUpperBound(0.99);
  const uint64_t p999 = s.PercentileUpperBound(0.999);
  EXPECT_LE(p50, p99);
  EXPECT_LE(p99, p999);
  EXPECT_LT(p50, 200u);
  EXPECT_GE(p999, 1'000'000u);
}

TEST(LatencyRecorderTest, FoldIntoMergesHistogramsAndPeriod) {
  if (!kMetricsEnabled) GTEST_SKIP() << "metrics compiled out";
  TableMetrics r;
  r.set_sample_period(1);
  for (int i = 0; i < 5; ++i) {
    r.Finish(LatencyOp::kFind, r.MaybeStart(LatencyOp::kFind));
  }
  MetricsSnapshot s;
  s.latency_sample_period = 8;  // pre-existing shard value; max wins
  s += r.Snapshot();
  EXPECT_EQ(s.op_latency_ns[static_cast<size_t>(LatencyOp::kFind)].count, 5u);
  EXPECT_EQ(s.latency_sample_period, 8u);
  r.set_sample_period(64);
  s += r.Snapshot();
  EXPECT_EQ(s.latency_sample_period, 64u);
  EXPECT_EQ(s.op_latency_ns[static_cast<size_t>(LatencyOp::kFind)].count, 10u);
}

TEST(LatencyRecorderTest, MergeFromAccumulates) {
  if (!kMetricsEnabled) GTEST_SKIP() << "metrics compiled out";
  TableMetrics a, b;
  a.set_sample_period(1);
  b.set_sample_period(1);
  for (int i = 0; i < 3; ++i) {
    a.Finish(LatencyOp::kInsert, a.MaybeStart(LatencyOp::kInsert));
  }
  for (int i = 0; i < 4; ++i) {
    b.Finish(LatencyOp::kInsert, b.MaybeStart(LatencyOp::kInsert));
  }
  a.MergeFrom(b);
  EXPECT_EQ(SnapshotOp(a, LatencyOp::kInsert).count, 7u);
  EXPECT_EQ(a.ops_seen(LatencyOp::kInsert), 7u);
  a.Reset();
  EXPECT_EQ(SnapshotOp(a, LatencyOp::kInsert).count, 0u);
  EXPECT_EQ(a.ops_seen(LatencyOp::kInsert), 0u);
}

TEST(LatencyRecorderTest, ScopedSampleRecordsOnEveryExitPath) {
  if (!kMetricsEnabled) GTEST_SKIP() << "metrics compiled out";
  TableMetrics r;
  r.set_sample_period(1);
  for (int i = 0; i < 10; ++i) {
    ScopedLatencySample s(&r, LatencyOp::kErase);
    if (i % 2 == 0) continue;  // early exit still records
  }
  EXPECT_EQ(SnapshotOp(r, LatencyOp::kErase).count, 10u);
}

TEST(LatencyRecorderTest, TableWiringSamplesAtConfiguredPeriod) {
  if (!kMetricsEnabled) GTEST_SKIP() << "metrics compiled out";
  TableOptions o;
  o.num_hashes = 3;
  o.buckets_per_table = 1000;
  o.latency_sample_period = 4;
  McCuckooTable<uint64_t, uint64_t> t(o);
  const auto keys = MakeUniqueKeys(64, 7, 0);
  for (uint64_t k : keys) ASSERT_EQ(t.Insert(k, k), InsertResult::kInserted);
  uint64_t v = 0;
  for (uint64_t k : keys) ASSERT_TRUE(t.Find(k, &v));
  const MetricsSnapshot s = t.SnapshotMetrics();
  // 64 single-key ops at period 4 -> exactly 16 samples per op stream.
  EXPECT_EQ(s.op_latency_ns[static_cast<size_t>(LatencyOp::kInsert)].count,
            16u);
  EXPECT_EQ(s.op_latency_ns[static_cast<size_t>(LatencyOp::kFind)].count, 16u);
  EXPECT_EQ(s.latency_sample_period, 4u);
  t.ResetMetrics();
  EXPECT_EQ(t.SnapshotMetrics()
                .op_latency_ns[static_cast<size_t>(LatencyOp::kFind)]
                .count,
            0u);
}

template <typename Table>
void RehashCarriesSamplesAcrossRebuild(uint32_t slots_per_bucket) {
  if (!kMetricsEnabled) GTEST_SKIP() << "metrics compiled out";
  TableOptions o;
  o.num_hashes = 3;
  o.buckets_per_table = 500;
  o.slots_per_bucket = slots_per_bucket;
  o.latency_sample_period = 1;
  Table t(o);
  const auto keys = MakeUniqueKeys(100, 7, 0);
  for (uint64_t k : keys) ASSERT_EQ(t.Insert(k, k), InsertResult::kInserted);
  const uint64_t before =
      t.SnapshotMetrics()
          .op_latency_ns[static_cast<size_t>(LatencyOp::kInsert)]
          .count;
  ASSERT_TRUE(t.Rehash(o.buckets_per_table * 2, 99).ok());
  const uint64_t after =
      t.SnapshotMetrics()
          .op_latency_ns[static_cast<size_t>(LatencyOp::kInsert)]
          .count;
  EXPECT_GE(after, before);  // history survives the rebuild
}

TEST(LatencyRecorderTest, RehashCarriesSamplesAcrossRebuild) {
  RehashCarriesSamplesAcrossRebuild<McCuckooTable<uint64_t, uint64_t>>(1);
}

TEST(LatencyRecorderTest, RehashCarriesSamplesAcrossRebuildBlocked) {
  RehashCarriesSamplesAcrossRebuild<BlockedMcCuckooTable<uint64_t, uint64_t>>(
      3);
}

// An Insert whose growth rehash replaces the table's storage still records
// its own sample on exit: the metrics object must outlive the rebuild.
template <typename Table>
void SampledInsertThatGrowsTheTableRecordsItsSample(uint32_t slots_per_bucket) {
  if (!kMetricsEnabled) GTEST_SKIP() << "metrics compiled out";
  TableOptions o;
  o.buckets_per_table = 64;
  o.slots_per_bucket = slots_per_bucket;
  o.latency_sample_period = 1;
  o.growth_enabled = true;
  Table t(o);
  const auto keys = MakeUniqueKeys(2000, 8, 0);
  for (uint64_t k : keys) t.Insert(k, k);
  const MetricsSnapshot s = t.SnapshotMetrics();
  ASSERT_GT(s.growth_rehashes, 0u);
  // The rebuilds re-insert through InsertBatch, so every kInsert sample is
  // one of the calls above.
  EXPECT_EQ(s.op_latency_ns[static_cast<size_t>(LatencyOp::kInsert)].count,
            keys.size());
}

TEST(LatencyRecorderTest, SampledInsertThatGrowsTheTableRecordsItsSample) {
  SampledInsertThatGrowsTheTableRecordsItsSample<
      McCuckooTable<uint64_t, uint64_t>>(1);
}

TEST(LatencyRecorderTest,
     SampledInsertThatGrowsTheTableRecordsItsSampleBlocked) {
  SampledInsertThatGrowsTheTableRecordsItsSample<
      BlockedMcCuckooTable<uint64_t, uint64_t>>(3);
}

// Every InsertOrAssign records exactly one kInsert sample under both
// writers, the bare table's and the front-end's striped one: an update of a
// present key as much as a miss, and a miss takes no second sample from the
// insert it continues into.
template <typename Front, typename SnapshotFn>
void ExpectOneInsertSamplePerCall(Front& t, SnapshotFn snapshot) {
  const auto keys = MakeUniqueKeys(100, 9, 0);
  auto inserts = [&] {
    return snapshot()
        .op_latency_ns[static_cast<size_t>(LatencyOp::kInsert)]
        .count;
  };
  for (uint64_t k : keys) {
    ASSERT_EQ(t.InsertOrAssign(k, k), InsertResult::kInserted);
  }
  EXPECT_EQ(inserts(), keys.size());
  for (uint64_t k : keys) {
    ASSERT_EQ(t.InsertOrAssign(k, k + 1), InsertResult::kUpdated);
  }
  EXPECT_EQ(inserts(), 2 * keys.size());
}

template <typename Table>
void InsertOrAssignSamplesEveryCall(uint32_t slots_per_bucket) {
  if (!kMetricsEnabled) GTEST_SKIP() << "metrics compiled out";
  TableOptions o;
  o.buckets_per_table = 500;
  o.slots_per_bucket = slots_per_bucket;
  o.deletion_mode = DeletionMode::kResetCounters;
  o.latency_sample_period = 1;
  {
    SCOPED_TRACE("bare table");
    Table t(o);
    ExpectOneInsertSamplePerCall(t, [&] { return t.SnapshotMetrics(); });
  }
  {
    SCOPED_TRACE("sharded");
    ShardedMcCuckoo<Table> t(o, 1);
    ExpectOneInsertSamplePerCall(t, [&] { return t.metrics_snapshot(); });
  }
}

TEST(LatencyRecorderTest, InsertOrAssignSamplesEveryCall) {
  InsertOrAssignSamplesEveryCall<McCuckooTable<uint64_t, uint64_t>>(1);
}

TEST(LatencyRecorderTest, InsertOrAssignSamplesEveryCallBlocked) {
  InsertOrAssignSamplesEveryCall<BlockedMcCuckooTable<uint64_t, uint64_t>>(3);
}

}  // namespace
}  // namespace mccuckoo
