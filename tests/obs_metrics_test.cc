// Tests of the observability layer: histogram math, snapshot arithmetic,
// per-table recording, scalar-vs-batch metric equality, sharded
// aggregation, and the exporters.

#include "src/obs/metrics.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <numeric>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/blocked_mccuckoo_table.h"
#include "src/core/mccuckoo_table.h"
#include "src/core/sharded_mccuckoo.h"
#include "src/obs/export.h"
#include "src/workload/keyset.h"

namespace mccuckoo {
namespace {

using Table = McCuckooTable<uint64_t, uint64_t>;

TableOptions SmallOptions() {
  TableOptions o;
  o.num_hashes = 3;
  o.buckets_per_table = 1024;
  o.slots_per_bucket = 1;
  o.maxloop = 200;
  o.seed = 0xABCDEF;
  o.deletion_mode = DeletionMode::kResetCounters;
  return o;
}

uint64_t PartitionSum(const std::array<uint64_t, kMetricsPartitions>& a) {
  return std::accumulate(a.begin(), a.end(), uint64_t{0});
}

// --- Bucketing math -------------------------------------------------------

TEST(HistogramMathTest, BucketOf) {
  EXPECT_EQ(HistogramBucketOf(0), 0u);
  EXPECT_EQ(HistogramBucketOf(1), 1u);
  EXPECT_EQ(HistogramBucketOf(2), 2u);
  EXPECT_EQ(HistogramBucketOf(3), 2u);
  EXPECT_EQ(HistogramBucketOf(4), 3u);
  EXPECT_EQ(HistogramBucketOf(7), 3u);
  EXPECT_EQ(HistogramBucketOf(8), 4u);
  // Everything from 2^(kHistogramBuckets-2) up saturates the last bucket.
  EXPECT_EQ(HistogramBucketOf(uint64_t{1} << (kHistogramBuckets - 2)),
            kHistogramBuckets - 1);
  EXPECT_EQ(HistogramBucketOf(~uint64_t{0}), kHistogramBuckets - 1);
}

TEST(HistogramMathTest, BucketUpperBound) {
  EXPECT_EQ(HistogramBucketUpperBound(0), 0u);
  EXPECT_EQ(HistogramBucketUpperBound(1), 1u);
  EXPECT_EQ(HistogramBucketUpperBound(2), 3u);
  EXPECT_EQ(HistogramBucketUpperBound(3), 7u);
  EXPECT_EQ(HistogramBucketUpperBound(kHistogramBuckets - 1), ~uint64_t{0});
}

TEST(HistogramMathTest, EveryValueLandsWithinItsBucketBound) {
  for (uint64_t v : {0ull, 1ull, 2ull, 5ull, 100ull, 65535ull, 1ull << 40}) {
    const size_t b = HistogramBucketOf(v);
    EXPECT_LE(v, HistogramBucketUpperBound(b)) << v;
    if (b > 0) {
      EXPECT_GT(v, HistogramBucketUpperBound(b - 1)) << v;
    }
  }
}

// --- Snapshot arithmetic --------------------------------------------------

TEST(HistogramSnapshotTest, MeanAndPercentiles) {
  HistogramSnapshot h;
  EXPECT_EQ(h.Mean(), 0.0);
  EXPECT_EQ(h.PercentileUpperBound(0.99), 0u);
  // 10 zeros and 10 threes: p50 still in bucket 0, p99 in [2,3].
  h.bucket[HistogramBucketOf(0)] = 10;
  h.bucket[HistogramBucketOf(3)] = 10;
  h.count = 20;
  h.sum = 30;
  EXPECT_DOUBLE_EQ(h.Mean(), 1.5);
  EXPECT_EQ(h.PercentileUpperBound(0.50), 0u);
  EXPECT_EQ(h.PercentileUpperBound(0.99), 3u);
}

TEST(HistogramSnapshotTest, Merge) {
  HistogramSnapshot a, b;
  a.bucket[1] = 3;
  a.count = 3;
  a.sum = 3;
  b.bucket[2] = 2;
  b.count = 2;
  b.sum = 5;
  a += b;
  EXPECT_EQ(a.bucket[1], 3u);
  EXPECT_EQ(a.bucket[2], 2u);
  EXPECT_EQ(a.count, 5u);
  EXPECT_EQ(a.sum, 8u);
}

TEST(MetricsSnapshotTest, MergeAndEquality) {
  MetricsSnapshot a, b;
  a.inserts = 1;
  a.partition_hits[2] = 4;
  a.occupancy_items = 10;
  a.capacity_slots = 100;
  b.inserts = 2;
  b.partition_hits[2] = 6;
  b.occupancy_items = 30;
  b.capacity_slots = 100;
  MetricsSnapshot sum = a;
  sum += b;
  EXPECT_EQ(sum.inserts, 3u);
  EXPECT_EQ(sum.partition_hits[2], 10u);
  EXPECT_EQ(sum.occupancy_items, 40u);
  EXPECT_EQ(sum.capacity_slots, 200u);
  EXPECT_DOUBLE_EQ(sum.LoadFactor(), 0.2);
  EXPECT_EQ(a, a);
  EXPECT_NE(a, b);
  EXPECT_EQ(MetricsSnapshot{}, MetricsSnapshot{});
}

// --- Live primitives ------------------------------------------------------

TEST(Log2HistogramTest, RecordSnapshotReset) {
  Log2Histogram h;
  h.Record(0);
  h.Record(1);
  h.Record(6);
  HistogramSnapshot s = h.Snapshot();
  if (!kMetricsEnabled) GTEST_SKIP() << "metrics compiled out";
  EXPECT_EQ(s.count, 3u);
  EXPECT_EQ(s.sum, 7u);
  EXPECT_EQ(s.bucket[HistogramBucketOf(0)], 1u);
  EXPECT_EQ(s.bucket[HistogramBucketOf(1)], 1u);
  EXPECT_EQ(s.bucket[HistogramBucketOf(6)], 1u);

  Log2Histogram other;
  other.Record(6);
  h.MergeFrom(other);
  s = h.Snapshot();
  EXPECT_EQ(s.count, 4u);
  EXPECT_EQ(s.sum, 13u);

  h.Reset();
  EXPECT_EQ(h.Snapshot(), HistogramSnapshot{});
}

// Record(v, w) is w recordings of v: the sampled insert timer's weight.
TEST(Log2HistogramTest, WeightedRecordCountsAsItsWeight) {
  if (!kMetricsEnabled) GTEST_SKIP() << "metrics compiled out";
  Log2Histogram h;
  h.Record(6, 32);
  h.Record(100, 1);
  HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.bucket[HistogramBucketOf(6)], 32u);
  EXPECT_EQ(s.bucket[HistogramBucketOf(100)], 1u);
  EXPECT_EQ(s.count, 33u);
  EXPECT_EQ(s.sum, 6u * 32 + 100);

  Log2Histogram unweighted;
  for (int i = 0; i < 32; ++i) unweighted.Record(6);
  Log2Histogram weighted;
  weighted.Record(6, 32);
  EXPECT_EQ(weighted.Snapshot(), unweighted.Snapshot());

  h.MergeFrom(weighted);
  s = h.Snapshot();
  EXPECT_EQ(s.bucket[HistogramBucketOf(6)], 64u);
  EXPECT_EQ(s.count, 65u);
  EXPECT_EQ(s.sum, 6u * 64 + 100);
}

TEST(TableMetricsTest, DerivedCountsAndClamping) {
  if (!kMetricsEnabled) GTEST_SKIP() << "metrics compiled out";
  TableMetrics m;
  m.RecordInsert(0, 100);
  m.RecordInsert(5, 900);
  LookupTally tally;
  tally.RecordLookupOutcome(3, 3);  // 3 probes, hit in partition 3.
  tally.RecordPartitionProbes(1, 2);
  tally.RecordPartitionProbes(2, 0);   // Zero probes: not recorded.
  tally.RecordPartitionProbes(99, 1);  // Out of range: clamps to the last slot.
  tally.RecordStashProbe(true);
  tally.RecordStashProbe(false);
  tally.FlushTo(m);
  m.RecordErase();

  const MetricsSnapshot s = m.Snapshot();
  EXPECT_EQ(s.inserts, 2u);  // Derived from kick_chain_len.count.
  EXPECT_EQ(s.lookups, 1u);  // Derived from lookup_probes.count.
  EXPECT_EQ(s.erases, 1u);
  EXPECT_EQ(s.kick_chain_len.sum, 5u);
  EXPECT_EQ(s.insert_ns.sum, 1000u);
  EXPECT_EQ(s.partition_probes[1], 2u);
  EXPECT_EQ(s.partition_probes[2], 0u);
  EXPECT_EQ(s.partition_probes[kMetricsPartitions - 1], 1u);
  EXPECT_EQ(s.partition_hits[3], 1u);
  EXPECT_EQ(s.stash_hits, 1u);
  EXPECT_EQ(s.stash_misses, 1u);

  TableMetrics other;
  other.RecordInsert(1, 50);
  m.MergeFrom(other);
  EXPECT_EQ(m.Snapshot().inserts, 3u);

  m.Reset();
  EXPECT_EQ(m.Snapshot(), MetricsSnapshot{});
}

// --- Table recording ------------------------------------------------------

TEST(TableRecordingTest, LookupInsertEraseCounts) {
  if (!kMetricsEnabled) GTEST_SKIP() << "metrics compiled out";
  TableOptions o = SmallOptions();
  o.latency_sample_period = 1;  // the insert timer times every insert
  Table t(o);
  const auto keys = MakeUniqueKeys(500, 1, 0);
  const auto missing = MakeUniqueKeys(200, 1, 7);
  for (uint64_t k : keys) ASSERT_EQ(t.Insert(k, k + 1), InsertResult::kInserted);
  size_t hits = 0;
  for (uint64_t k : keys) hits += t.Contains(k) ? 1 : 0;
  for (uint64_t k : missing) hits += t.Contains(k) ? 1 : 0;
  ASSERT_EQ(hits, keys.size());
  for (size_t i = 0; i < 100; ++i) ASSERT_TRUE(t.Erase(keys[i]));

  const MetricsSnapshot s = t.SnapshotMetrics();
  EXPECT_EQ(s.inserts, keys.size());
  EXPECT_EQ(s.lookups, keys.size() + missing.size());
  EXPECT_EQ(s.erases, 100u);
  // Gauges reflect the live table.
  EXPECT_EQ(s.occupancy_items, t.TotalItems());
  EXPECT_EQ(s.capacity_slots, t.capacity());
  EXPECT_DOUBLE_EQ(s.LoadFactor(), t.TotalItems() / double(t.capacity()));
  // Every hit resolved in some counter-value partition (values 1..d for the
  // multi-copy table), and partition probes never exceed total probes.
  EXPECT_EQ(PartitionSum(s.partition_hits), keys.size());
  EXPECT_EQ(s.partition_hits[0], 0u);
  EXPECT_LE(PartitionSum(s.partition_probes), s.lookup_probes.sum);
  EXPECT_GT(s.lookup_probes.sum, 0u);
  // insert_ns saw one recording per insert.
  EXPECT_EQ(s.insert_ns.count, keys.size());

  t.ResetMetrics();
  MetricsSnapshot zeroed = t.SnapshotMetrics();
  EXPECT_EQ(zeroed.lookups, 0u);
  EXPECT_EQ(zeroed.inserts, 0u);
  // Gauges are still live after a reset.
  EXPECT_EQ(zeroed.occupancy_items, t.TotalItems());
}

// At period N the insert timer reads the clock only for inserts whose
// operation drew a latency sample, and records each with weight N.
TEST(TableRecordingTest, InsertTimerSamplesAtThePeriodWithItsWeight) {
  if (!kMetricsEnabled) GTEST_SKIP() << "metrics compiled out";
  TableOptions o = SmallOptions();
  o.latency_sample_period = 32;
  Table t(o);
  const auto keys = MakeUniqueKeys(500, 1, 0);
  for (uint64_t k : keys) ASSERT_EQ(t.Insert(k, k), InsertResult::kInserted);
  const MetricsSnapshot s = t.SnapshotMetrics();
  const uint64_t sampled =
      s.op_latency_ns[static_cast<size_t>(LatencyOp::kInsert)].count;
  EXPECT_EQ(sampled, (keys.size() + 31) / 32);  // inserts 0, 32, 64, ...
  EXPECT_EQ(s.inserts, keys.size());  // chain lengths still count them all
  // Only the sampled placements were timed: 32 observations each.
  EXPECT_EQ(s.insert_ns.count, 32 * sampled);
  EXPECT_GT(s.insert_ns.sum, 0u);
  EXPECT_EQ(s.insert_ns.sum % 32, 0u);

  // An update is no placement: sampled or not, it records nothing.
  t.ResetMetrics();
  for (size_t i = 0; i < 64; ++i) {
    ASSERT_EQ(t.InsertOrAssign(keys[i], 0), InsertResult::kUpdated);
  }
  EXPECT_EQ(t.SnapshotMetrics().insert_ns.count, 0u);

  // A batch times every 32nd key, each standing for the keys up to the
  // next timed one: the weights sum to the batch size exactly.
  Table batched(o);
  batched.InsertBatch(keys, keys);
  const MetricsSnapshot b = batched.SnapshotMetrics();
  EXPECT_EQ(b.inserts, keys.size());
  EXPECT_EQ(b.insert_ns.count, keys.size());
}

TEST(TableRecordingTest, InsertTimerIsOffAtPeriodZero) {
  if (!kMetricsEnabled) GTEST_SKIP() << "metrics compiled out";
  TableOptions o = SmallOptions();
  o.latency_sample_period = 0;
  Table t(o);
  const auto keys = MakeUniqueKeys(300, 1, 0);
  for (uint64_t k : keys) ASSERT_EQ(t.Insert(k, k), InsertResult::kInserted);
  Table batched(o);
  batched.InsertBatch(keys, keys);
  for (const Table* table : {&t, &batched}) {
    const MetricsSnapshot s = table->SnapshotMetrics();
    EXPECT_EQ(s.inserts, keys.size());
    EXPECT_EQ(s.insert_ns, HistogramSnapshot{});
  }
}

TEST(TableRecordingTest, FindNoStatsRecordsMetricsButNotStats) {
  if (!kMetricsEnabled) GTEST_SKIP() << "metrics compiled out";
  Table t(SmallOptions());
  const auto keys = MakeUniqueKeys(300, 1, 3);
  for (uint64_t k : keys) t.Insert(k, k);
  t.ResetMetrics();
  t.ResetStats();
  for (uint64_t k : keys) ASSERT_TRUE(t.FindNoStats(k, nullptr));
  EXPECT_EQ(t.SnapshotMetrics().lookups, keys.size());
  EXPECT_EQ(t.stats(), AccessStats{});  // Mutation-free path: no accounting.
}

// FindNoStats records the same lookup cells as Find (outcome grid,
// partition probes, stash probes) but draws no latency sample and charges
// no AccessStats.
TEST(TableRecordingTest, FindNoStatsRecordsLookupCellsButNoSample) {
  if (!kMetricsEnabled) GTEST_SKIP() << "metrics compiled out";
  TableOptions o = SmallOptions();
  o.latency_sample_period = 1;
  o.maxloop = 8;  // spill to the stash early, so lookups probe it
  Table t(o);
  const auto keys = MakeUniqueKeys(2900, 1, 4);
  const auto missing = MakeUniqueKeys(1000, 1, 11);
  for (uint64_t k : keys) t.Insert(k, k);
  ASSERT_GT(t.stash_size(), 0u);
  std::vector<uint64_t> probe = keys;
  probe.insert(probe.end(), missing.begin(), missing.end());
  const size_t find = static_cast<size_t>(LatencyOp::kFind);

  t.ResetMetrics();
  t.ResetStats();
  size_t hits = 0;
  for (uint64_t k : probe) hits += t.FindNoStats(k, nullptr) ? 1 : 0;
  ASSERT_EQ(hits, keys.size());
  const MetricsSnapshot nostats = t.SnapshotMetrics();
  EXPECT_EQ(t.stats(), AccessStats{});
  EXPECT_EQ(nostats.op_latency_ns[find].count, 0u);
  EXPECT_EQ(nostats.lookups, probe.size());
  EXPECT_GT(nostats.stash_hits, 0u);
  EXPECT_GT(nostats.stash_misses, 0u);

  t.ResetMetrics();
  hits = 0;
  for (uint64_t k : probe) hits += t.Find(k, nullptr) ? 1 : 0;
  ASSERT_EQ(hits, keys.size());
  const MetricsSnapshot charged = t.SnapshotMetrics();
  EXPECT_EQ(charged.op_latency_ns[find].count, probe.size());
  EXPECT_EQ(charged.lookups, nostats.lookups);
  EXPECT_EQ(charged.lookup_probes, nostats.lookup_probes);
  EXPECT_EQ(charged.partition_probes, nostats.partition_probes);
  EXPECT_EQ(charged.partition_hits, nostats.partition_hits);
  EXPECT_EQ(charged.stash_hits, nostats.stash_hits);
  EXPECT_EQ(charged.stash_misses, nostats.stash_misses);
}

TEST(TableRecordingTest, ScalarAndBatchLookupsRecordIdentically) {
  if (!kMetricsEnabled) GTEST_SKIP() << "metrics compiled out";
  Table scalar(SmallOptions());
  Table batched(SmallOptions());
  const auto keys = MakeUniqueKeys(1500, 1, 0);
  const auto missing = MakeUniqueKeys(500, 1, 9);
  std::vector<uint64_t> probe = keys;
  probe.insert(probe.end(), missing.begin(), missing.end());
  for (uint64_t k : keys) {
    ASSERT_EQ(scalar.Insert(k, k), batched.Insert(k, k));
  }
  scalar.ResetMetrics();
  batched.ResetMetrics();

  size_t scalar_hits = 0;
  uint64_t v = 0;
  for (uint64_t k : probe) scalar_hits += scalar.Find(k, &v) ? 1 : 0;
  std::vector<uint64_t> out(probe.size());
  std::vector<uint8_t> found(probe.size());
  const size_t batch_hits = batched.FindBatch(
      probe, out.data(), reinterpret_cast<bool*>(found.data()));
  ASSERT_EQ(scalar_hits, batch_hits);

  // The batch path is the scalar algorithm with prefetching: identical
  // lookup metrics, probe partitions, and stash outcomes.
  const MetricsSnapshot a = scalar.SnapshotMetrics();
  const MetricsSnapshot b = batched.SnapshotMetrics();
  EXPECT_EQ(a.lookups, b.lookups);
  EXPECT_EQ(a.lookup_probes, b.lookup_probes);
  EXPECT_EQ(a.partition_probes, b.partition_probes);
  EXPECT_EQ(a.partition_hits, b.partition_hits);
  EXPECT_EQ(a.stash_hits, b.stash_hits);
  EXPECT_EQ(a.stash_misses, b.stash_misses);
}

TEST(TableRecordingTest, BlockedTableRecordsLookups) {
  if (!kMetricsEnabled) GTEST_SKIP() << "metrics compiled out";
  TableOptions o = SmallOptions();
  o.buckets_per_table = 512;
  o.slots_per_bucket = 3;
  BlockedMcCuckooTable<uint64_t, uint64_t> t(o);
  const auto keys = MakeUniqueKeys(400, 1, 1);
  for (uint64_t k : keys) ASSERT_EQ(t.Insert(k, k), InsertResult::kInserted);
  for (uint64_t k : keys) ASSERT_TRUE(t.Contains(k));
  const MetricsSnapshot s = t.SnapshotMetrics();
  EXPECT_EQ(s.inserts, keys.size());
  EXPECT_EQ(s.lookups, keys.size());
  EXPECT_EQ(PartitionSum(s.partition_hits), keys.size());
  EXPECT_EQ(s.occupancy_items, t.TotalItems());
  EXPECT_EQ(s.capacity_slots, t.capacity());
}

// --- Aggregation across front-ends ----------------------------------------

TEST(AggregationTest, ShardedMergeEqualsSumOfShards) {
  if (!kMetricsEnabled) GTEST_SKIP() << "metrics compiled out";
  TableOptions o = SmallOptions();
  ShardedMcCuckoo<Table> sharded(o, 4);
  const auto keys = MakeUniqueKeys(2000, 1, 0);
  std::vector<uint64_t> values(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) values[i] = keys[i] + 1;
  sharded.InsertBatch(keys, values);
  std::vector<uint64_t> out(keys.size());
  std::vector<uint8_t> found(keys.size());
  ASSERT_EQ(sharded.FindBatch(keys, out.data(),
                              reinterpret_cast<bool*>(found.data())),
            keys.size());
  for (uint64_t k : keys) ASSERT_TRUE(sharded.Contains(k));
  sharded.Erase(keys[0]);

  MetricsSnapshot manual;
  for (size_t s = 0; s < sharded.num_shards(); ++s) {
    manual += sharded.shard_metrics_snapshot(s);
  }
  const MetricsSnapshot merged = sharded.metrics_snapshot();
  EXPECT_EQ(merged, manual);
  EXPECT_EQ(merged.inserts, keys.size());
  EXPECT_EQ(merged.lookups, 2 * keys.size());
  EXPECT_EQ(merged.erases, 1u);
  EXPECT_EQ(merged.occupancy_items, sharded.TotalItems());
  EXPECT_EQ(merged.capacity_slots, sharded.capacity());
  // Every shard saw some traffic (2000 keys over 4 shards).
  for (size_t s = 0; s < sharded.num_shards(); ++s) {
    EXPECT_GT(sharded.shard_metrics_snapshot(s).inserts, 0u) << s;
  }
}

TEST(AggregationTest, ConcurrentWrapperExposesSnapshot) {
  if (!kMetricsEnabled) GTEST_SKIP() << "metrics compiled out";
  ShardedMcCuckoo<Table> t{SmallOptions(), 1};
  const auto keys = MakeUniqueKeys(100, 1, 0);
  for (uint64_t k : keys) t.Insert(k, k);
  for (uint64_t k : keys) ASSERT_TRUE(t.Contains(k));
  const MetricsSnapshot s = t.metrics_snapshot();
  EXPECT_EQ(s.inserts, keys.size());
  EXPECT_EQ(s.lookups, keys.size());
}

// --- Exporters ------------------------------------------------------------

MetricsSnapshot SyntheticSnapshot() {
  MetricsSnapshot m;
  m.inserts = 3;
  m.lookups = 5;
  m.erases = 1;
  m.kick_chain_len.bucket[0] = 2;
  m.kick_chain_len.bucket[2] = 1;
  m.kick_chain_len.count = 3;
  m.kick_chain_len.sum = 2;
  m.lookup_probes.bucket[1] = 5;
  m.lookup_probes.count = 5;
  m.lookup_probes.sum = 5;
  m.partition_probes[3] = 4;
  m.partition_hits[3] = 2;
  m.stash_hits = 1;
  m.stash_misses = 2;
  m.occupancy_items = 30;
  m.capacity_slots = 120;
  return m;
}

/// Braces and brackets balance (cheap well-formedness check).
void ExpectBalancedJson(const std::string& json) {
  int braces = 0, brackets = 0;
  for (char c : json) {
    braces += c == '{' ? 1 : c == '}' ? -1 : 0;
    brackets += c == '[' ? 1 : c == ']' ? -1 : 0;
    ASSERT_GE(braces, 0);
    ASSERT_GE(brackets, 0);
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
}

TEST(ExportTest, PrometheusTextFormat) {
  const AccessStats stats{7, 6, 5, 4, 3, 2};
  const std::string text =
      ExportPrometheus(SyntheticSnapshot(), stats, {{"scheme", "McCuckoo"}});
  EXPECT_NE(text.find("# TYPE mccuckoo_inserts_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("mccuckoo_inserts_total{scheme=\"McCuckoo\"} 3"),
            std::string::npos);
  // Cumulative histogram buckets: le="0" holds 2, le="1" still 2 (bucket 1
  // empty), le="3" reaches 3, and +Inf equals the count.
  EXPECT_NE(text.find(
                "mccuckoo_kick_chain_length_bucket{scheme=\"McCuckoo\",le=\"0\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find(
                "mccuckoo_kick_chain_length_bucket{scheme=\"McCuckoo\",le=\"3\"} 3"),
            std::string::npos);
  EXPECT_NE(
      text.find(
          "mccuckoo_kick_chain_length_bucket{scheme=\"McCuckoo\",le=\"+Inf\"} 3"),
      std::string::npos);
  EXPECT_NE(text.find("mccuckoo_kick_chain_length_count{scheme=\"McCuckoo\"} 3"),
            std::string::npos);
  EXPECT_NE(
      text.find(
          "mccuckoo_partition_probes_total{scheme=\"McCuckoo\",partition=\"3\"} 4"),
      std::string::npos);
  EXPECT_NE(text.find("mccuckoo_load_factor{scheme=\"McCuckoo\"} 0.25"),
            std::string::npos);
  EXPECT_NE(text.find("mccuckoo_offchip_reads_total{scheme=\"McCuckoo\"} 7"),
            std::string::npos);
  EXPECT_NE(text.find("# AccessStats " + stats.ToString()), std::string::npos);
}

TEST(ExportTest, PrometheusLabelEscaping) {
  EXPECT_EQ(PrometheusLabels({}), "");
  EXPECT_EQ(PrometheusLabels({{"a", "plain"}, {"b", "x\"y\\z\n"}}),
            "{a=\"plain\",b=\"x\\\"y\\\\z\\n\"}");
}

TEST(ExportTest, JsonSnapshot) {
  const std::string json = ExportJson(SyntheticSnapshot(), {7, 6, 5, 4, 3, 2});
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json[json.size() - 2], '}');
  EXPECT_NE(json.find("\"inserts\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"kick_chain_length\": {\"count\": 3, \"sum\": 2"),
            std::string::npos);
  EXPECT_NE(json.find("\"partition_probes\": {\"0\": 0, \"1\": 0, \"2\": 0, "
                      "\"3\": 4, \"4\": 0}"),
            std::string::npos);
  EXPECT_NE(json.find("\"load_factor\": 0.25"), std::string::npos);
  EXPECT_NE(json.find("\"access_stats\": {"), std::string::npos);
  EXPECT_NE(json.find("\"offchip_reads\": 7"), std::string::npos);
  ExpectBalancedJson(json);
}

TEST(ExportTest, FlatEntries) {
  const auto flat = MetricsFlatEntries(SyntheticSnapshot(), "obs_on.McCuckoo.");
  EXPECT_EQ(flat.at("obs_on.McCuckoo.inserts"), 3.0);
  EXPECT_EQ(flat.at("obs_on.McCuckoo.lookups"), 5.0);
  EXPECT_NEAR(flat.at("obs_on.McCuckoo.kick_chain_length.mean"), 2.0 / 3,
              1e-12);
  EXPECT_EQ(flat.at("obs_on.McCuckoo.lookup_probes.p50"), 1.0);
  EXPECT_EQ(flat.at("obs_on.McCuckoo.lookup_probes.p99"), 1.0);
  EXPECT_EQ(flat.at("obs_on.McCuckoo.stash_hits"), 1.0);
  EXPECT_EQ(flat.at("obs_on.McCuckoo.load_factor"), 0.25);
}

// Every family of both planes, every field non-zero (two policies and three
// ops recorded): each metric renders under one name, once per format.
TEST(ExportTest, EveryMetricOncePerFormat) {
  const auto one_sample = [](HistogramSnapshot& h, uint64_t v) {
    h.bucket[HistogramBucketOf(v)] = 1;
    h.count = 1;
    h.sum = v;
  };
  MetricsSnapshot m;
  m.inserts = 1;
  m.lookups = 2;
  m.erases = 3;
  one_sample(m.kick_chain_len, 4);
  one_sample(m.policy_chain_len[0], 5);  // random_walk
  one_sample(m.policy_chain_len[2], 6);  // bfs
  one_sample(m.insert_ns, 7);
  one_sample(m.lookup_probes, 2);
  m.bfs_nodes_expanded = 8;
  for (size_t v = 0; v < kMetricsPartitions; ++v) {
    m.partition_probes[v] = 10 + v;
    m.partition_hits[v] = 20 + v;
  }
  m.stash_hits = 9;
  m.stash_misses = 10;
  m.optimistic_retries = 11;
  m.optimistic_fallbacks = 12;
  m.writer_lock_acquisitions = 13;
  m.writer_lock_contended = 14;
  m.writer_chain_handoffs = 15;
  one_sample(m.writer_lock_wait_ns, 16);
  m.growth_rehashes = 17;
  m.growth_reseeds = 18;
  m.growth_failures = 19;
  m.growth_suppressed = 1;
  one_sample(m.rehash_ns, 20);
  for (size_t op = 0; op < 3; ++op) one_sample(m.op_latency_ns[op], 100 + op);
  m.latency_sample_period = 32;
  for (size_t k = 0; k < kSpanKinds; ++k) m.span_counts[k] = 30 + k;
  m.occupancy_items = 40;
  m.capacity_slots = 80;
  const AccessStats stats{1, 2, 3, 4, 5, 6};

  ServerMetricsSnapshot s;
  for (size_t op = 0; op < kServerOps; ++op) s.requests[op] = 1 + op;
  s.connections_accepted = 7;
  s.connections_closed = 8;
  s.protocol_errors = 9;
  s.http_requests = 10;
  s.bytes_read = 11;
  s.bytes_written = 12;
  s.get_hits = 13;
  s.get_misses = 14;
  s.mget_keys = 15;
  s.batched_lookups = 16;
  s.expired_lazy = 17;
  s.expired_swept = 18;
  s.sweep_runs = 19;
  s.evictions_capacity = 20;
  s.evictions_pressure = 21;
  s.evictions_spared = 26;
  s.hash_collisions = 22;
  s.items = 23;
  s.bytes = 24;
  s.open_connections = 25;

  const std::vector<std::string> table_scalars = {
      "inserts", "lookups", "erases", "bfs_nodes_expanded", "stash_hits",
      "stash_misses", "optimistic_retries", "optimistic_fallbacks",
      "writer_lock_acquisitions", "writer_lock_contended",
      "writer_chain_handoffs", "growth_rehashes", "growth_reseeds",
      "growth_failures", "growth_suppressed", "latency_sample_period",
      "occupancy_items", "capacity_slots", "load_factor"};
  const std::vector<std::string> table_histograms = {
      "kick_chain_length", "insert_latency_ns", "lookup_probes",
      "writer_lock_wait_ns", "rehash_duration_ns"};
  const std::map<std::string, std::vector<std::string>> table_labelled = {
      {"policy_chain_length", {"random_walk", "bfs"}},
      {"op_latency_ns", {"insert", "find", "erase"}},
      {"partition_probes", {"0", "1", "2", "3", "4"}},
      {"partition_hits", {"0", "1", "2", "3", "4"}},
      {"spans", {"growth", "rehash", "reseed", "bfs_dead_end", "stash_spill"}}};
  const std::vector<std::string> access_names = {
      "offchip_reads", "offchip_writes", "onchip_reads",
      "onchip_writes", "kickouts",       "stash_probes"};
  const std::vector<std::string> server_names = {
      "requests", "connections_accepted", "connections_closed",
      "protocol_errors", "http_requests", "bytes_read", "bytes_written",
      "get_hits", "get_misses", "mget_keys", "batched_lookups",
      "expired_lazy", "expired_swept", "sweep_runs", "evictions_capacity",
      "evictions_pressure", "evictions_spared", "hash_collisions", "items",
      "bytes", "open_connections", "hit_ratio"};
  std::vector<std::string> table_names = table_scalars;
  table_names.insert(table_names.end(), table_histograms.begin(),
                     table_histograms.end());
  for (const auto& [name, labels] : table_labelled) table_names.push_back(name);
  ASSERT_EQ(table_names.size(), 29u);

  // Prometheus: one HELP and one TYPE line per family, and every sample
  // sits in the run of its own family (members contiguous).
  const std::string prom =
      ExportPrometheus(m, stats) + ExportServerPrometheus(s);
  std::map<std::string, int> help, type;
  std::string family;
  std::istringstream lines(prom);
  for (std::string line; std::getline(lines, line);) {
    std::istringstream words(line);
    std::string w0, w1, w2;
    words >> w0 >> w1 >> w2;
    if (w0 == "#" && w1 == "HELP") ++help[w2];
    if (w0 == "#" && w1 == "TYPE") ++type[family = w2];
    if (w0 == "#") continue;
    const std::string sample = w0.substr(0, w0.find('{'));
    EXPECT_TRUE(sample == family || sample == family + "_bucket" ||
                sample == family + "_sum" || sample == family + "_count")
        << line << " after TYPE " << family;
  }
  EXPECT_EQ(help.size(), type.size());
  for (const auto& [name, n] : type) {
    EXPECT_EQ(n, 1) << "TYPE " << name;
    EXPECT_EQ(help[name], 1) << "HELP " << name;
  }
  const auto expect_family = [&](const std::string& prefix,
                                 const std::string& name) {
    EXPECT_EQ(type.count(prefix + name) + type.count(prefix + name + "_total"),
              1u)
        << name;
  };
  for (const std::string& name : table_names) expect_family("mccuckoo_", name);
  for (const std::string& name : access_names) expect_family("mccuckoo_", name);
  for (const std::string& name : server_names) {
    expect_family("mccuckoo_server_", name);
  }
  EXPECT_EQ(type.size(),
            table_names.size() + access_names.size() + server_names.size());

  // JSON: balanced, and each name keys exactly one member.
  const auto expect_once = [](const std::string& json,
                              const std::vector<std::string>& names) {
    ExpectBalancedJson(json);
    for (const std::string& name : names) {
      const std::string key = "\"" + name + "\":";
      const size_t first = json.find(key);
      EXPECT_NE(first, std::string::npos) << name;
      EXPECT_EQ(json.find(key, first + 1), std::string::npos) << name;
    }
  };
  std::vector<std::string> json_names = table_names;
  json_names.insert(json_names.end(), access_names.begin(), access_names.end());
  json_names.push_back("op_latency_quantiles");
  json_names.push_back("access_stats");
  expect_once(ExportJson(m, stats), json_names);
  expect_once(ExportServerJson(s), server_names);

  // Flat: exactly the documented rows.
  std::set<std::string> want;
  const auto add_histogram = [&](const std::string& base) {
    for (const char* stat : {"count", "mean", "p50", "p99", "p999"}) {
      want.insert("t." + base + "." + stat);
    }
  };
  for (const std::string& name : table_scalars) want.insert("t." + name);
  for (const std::string& name : table_histograms) add_histogram(name);
  for (const auto& [name, labels] : table_labelled) {
    for (const std::string& label : labels) {
      if (name == "policy_chain_length" || name == "op_latency_ns") {
        add_histogram(name + "." + label);
      } else {
        want.insert("t." + name + "." + label);
      }
    }
  }
  std::set<std::string> got;
  for (const auto& [key, value] : MetricsFlatEntries(m, "t.")) got.insert(key);
  EXPECT_EQ(got, want);
  EXPECT_EQ(want.size(), 84u);
}

}  // namespace
}  // namespace mccuckoo
