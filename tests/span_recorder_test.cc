// Tests for the span ring buffer (src/obs/span_recorder.h) and the
// chrome://tracing exporter over its events.

#include "src/obs/span_recorder.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "src/baseline/cuckoo_table.h"
#include "src/core/blocked_mccuckoo_table.h"
#include "src/core/config.h"
#include "src/core/mccuckoo_table.h"
#include "src/obs/export.h"
#include "src/obs/metrics.h"
#include "src/workload/keyset.h"

namespace mccuckoo {
namespace {

TEST(SpanRecorderTest, RecordsClosedAndInstantSpans) {
  if (!kMetricsEnabled) GTEST_SKIP() << "metrics compiled out";
  SpanRecorder r;
  r.Record(SpanKind::kRehash, 100, 350, 42);
  r.RecordInstant(SpanKind::kStashSpill, 7);
  const std::vector<Span> events = r.Events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, SpanKind::kRehash);
  EXPECT_EQ(events[0].start_ns, 100u);
  EXPECT_EQ(events[0].dur_ns, 250u);
  EXPECT_EQ(events[0].detail, 42u);
  EXPECT_EQ(events[1].kind, SpanKind::kStashSpill);
  EXPECT_EQ(events[1].dur_ns, 0u);
  EXPECT_GT(events[1].start_ns, 0u);
  EXPECT_LT(events[0].seq, events[1].seq);
}

TEST(SpanRecorderTest, BackwardsClockClampsToZeroDuration) {
  if (!kMetricsEnabled) GTEST_SKIP() << "metrics compiled out";
  SpanRecorder r;
  r.Record(SpanKind::kGrowth, 500, 400);
  ASSERT_EQ(r.Events().size(), 1u);
  EXPECT_EQ(r.Events()[0].dur_ns, 0u);
}

TEST(SpanRecorderTest, RingWrapKeepsNewestAndTotals) {
  if (!kMetricsEnabled) GTEST_SKIP() << "metrics compiled out";
  SpanRecorder r(4);
  for (uint64_t i = 0; i < 10; ++i) {
    r.Record(i % 2 == 0 ? SpanKind::kGrowth : SpanKind::kRehash, i, i + 1, i);
  }
  const std::vector<Span> events = r.Events();
  ASSERT_EQ(events.size(), 4u);  // only the ring capacity is retained
  // Oldest first, and exactly the newest four (seqs 6..9).
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, 6 + i);
  }
  // Per-kind totals survive the wrap.
  EXPECT_EQ(r.total_events(), 10u);
  EXPECT_EQ(r.total(SpanKind::kGrowth), 5u);
  EXPECT_EQ(r.total(SpanKind::kRehash), 5u);
  EXPECT_EQ(r.total(SpanKind::kBfsDeadEnd), 0u);
  r.Clear();
  EXPECT_EQ(r.Events().size(), 0u);
  EXPECT_EQ(r.total_events(), 0u);
}

TEST(SpanRecorderTest, ChromeTraceExportIsWellFormed) {
  if (!kMetricsEnabled) GTEST_SKIP() << "metrics compiled out";
  SpanRecorder r;
  r.Record(SpanKind::kGrowth, 1000, 9000, 2048);
  r.Record(SpanKind::kRehash, 1500, 8000, 512);
  r.RecordInstant(SpanKind::kBfsDeadEnd, 64);
  const std::string json = ExportChromeTrace(r.Events(), "test_process");
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\""), std::string::npos);
  EXPECT_NE(json.find("test_process"), std::string::npos);
  for (size_t k = 0; k < kSpanKinds; ++k) {
    if (r.Totals()[k] > 0) {
      EXPECT_NE(json.find(kSpanKindNames[k]), std::string::npos)
          << kSpanKindNames[k];
    }
  }
  // Structurally balanced — catches a missing comma/bracket regression
  // without pulling in a JSON parser.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

TEST(SpanRecorderTest, EmptyTraceExportIsStillValid) {
  const std::string json = ExportChromeTrace({}, "empty");
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

template <typename Table>
void TableRecordsRehashSpan(uint32_t slots_per_bucket) {
  if (!kMetricsEnabled) GTEST_SKIP() << "metrics compiled out";
  TableOptions o;
  o.num_hashes = 3;
  o.buckets_per_table = 500;
  o.slots_per_bucket = slots_per_bucket;
  Table t(o);
  const auto keys = MakeUniqueKeys(200, 7, 0);
  for (uint64_t k : keys) t.Insert(k, k);
  ASSERT_TRUE(t.Rehash(o.buckets_per_table * 2, 99).ok());
  EXPECT_EQ(t.spans().total(SpanKind::kRehash), 1u);
  const std::vector<Span> events = t.spans().Events();
  const auto it =
      std::find_if(events.begin(), events.end(), [](const Span& s) {
        return s.kind == SpanKind::kRehash;
      });
  ASSERT_NE(it, events.end());
  EXPECT_EQ(it->detail, keys.size());  // detail = items moved
  EXPECT_GT(it->dur_ns, 0u);
  // The span count also lands in the mergeable snapshot.
  const MetricsSnapshot s = t.SnapshotMetrics();
  EXPECT_EQ(s.span_counts[static_cast<size_t>(SpanKind::kRehash)], 1u);
  t.ResetMetrics();
  EXPECT_EQ(t.spans().total_events(), 0u);
}

TEST(SpanRecorderTest, TableRecordsRehashSpan) {
  TableRecordsRehashSpan<McCuckooTable<uint64_t, uint64_t>>(1);
}

TEST(SpanRecorderTest, TableRecordsRehashSpanBlocked) {
  TableRecordsRehashSpan<BlockedMcCuckooTable<uint64_t, uint64_t>>(3);
}

template <typename Table>
void TableRecordsGrowthSpanOnAutoGrow(uint32_t slots_per_bucket) {
  if (!kMetricsEnabled) GTEST_SKIP() << "metrics compiled out";
  TableOptions o;
  o.num_hashes = 3;
  o.buckets_per_table = 64;
  o.slots_per_bucket = slots_per_bucket;
  o.growth_enabled = true;
  Table t(o);
  const auto keys = MakeUniqueKeys(1000, 7, 0);
  size_t inserted = 0;
  for (uint64_t k : keys) {
    t.Insert(k, k);
    if (++inserted >= 600) break;  // past either layout's initial capacity
  }
  const MetricsSnapshot s = t.SnapshotMetrics();
  EXPECT_GT(s.span_counts[static_cast<size_t>(SpanKind::kGrowth)] +
                s.span_counts[static_cast<size_t>(SpanKind::kReseed)],
            0u);
}

TEST(SpanRecorderTest, TableRecordsGrowthSpanOnAutoGrow) {
  TableRecordsGrowthSpanOnAutoGrow<McCuckooTable<uint64_t, uint64_t>>(1);
}

TEST(SpanRecorderTest, TableRecordsGrowthSpanOnAutoGrowBlocked) {
  TableRecordsGrowthSpanOnAutoGrow<BlockedMcCuckooTable<uint64_t, uint64_t>>(
      3);
}

// A tiny table driven to saturation resolves collisions with kick chains
// and spills the rest: every kStashed result must leave exactly one
// stash-spill span, and every BFS spill is a dead end.
template <typename Table>
void TableRecordsEverySpill(uint32_t slots_per_bucket, EvictionPolicy policy) {
  if (!kMetricsEnabled) GTEST_SKIP() << "metrics compiled out";
  TableOptions o;
  o.num_hashes = 3;
  o.buckets_per_table = 32;
  o.slots_per_bucket = slots_per_bucket;
  o.maxloop = 20;
  o.seed = 0xABCDEF;
  o.eviction_policy = policy;
  Table t(o);
  uint64_t stashed = 0;
  for (uint64_t k : MakeUniqueKeys(t.capacity(), 1, 0)) {
    const InsertResult r = t.Insert(k, k);
    if (r == InsertResult::kStashed) ++stashed;
  }
  EXPECT_GT(stashed, 0u);
  EXPECT_EQ(t.spans().total(SpanKind::kStashSpill), stashed);
  EXPECT_EQ(t.spans().total(SpanKind::kBfsDeadEnd),
            policy == EvictionPolicy::kBfs ? stashed : 0u);
  const MetricsSnapshot s = t.SnapshotMetrics();
  EXPECT_EQ(s.span_counts[static_cast<size_t>(SpanKind::kStashSpill)],
            stashed);
  // Some collision was resolved by a non-trivial chain.
  EXPECT_GT(s.policy_chain_len[static_cast<size_t>(policy)].count, 0u);
  EXPECT_GT(s.kick_chain_len.sum, 0u);
}

TEST(SpanRecorderTest, TableRecordsEverySpill) {
  using T = McCuckooTable<uint64_t, uint64_t>;
  TableRecordsEverySpill<T>(1, EvictionPolicy::kRandomWalk);
  TableRecordsEverySpill<T>(1, EvictionPolicy::kBfs);
}

TEST(SpanRecorderTest, TableRecordsEverySpillBlocked) {
  using T = BlockedMcCuckooTable<uint64_t, uint64_t>;
  TableRecordsEverySpill<T>(3, EvictionPolicy::kRandomWalk);
  TableRecordsEverySpill<T>(3, EvictionPolicy::kBfs);
}

TEST(SpanRecorderTest, TableRecordsEverySpillBaseline) {
  using T = CuckooTable<uint64_t, uint64_t>;
  TableRecordsEverySpill<T>(1, EvictionPolicy::kRandomWalk);
  TableRecordsEverySpill<T>(1, EvictionPolicy::kBfs);
  TableRecordsEverySpill<T>(3, EvictionPolicy::kRandomWalk);
  TableRecordsEverySpill<T>(3, EvictionPolicy::kMinCounter);
  TableRecordsEverySpill<T>(3, EvictionPolicy::kBfs);
}

}  // namespace
}  // namespace mccuckoo
