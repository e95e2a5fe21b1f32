// Tests of the full-rehash facility (the "costly remedy" of §I.2) on both
// multi-copy layouts: items survive, the stash drains into the larger
// table, invariants hold under the new hash family, and undersized targets
// are rejected. Also the growth path that splits buckets under the same
// seed instead of re-inserting (SplitGrowTest).

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "src/core/blocked_mccuckoo_table.h"
#include "src/core/mccuckoo_table.h"
#include "src/core/seqlock.h"
#include "src/obs/latency_recorder.h"
#include "src/obs/metrics.h"
#include "src/obs/span_recorder.h"
#include "src/workload/keyset.h"

namespace mccuckoo {
namespace {

// The read-out contract Rehash builds on: ForEachItem visits each live key
// exactly once (multi-copy occupants included), with its current value.
template <typename T, typename K, typename V>
void ExpectEachKeyVisitedOnce(const T& t, const std::map<K, V>& expected) {
  std::map<K, int> visits;
  t.ForEachItem([&](const K& k, const V& v) {
    ++visits[k];
    auto it = expected.find(k);
    ASSERT_NE(it, expected.end()) << "visited a key never inserted";
    EXPECT_EQ(v, it->second);
  });
  EXPECT_EQ(visits.size(), expected.size());
  for (const auto& [k, n] : visits) EXPECT_EQ(n, 1) << "key visited " << n;
}

// Rehash into `new_buckets` under a fresh seed, then the read-out contract,
// an unchanged item count, and both invariant checks.
template <typename T, typename K, typename V>
void RehashAndCheck(T& t, const std::map<K, V>& expected,
                    uint64_t new_buckets) {
  ExpectEachKeyVisitedOnce(t, expected);
  const size_t total = t.TotalItems();
  ASSERT_EQ(total, expected.size());
  ASSERT_TRUE(t.Rehash(new_buckets, /*new_seed=*/4242).ok());
  EXPECT_EQ(t.TotalItems(), total);
  ExpectEachKeyVisitedOnce(t, expected);
  EXPECT_TRUE(t.ValidateInvariants().ok()) << t.ValidateInvariants().ToString();
  EXPECT_TRUE(t.CheckInvariants().ok()) << t.CheckInvariants().ToString();
}

TEST(RehashTest, GrowPreservesAllItemsSingleSlot) {
  TableOptions o;
  o.buckets_per_table = 256;
  o.maxloop = 100;
  McCuckooTable<uint64_t, uint64_t> t(o);
  const auto keys = MakeUniqueKeys(700, 1, 0);  // ~91% load
  for (uint64_t k : keys) t.Insert(k, k * 3);
  ASSERT_TRUE(t.Rehash(1024, /*new_seed=*/999).ok());
  EXPECT_EQ(t.capacity(), 3u * 1024);
  EXPECT_EQ(t.TotalItems(), keys.size());
  for (uint64_t k : keys) {
    uint64_t v = 0;
    ASSERT_TRUE(t.Find(k, &v)) << k;
    EXPECT_EQ(v, k * 3);
  }
  EXPECT_TRUE(t.ValidateInvariants().ok());
}

TEST(RehashTest, DrainsStashIntoBiggerTable) {
  TableOptions o;
  o.buckets_per_table = 64;
  o.maxloop = 8;
  McCuckooTable<uint64_t, uint64_t> t(o);
  const auto keys = MakeUniqueKeys(190, 2, 0);
  for (uint64_t k : keys) t.Insert(k, k);
  ASSERT_GT(t.stash_size(), 0u);
  ASSERT_TRUE(t.Rehash(512, 1234).ok());
  EXPECT_EQ(t.stash_size(), 0u) << "8x table should absorb the stash";
  for (uint64_t k : keys) EXPECT_TRUE(t.Contains(k)) << k;
}

TEST(RehashTest, RejectsUndersizedTarget) {
  TableOptions o;
  o.buckets_per_table = 256;
  McCuckooTable<uint64_t, uint64_t> t(o);
  const auto keys = MakeUniqueKeys(600, 3, 0);
  for (uint64_t k : keys) t.Insert(k, k);
  const Status s = t.Rehash(100, 1);  // 300 slots < 600 items
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  // Table untouched.
  EXPECT_EQ(t.capacity(), 3u * 256);
  for (uint64_t k : keys) EXPECT_TRUE(t.Contains(k));
}

TEST(RehashTest, ShrinkWorksWhenItemsFit) {
  TableOptions o;
  o.buckets_per_table = 1024;
  McCuckooTable<uint64_t, uint64_t> t(o);
  const auto keys = MakeUniqueKeys(300, 4, 0);
  for (uint64_t k : keys) t.Insert(k, k + 1);
  ASSERT_TRUE(t.Rehash(256, 77).ok());
  EXPECT_EQ(t.capacity(), 3u * 256);
  for (uint64_t k : keys) {
    uint64_t v = 0;
    ASSERT_TRUE(t.Find(k, &v)) << k;
    EXPECT_EQ(v, k + 1);
  }
  EXPECT_TRUE(t.ValidateInvariants().ok());
}

template <typename Table>
void StatisticsAccumulateAcrossRebuild(uint32_t slots_per_bucket) {
  TableOptions o;
  o.buckets_per_table = 256;
  o.slots_per_bucket = slots_per_bucket;
  Table t(o);
  for (uint64_t k : MakeUniqueKeys(200, 5, 0)) t.Insert(k, k);
  const uint64_t writes_before = t.stats().offchip_writes;
  const uint64_t reads_before = t.stats().offchip_reads;
  ASSERT_TRUE(t.Rehash(512, 1).ok());
  // The rehash itself costs at least one read per old bucket plus the
  // re-insertion writes.
  EXPECT_GE(t.stats().offchip_reads, reads_before + 3 * 256);
  EXPECT_GT(t.stats().offchip_writes, writes_before);
}

TEST(RehashTest, StatisticsAccumulateAcrossRebuild) {
  StatisticsAccumulateAcrossRebuild<McCuckooTable<uint64_t, uint64_t>>(1);
}

TEST(RehashTest, StatisticsAccumulateAcrossRebuildBlocked) {
  StatisticsAccumulateAcrossRebuild<BlockedMcCuckooTable<uint64_t, uint64_t>>(
      3);
}

// Rehash with a SeqlockArray attached commits under the aux stripe and
// parks the replaced storage for lagging readers; without one it frees it
// at once (CommitRebuild). Both must carry the same lifetime state, so a
// twin without a seqlock, fed the same operations, is the reference:
// AccessStats totals, metric counts, latency sample counts, the span ring,
// the growth policy and the rehash epoch. Deletion mode kResetCounters
// lets the single-slot table's auto-growth take SplitGrow, which shares
// the commit.
template <typename Table>
void SeqlockCommitKeepsLifetimeState(uint32_t slots_per_bucket) {
  TableOptions o;
  o.buckets_per_table = 64;
  o.slots_per_bucket = slots_per_bucket;
  o.deletion_mode = DeletionMode::kResetCounters;
  o.latency_sample_period = 1;
  o.growth_enabled = true;
  Table attached(o);
  Table plain(o);
  SeqlockArray seq(attached.seqlock_domain());
  attached.AttachSeqlock(&seq);
  const auto keys = MakeUniqueKeys(4 * attached.capacity(), 9, 0);
  for (Table* t : {&attached, &plain}) {
    for (uint64_t k : keys) t->Insert(k, k * 3);
    for (uint64_t k : keys) ASSERT_TRUE(t->Find(k)) << k;
    ASSERT_GT(t->rehash_epoch(), 0u) << "auto-growth never committed";
  }
  const uint64_t epoch = attached.rehash_epoch();
  const AccessStats stats_before = attached.stats();
  const uint64_t rehash_spans = attached.spans().total(SpanKind::kRehash);
  for (Table* t : {&attached, &plain}) {
    ASSERT_TRUE(t->Rehash(2 * t->options().buckets_per_table, 77).ok());
  }

  EXPECT_EQ(attached.rehash_epoch(), epoch + 1);
  EXPECT_EQ(plain.rehash_epoch(), attached.rehash_epoch());
  EXPECT_FALSE(SeqlockArray::IsWriting(seq.Version(seq.aux_stripe())));
  EXPECT_GT(attached.stats().offchip_reads, stats_before.offchip_reads);
  EXPECT_GT(attached.stats().offchip_writes, stats_before.offchip_writes);
  EXPECT_EQ(attached.stats(), plain.stats());
  if (kMetricsEnabled) {
    EXPECT_EQ(attached.spans().total(SpanKind::kRehash), rehash_spans + 1);
  }

  const MetricsSnapshot a = attached.SnapshotMetrics();
  const MetricsSnapshot p = plain.SnapshotMetrics();
  EXPECT_EQ(a.inserts, p.inserts);
  EXPECT_EQ(a.lookups, p.lookups);
  EXPECT_EQ(a.kick_chain_len.count, p.kick_chain_len.count);
  EXPECT_EQ(a.stash_hits + a.stash_misses, p.stash_hits + p.stash_misses);
  EXPECT_EQ(a.growth_rehashes, p.growth_rehashes);
  EXPECT_EQ(a.growth_reseeds, p.growth_reseeds);
  EXPECT_EQ(a.rehash_ns.count, p.rehash_ns.count);
  EXPECT_EQ(a.span_counts, p.span_counts);
  for (size_t op = 0; op < kLatencyOps; ++op) {
    EXPECT_EQ(a.op_latency_ns[op].count, p.op_latency_ns[op].count) << op;
  }

  const std::vector<Span> sa = attached.spans().Events();
  const std::vector<Span> sp = plain.spans().Events();
  ASSERT_EQ(sa.size(), sp.size());
  for (size_t i = 0; i < sa.size(); ++i) {
    EXPECT_EQ(sa[i].kind, sp[i].kind) << i;
    EXPECT_EQ(sa[i].detail, sp[i].detail) << i;
  }

  const GrowthPolicy& ga = attached.growth_policy();
  const GrowthPolicy& gp = plain.growth_policy();
  EXPECT_GT(ga.attempts(), 0u);
  EXPECT_EQ(ga.attempts(), gp.attempts());
  EXPECT_EQ(ga.reseeds_at_size(), gp.reseeds_at_size());
  EXPECT_EQ(ga.backoff_window(), gp.backoff_window());
  EXPECT_EQ(ga.seed_rotations(), gp.seed_rotations());
  EXPECT_EQ(ga.pressure_streak(), gp.pressure_streak());
  EXPECT_EQ(ga.suppressed(), gp.suppressed());

  EXPECT_EQ(attached.TotalItems(), keys.size());
  for (uint64_t k : keys) {
    uint64_t v = 0;
    ASSERT_TRUE(attached.Find(k, &v)) << k;
    EXPECT_EQ(v, k * 3);
  }
  EXPECT_TRUE(attached.ValidateInvariants().ok());
}

TEST(RehashTest, SeqlockCommitKeepsLifetimeStateSingleSlot) {
  SeqlockCommitKeepsLifetimeState<McCuckooTable<uint64_t, uint64_t>>(1);
}

TEST(RehashTest, SeqlockCommitKeepsLifetimeStateBlocked) {
  SeqlockCommitKeepsLifetimeState<BlockedMcCuckooTable<uint64_t, uint64_t>>(3);
}

TEST(RehashTest, GrowPreservesAllItemsBlocked) {
  TableOptions o;
  o.buckets_per_table = 64;
  o.slots_per_bucket = 3;
  o.maxloop = 100;
  BlockedMcCuckooTable<uint64_t, uint64_t> t(o);
  const auto keys = MakeUniqueKeys(t.capacity() * 95 / 100, 6, 0);
  for (uint64_t k : keys) t.Insert(k, k * 7);
  ASSERT_TRUE(t.Rehash(256, 2024).ok());
  EXPECT_EQ(t.TotalItems(), keys.size());
  for (uint64_t k : keys) {
    uint64_t v = 0;
    ASSERT_TRUE(t.Find(k, &v)) << k;
    EXPECT_EQ(v, k * 7);
  }
  EXPECT_TRUE(t.ValidateInvariants().ok());
}

TEST(RehashTest, WorksWithDeletionModes) {
  TableOptions o;
  o.buckets_per_table = 256;
  o.deletion_mode = DeletionMode::kTombstone;
  McCuckooTable<uint64_t, uint64_t> t(o);
  const auto keys = MakeUniqueKeys(500, 7, 0);
  for (uint64_t k : keys) t.Insert(k, k);
  for (size_t i = 0; i < 250; ++i) t.Erase(keys[i]);
  ASSERT_TRUE(t.Rehash(512, 3).ok());
  for (size_t i = 0; i < 250; ++i) EXPECT_FALSE(t.Contains(keys[i]));
  for (size_t i = 250; i < keys.size(); ++i) EXPECT_TRUE(t.Contains(keys[i]));
  EXPECT_EQ(t.TotalItems(), 250u);
  EXPECT_TRUE(t.ValidateInvariants().ok());
}

// At 20% load most keys hold 2 or 3 copies: the read-out must report each
// once, whichever sub-tables its copies sit in.
TEST(RehashTest, MultiCopyReadOutVisitsEachKeyOnce) {
  TableOptions o;
  o.buckets_per_table = 1024;
  McCuckooTable<uint64_t, uint64_t> t(o);
  std::map<uint64_t, uint64_t> expected;
  size_t multi_copy = 0;
  for (uint64_t k : MakeUniqueKeys(600, 8, 0)) {
    t.Insert(k, k ^ 5);
    expected[k] = k ^ 5;
  }
  for (const auto& [k, v] : expected) multi_copy += t.CountCopies(k) >= 2;
  ASSERT_GT(multi_copy, expected.size() / 2);
  RehashAndCheck(t, expected, 2048);
}

TEST(RehashTest, StashResidentsVisitedOnceAndKept) {
  TableOptions o;
  o.buckets_per_table = 64;
  o.maxloop = 8;
  McCuckooTable<uint64_t, uint64_t> t(o);
  std::map<uint64_t, uint64_t> expected;
  for (uint64_t k : MakeUniqueKeys(190, 9, 0)) {
    t.Insert(k, k + 11);
    expected[k] = k + 11;
  }
  ASSERT_GT(t.stash_size(), 0u);
  RehashAndCheck(t, expected, 96);
}

TEST(RehashTest, StringKeysVisitedOnce) {
  TableOptions o;
  o.buckets_per_table = 512;
  McCuckooTable<std::string, uint64_t> t(o);
  std::map<std::string, uint64_t> expected;
  for (uint64_t i = 0; i < 700; ++i) {
    const std::string k = "key/" + std::to_string(i * 7919);
    t.Insert(k, i);
    expected[k] = i;
  }
  RehashAndCheck(t, expected, 1024);
}

TEST(RehashTest, BlockedMultiCopyReadOutVisitsEachKeyOnce) {
  TableOptions o;
  o.buckets_per_table = 128;
  o.slots_per_bucket = 3;
  o.maxloop = 8;
  BlockedMcCuckooTable<uint64_t, uint64_t> t(o);
  std::map<uint64_t, uint64_t> expected;
  for (uint64_t k : MakeUniqueKeys(t.capacity() * 40 / 100, 10, 0)) {
    t.Insert(k, k * 5);
    expected[k] = k * 5;
  }
  size_t multi_copy = 0;
  for (const auto& [k, v] : expected) multi_copy += t.CountCopies(k) >= 2;
  ASSERT_GT(multi_copy, 0u);
  RehashAndCheck(t, expected, 256);
}

// --- Growth by bucket splitting (McCuckooTable::SplitGrow) ----------------

// A kResetCounters table grown by kGrowthFactor must keep every key with
// its value and every main-table key's copies: the split moves each copy
// and creates none. maxloop is long enough that nothing stashes and no
// chain runs hard below the load ceiling, so the only growth trigger that
// fires is that ceiling: exactly one grow, on the insert that crosses it.
void SplitGrowAndCheck(uint64_t seed) {
  TableOptions o;
  o.buckets_per_table = 256;
  o.maxloop = 500;
  o.seed = seed;
  o.deletion_mode = DeletionMode::kResetCounters;
  o.growth_enabled = true;
  McCuckooTable<uint64_t, uint64_t> t(o);
  const auto ceiling = static_cast<uint64_t>(
      kGrowthMaxLoadFactor * static_cast<double>(t.capacity()));
  const std::vector<uint64_t> keys = MakeUniqueKeys(ceiling * 2, seed, 0);
  std::map<uint64_t, uint64_t> expected;
  size_t next = 0;
  // Fill to the ceiling with every tenth live key erased along the way, so
  // the split also meets reset (counter 0) buckets that still hold a key.
  while (t.TotalItems() < ceiling) {
    const uint64_t k = keys[next++];
    t.Insert(k, k * 13);
    expected[k] = k * 13;
    if (next % 10 == 0) {
      const uint64_t victim = keys[next - 5];
      ASSERT_TRUE(t.Erase(victim));
      expected.erase(victim);
    }
  }
  ASSERT_EQ(t.rehash_epoch(), 0u);
  std::map<uint64_t, uint32_t> copies_before;
  std::vector<uint64_t> stashed_before;
  for (const auto& [k, v] : expected) {
    copies_before[k] = t.CountCopies(k);
    if (copies_before[k] == 0) stashed_before.push_back(k);
  }
  ASSERT_EQ(stashed_before.size(), t.stash_size());

  const uint64_t trigger = keys[next++];
  t.Insert(trigger, 7);
  expected[trigger] = 7;
  ASSERT_EQ(t.rehash_epoch(), 1u);
  EXPECT_EQ(t.options().buckets_per_table, 256 * kGrowthFactor);
  EXPECT_EQ(t.options().seed, seed) << "grew by rebuild, not by split";
  EXPECT_EQ(t.growth_policy().seed_rotations(), 0u);

  // The split moves copies and creates or drops none. Only the placements
  // around it (the crossing insert and the stash re-insertion) may take
  // over redundant copies, at most d per placed key, never a sole copy.
  uint64_t displaced = 0;
  for (const auto& [k, n] : copies_before) {
    if (n == 0) continue;
    const uint32_t now = t.CountCopies(k);
    EXPECT_GE(now, 1u) << k;
    EXPECT_LE(now, n) << k;
    displaced += n - now;
  }
  EXPECT_LE(displaced, o.num_hashes * (stashed_before.size() + 1));
  // Stashed keys were re-inserted: placed now, or stashed again.
  size_t still_stashed = 0;
  for (uint64_t k : stashed_before) still_stashed += t.CountCopies(k) == 0;
  EXPECT_EQ(t.stash_size(), still_stashed);
  EXPECT_EQ(t.TotalItems(), expected.size());
  for (const auto& [k, v] : expected) {
    uint64_t got = 0;
    ASSERT_TRUE(t.Find(k, &got)) << k;
    EXPECT_EQ(got, v) << k;
  }
  ExpectEachKeyVisitedOnce(t, expected);
  EXPECT_TRUE(t.ValidateInvariants().ok()) << t.ValidateInvariants().ToString();
  EXPECT_TRUE(t.CheckInvariants().ok()) << t.CheckInvariants().ToString();
}

TEST(SplitGrowTest, Doubling) {
  SplitGrowAndCheck(21);
}

}  // namespace
}  // namespace mccuckoo
