#include "src/core/mccuckoo_table.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "src/workload/keyset.h"

namespace mccuckoo {

/// Reaches into a table's storage to corrupt it on purpose.
struct McCuckooTestPeer {
  template <typename T>
  static size_t Slots(const T& t) {
    return t.mem_.table.size();
  }
  template <typename T>
  static uint64_t Counter(const T& t, size_t idx) {
    return t.mem_.counters.PeekCounter(idx);
  }
  template <typename T>
  static void SetCounter(T& t, size_t idx, uint64_t v) {
    t.mem_.counters.Set(idx, v);
  }
  /// The buckets whose stash flag is set, ascending.
  template <typename T>
  static std::vector<size_t> SetFlags(const T& t) {
    std::vector<size_t> out;
    t.mem_.flags.ForEachSetBit([&](size_t b) { out.push_back(b); });
    return out;
  }
  /// The candidate buckets of the one stashed key, ascending.
  template <typename T>
  static std::vector<size_t> StashedKeyCandidates(const T& t) {
    const auto items = t.stash_.Items();
    EXPECT_EQ(items.size(), 1u);
    const auto cand = t.ComputeCandidates(items.at(0).first);
    std::vector<size_t> out(cand.bucket.begin(),
                            cand.bucket.begin() + t.options().num_hashes);
    std::sort(out.begin(), out.end());
    return out;
  }
  template <typename T>
  static void ClearStashFlags(T& t) {
    t.ClearStashFlags();
  }
  template <typename T>
  static Status SplitGrow(T& t, uint64_t new_buckets_per_table) {
    return t.SplitGrow(new_buckets_per_table);
  }
};

namespace {

using Table = McCuckooTable<uint64_t, uint64_t>;

TableOptions SmallOptions() {
  TableOptions o;
  o.num_hashes = 3;
  o.buckets_per_table = 1024;
  o.slots_per_bucket = 1;
  o.maxloop = 200;
  o.seed = 0xABCDEF;
  return o;
}

TEST(McCuckooTest, CreateRejectsBadOptions) {
  TableOptions o = SmallOptions();
  o.num_hashes = 1;
  EXPECT_FALSE(Table::Create(o).ok());
  o = SmallOptions();
  o.buckets_per_table = 0;
  EXPECT_FALSE(Table::Create(o).ok());
  o = SmallOptions();
  o.slots_per_bucket = 3;
  EXPECT_FALSE(Table::Create(o).ok());  // blocked layout is a separate type
  EXPECT_TRUE(Table::Create(SmallOptions()).ok());
}

TEST(McCuckooTest, CheckInvariantsCatchesOneCorruptCounterInEveryBuild) {
  // The check is live in Release too: benchmark end-of-run checks and the
  // Release test suite depend on it.
  Table t(SmallOptions());
  const auto keys = MakeUniqueKeys(1500, 3, 0);
  for (uint64_t k : keys) t.Insert(k, k + 1);
  ASSERT_TRUE(t.CheckInvariants().ok()) << t.CheckInvariants().ToString();
  size_t victim = 0;
  while (McCuckooTestPeer::Counter(t, victim) == 0) ++victim;
  ASSERT_LT(victim, McCuckooTestPeer::Slots(t));
  const uint64_t c = McCuckooTestPeer::Counter(t, victim);
  McCuckooTestPeer::SetCounter(t, victim, c == 1 ? 2 : c - 1);
  const Status s = t.CheckInvariants();
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find("counter != copy count"), std::string::npos)
      << s.ToString();
  EXPECT_FALSE(t.ValidateInvariants().ok());
  McCuckooTestPeer::SetCounter(t, victim, c);
  EXPECT_TRUE(t.CheckInvariants().ok());
}

TEST(McCuckooTest, EmptyTableFindsNothing) {
  Table t(SmallOptions());
  EXPECT_FALSE(t.Contains(42));
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.stats().offchip_reads, 0u);  // Bloom rule: zero counters
}

TEST(McCuckooTest, InsertThenFind) {
  Table t(SmallOptions());
  EXPECT_EQ(t.Insert(42, 4200), InsertResult::kInserted);
  uint64_t v = 0;
  ASSERT_TRUE(t.Find(42, &v));
  EXPECT_EQ(v, 4200u);
  EXPECT_EQ(t.size(), 1u);
}

TEST(McCuckooTest, FirstInsertOccupiesAllCandidates) {
  // Paper Fig 2: the first item x occupies all d empty candidates with
  // counters set to d.
  Table t(SmallOptions());
  t.Insert(7, 70);
  EXPECT_EQ(t.CountCopies(7), 3u);
  EXPECT_EQ(t.redundant_writes(), 2u);
  EXPECT_TRUE(t.ValidateInvariants().ok());
}

TEST(McCuckooTest, FindUsesZeroOffchipAccessesForMissingKeysWhenEmptyish) {
  Table t(SmallOptions());
  t.Insert(1, 10);
  t.ResetStats();
  // A missing key whose candidates are all empty: Bloom rule, no reads.
  uint64_t misses_with_reads = 0;
  for (uint64_t k = 100; k < 200; ++k) {
    const AccessStats before = t.stats();
    EXPECT_FALSE(t.Contains(k));
    if ((t.stats() - before).offchip_reads > 0) ++misses_with_reads;
  }
  // Nearly all candidates are empty in a 3072-bucket table with 1 item.
  EXPECT_LE(misses_with_reads, 2u);
}

TEST(McCuckooTest, ValuesVerifiedUnderLoad) {
  Table t(SmallOptions());
  const auto keys = MakeUniqueKeys(2500, 1, 0);  // ~81% load
  for (uint64_t k : keys) {
    t.Insert(k, k + 1);
  }
  for (uint64_t k : keys) {
    uint64_t v = 0;
    ASSERT_TRUE(t.Find(k, &v)) << k;
    EXPECT_EQ(v, k + 1);
  }
  EXPECT_TRUE(t.ValidateInvariants().ok());
}

TEST(McCuckooTest, MissingKeysNeverFoundUnderLoad) {
  Table t(SmallOptions());
  const auto keys = MakeUniqueKeys(2500, 1, 0);
  for (uint64_t k : keys) t.Insert(k, k);
  const auto missing = MakeUniqueKeys(2500, 1, 1);  // disjoint stream
  for (uint64_t k : missing) EXPECT_FALSE(t.Contains(k));
}

TEST(McCuckooTest, CopiesDecreaseMonotonicallyAsTableFills) {
  Table t(SmallOptions());
  const auto keys = MakeUniqueKeys(3000, 2, 0);
  t.Insert(keys[0], 0);
  EXPECT_EQ(t.CountCopies(keys[0]), 3u);
  for (size_t i = 1; i < keys.size(); ++i) t.Insert(keys[i], i);
  // At ~98% load nearly everything is a sole copy; the first key must
  // still be present with at least one copy.
  EXPECT_GE(t.CountCopies(keys[0]), 1u);
  EXPECT_TRUE(t.Contains(keys[0]));
}

TEST(McCuckooTest, InsertOrAssignUpdatesAllCopies) {
  Table t(SmallOptions());
  t.Insert(5, 50);
  EXPECT_EQ(t.CountCopies(5), 3u);
  EXPECT_EQ(t.InsertOrAssign(5, 500), InsertResult::kUpdated);
  uint64_t v = 0;
  ASSERT_TRUE(t.Find(5, &v));
  EXPECT_EQ(v, 500u);
  EXPECT_TRUE(t.ValidateInvariants().ok());  // copies stayed identical
}

TEST(McCuckooTest, InsertOrAssignInsertsWhenAbsent) {
  Table t(SmallOptions());
  EXPECT_EQ(t.InsertOrAssign(5, 50), InsertResult::kInserted);
  EXPECT_TRUE(t.Contains(5));
}

TEST(McCuckooTest, OverflowGoesToStashAndStaysFindable) {
  TableOptions o = SmallOptions();
  o.buckets_per_table = 64;  // tiny table -> force failures
  o.maxloop = 20;
  Table t(o);
  const auto keys = MakeUniqueKeys(192, 3, 0);  // 100% load attempt
  size_t stashed = 0;
  for (uint64_t k : keys) {
    if (t.Insert(k, k * 3) == InsertResult::kStashed) ++stashed;
  }
  EXPECT_GT(stashed, 0u);
  EXPECT_EQ(t.stash_size(), stashed);
  for (uint64_t k : keys) {
    uint64_t v = 0;
    ASSERT_TRUE(t.Find(k, &v)) << k;
    EXPECT_EQ(v, k * 3);
  }
  EXPECT_GT(t.first_failure_items(), 0u);
}

// Every insertion failure goes to the stash (§III.E): the overflowing
// insert reports kStashed, the first one records the failure load, and no
// key is lost.
TEST(McCuckooTest, StashDisabledReportsFailureButKeepsData) {
  TableOptions o = SmallOptions();
  o.buckets_per_table = 64;
  o.maxloop = 10;
  Table t(o);
  const auto keys = MakeUniqueKeys(192, 4, 0);
  size_t inserted = 0;
  size_t stashed = 0;
  for (uint64_t k : keys) {
    const InsertResult r = t.Insert(k, k);
    ++inserted;
    if (r != InsertResult::kStashed) continue;
    if (++stashed == 1) {
      EXPECT_EQ(t.first_failure_items(), inserted);
    }
  }
  EXPECT_GT(stashed, 0u);
  EXPECT_GT(t.first_failure_items(), 0u);
  EXPECT_EQ(t.TotalItems(), keys.size());
  for (uint64_t k : keys) EXPECT_TRUE(t.Contains(k)) << k;
}

TEST(McCuckooTest, EraseResetCountersMode) {
  TableOptions o = SmallOptions();
  o.deletion_mode = DeletionMode::kResetCounters;
  Table t(o);
  const auto keys = MakeUniqueKeys(1000, 5, 0);
  for (uint64_t k : keys) t.Insert(k, k);
  const AccessStats before = t.stats();
  for (size_t i = 0; i < 500; ++i) EXPECT_TRUE(t.Erase(keys[i])) << i;
  // Deletion performs zero off-chip writes (§III.B.3).
  EXPECT_EQ((t.stats() - before).offchip_writes, 0u);
  for (size_t i = 0; i < 500; ++i) EXPECT_FALSE(t.Contains(keys[i]));
  for (size_t i = 500; i < 1000; ++i) EXPECT_TRUE(t.Contains(keys[i]));
  EXPECT_EQ(t.size(), 500u);
  EXPECT_TRUE(t.ValidateInvariants().ok());
}

TEST(McCuckooTest, EraseTombstoneMode) {
  TableOptions o = SmallOptions();
  o.deletion_mode = DeletionMode::kTombstone;
  Table t(o);
  const auto keys = MakeUniqueKeys(1000, 6, 0);
  for (uint64_t k : keys) t.Insert(k, k);
  for (size_t i = 0; i < 300; ++i) EXPECT_TRUE(t.Erase(keys[i]));
  for (size_t i = 0; i < 300; ++i) EXPECT_FALSE(t.Contains(keys[i]));
  for (size_t i = 300; i < 1000; ++i) EXPECT_TRUE(t.Contains(keys[i]));
  EXPECT_TRUE(t.ValidateInvariants().ok());
}

TEST(McCuckooTest, TombstonedBucketsAreReusedByInsertion) {
  TableOptions o = SmallOptions();
  o.deletion_mode = DeletionMode::kTombstone;
  Table t(o);
  const auto keys = MakeUniqueKeys(2000, 7, 0);
  for (uint64_t k : keys) t.Insert(k, k);
  for (uint64_t k : keys) t.Erase(k);
  EXPECT_EQ(t.size(), 0u);
  // Refill: tombstones must act as empty for insertion.
  const auto fresh = MakeUniqueKeys(2000, 7, 1);
  for (uint64_t k : fresh) {
    t.Insert(k, k);
  }
  for (uint64_t k : fresh) EXPECT_TRUE(t.Contains(k));
  EXPECT_TRUE(t.ValidateInvariants().ok());
}

TEST(McCuckooTest, EraseOfMissingKeyReturnsFalse) {
  TableOptions o = SmallOptions();
  o.deletion_mode = DeletionMode::kResetCounters;
  Table t(o);
  t.Insert(1, 1);
  EXPECT_FALSE(t.Erase(2));
  EXPECT_EQ(t.size(), 1u);
}

TEST(McCuckooTest, EraseFromStash) {
  TableOptions o = SmallOptions();
  o.buckets_per_table = 64;
  o.maxloop = 10;
  o.deletion_mode = DeletionMode::kResetCounters;
  Table t(o);
  const auto keys = MakeUniqueKeys(192, 8, 0);
  for (uint64_t k : keys) t.Insert(k, k);
  ASSERT_GT(t.stash_size(), 0u);
  // Erase everything; stash items must be erasable too.
  for (uint64_t k : keys) EXPECT_TRUE(t.Erase(k)) << k;
  EXPECT_EQ(t.TotalItems(), 0u);
  for (uint64_t k : keys) EXPECT_FALSE(t.Contains(k));
}

TEST(McCuckooTest, RebuildStashFlagsRestoresScreen) {
  TableOptions o = SmallOptions();
  o.buckets_per_table = 64;
  o.maxloop = 10;
  o.deletion_mode = DeletionMode::kResetCounters;
  Table t(o);
  const auto keys = MakeUniqueKeys(192, 10, 0);
  for (uint64_t k : keys) t.Insert(k, k);
  ASSERT_GT(t.stash_size(), 0u);
  for (uint64_t k : keys) t.Erase(k);
  EXPECT_GT(t.stale_stash_flag_keys(), 0u);
  t.RebuildStashFlags();
  EXPECT_EQ(t.stale_stash_flag_keys(), 0u);
  // Everything still behaves.
  for (uint64_t k : keys) EXPECT_FALSE(t.Contains(k));
}

TEST(McCuckooTest, StatsResetWorks) {
  Table t(SmallOptions());
  t.Insert(1, 1);
  EXPECT_GT(t.stats().offchip_writes, 0u);
  t.ResetStats();
  EXPECT_EQ(t.stats().offchip_writes, 0u);
}

TEST(McCuckooTest, FirstCollisionRecordedOnce) {
  TableOptions o = SmallOptions();
  o.buckets_per_table = 128;
  Table t(o);
  const auto keys = MakeUniqueKeys(380, 11, 0);
  for (uint64_t k : keys) t.Insert(k, k);
  const uint64_t first = t.first_collision_items();
  EXPECT_GT(first, 0u);
  EXPECT_LE(first, 384u);
  // Paper Table I: McCuckoo's first collision around 23% load (vs 9% for
  // plain cuckoo). Loose sanity bounds for a small table:
  EXPECT_GT(static_cast<double>(first) / t.capacity(), 0.05);
}

TEST(McCuckooTest, OnchipMemoryIsTwoBitsPerBucket) {
  Table t(SmallOptions());
  // 3 * 1024 buckets * 2 bits = 768 bytes.
  EXPECT_NEAR(static_cast<double>(t.onchip_memory_bytes()), 768.0, 8.0);
}

TEST(McCuckooTest, LoadFactorTracksItems) {
  Table t(SmallOptions());
  EXPECT_DOUBLE_EQ(t.load_factor(), 0.0);
  const auto keys = MakeUniqueKeys(1536, 12, 0);
  for (uint64_t k : keys) t.Insert(k, k);
  EXPECT_NEAR(t.load_factor(), 0.5, 0.01);
}

TEST(McCuckooTest, WorksWithTwoAndFourHashes) {
  for (uint32_t d : {2u, 4u}) {
    TableOptions o = SmallOptions();
    o.num_hashes = d;
    Table t(o);
    const auto keys = MakeUniqueKeys(1000, d, 0);
    for (uint64_t k : keys) t.Insert(k, k);
    for (uint64_t k : keys) EXPECT_TRUE(t.Contains(k));
    EXPECT_TRUE(t.ValidateInvariants().ok()) << "d=" << d;
  }
}

TEST(McCuckooTest, DeterministicAcrossRuns) {
  TableOptions o = SmallOptions();
  Table a(o), b(o);
  const auto keys = MakeUniqueKeys(2800, 13, 0);
  for (uint64_t k : keys) {
    a.Insert(k, k);
    b.Insert(k, k);
  }
  EXPECT_EQ(a.stats().offchip_reads, b.stats().offchip_reads);
  EXPECT_EQ(a.stats().offchip_writes, b.stats().offchip_writes);
  EXPECT_EQ(a.stats().kickouts, b.stats().kickouts);
  EXPECT_EQ(a.size(), b.size());
  EXPECT_EQ(a.stash_size(), b.stash_size());
}

static_assert(sizeof(Table::Bucket) == 16,
              "an 8-byte key and value make a 16 B bucket: one cache line");

TEST(McCuckooTest, StashFlagsLiveInTheFlagArray) {
  TableOptions o = SmallOptions();
  o.buckets_per_table = 64;
  o.maxloop = 8;
  o.deletion_mode = DeletionMode::kResetCounters;  // SplitGrow's mode
  Table t(o);
  const auto keys = MakeUniqueKeys(3 * 64, 17, 0);
  size_t i = 0;
  while (i < keys.size() &&
         t.Insert(keys[i], keys[i]) != InsertResult::kStashed) {
    EXPECT_TRUE(McCuckooTestPeer::SetFlags(t).empty());
    ++i;
  }
  ASSERT_LT(i, keys.size()) << "the table never stashed";

  // The stash landing set exactly its key's d candidate bits.
  const std::vector<size_t> cand = McCuckooTestPeer::StashedKeyCandidates(t);
  ASSERT_EQ(cand.size(), o.num_hashes);
  EXPECT_EQ(McCuckooTestPeer::SetFlags(t), cand);
  ASSERT_TRUE(t.CheckInvariants().ok());

  // Clearing charges one off-chip write per set bit and leaves none set.
  const uint64_t writes = t.stats().offchip_writes;
  McCuckooTestPeer::ClearStashFlags(t);
  EXPECT_EQ(t.stats().offchip_writes - writes, cand.size());
  EXPECT_TRUE(McCuckooTestPeer::SetFlags(t).empty());
  t.RebuildStashFlags();
  EXPECT_EQ(McCuckooTestPeer::SetFlags(t), cand);

  // A split re-inserts the stash into the doubled table, whose fresh flag
  // array stays clear once the stashed key finds a bucket.
  ASSERT_TRUE(McCuckooTestPeer::SplitGrow(t, 2 * o.buckets_per_table).ok());
  EXPECT_EQ(t.stash_size(), 0u);
  EXPECT_TRUE(McCuckooTestPeer::SetFlags(t).empty());
  EXPECT_EQ(t.TotalItems(), i + 1);
  EXPECT_TRUE(t.CheckInvariants().ok());
}

}  // namespace
}  // namespace mccuckoo
