// Edge cases and failure injection for the multi-copy tables: degenerate
// configurations (maxloop 0, one-bucket tables), disabled optimizations,
// tombstone/stash interplay, and adversarial sequences the main suites
// don't reach.

#include <gtest/gtest.h>

#include "src/core/blocked_mccuckoo_table.h"
#include "src/core/mccuckoo_table.h"
#include "src/workload/keyset.h"

namespace mccuckoo {
namespace {

using Table = McCuckooTable<uint64_t, uint64_t>;
using Blocked = BlockedMcCuckooTable<uint64_t, uint64_t>;

TEST(McCuckooEdgeTest, MaxloopZeroStashesOnFirstCollision) {
  TableOptions o;
  o.buckets_per_table = 32;
  o.maxloop = 0;  // no kick chain at all
  Table t(o);
  const auto keys = MakeUniqueKeys(96, 1, 0);
  size_t stashed = 0;
  for (uint64_t k : keys) {
    if (t.Insert(k, k) == InsertResult::kStashed) ++stashed;
  }
  EXPECT_GT(stashed, 0u);
  EXPECT_EQ(t.stats().kickouts, 0u);
  for (uint64_t k : keys) EXPECT_TRUE(t.Contains(k)) << k;
  EXPECT_TRUE(t.ValidateInvariants().ok());
}

TEST(McCuckooEdgeTest, OneBucketPerTable) {
  TableOptions o;
  o.buckets_per_table = 1;  // capacity 3; every key shares all buckets
  o.maxloop = 4;
  Table t(o);
  EXPECT_EQ(t.Insert(1, 10), InsertResult::kInserted);
  EXPECT_EQ(t.CountCopies(1), 3u);
  EXPECT_EQ(t.Insert(2, 20), InsertResult::kInserted);  // consumes copies
  EXPECT_EQ(t.Insert(3, 30), InsertResult::kInserted);
  // Table is now full of sole copies; the next insert must stash.
  EXPECT_EQ(t.Insert(4, 40), InsertResult::kStashed);
  for (uint64_t k : {1, 2, 3, 4}) EXPECT_TRUE(t.Contains(k)) << k;
  EXPECT_TRUE(t.ValidateInvariants().ok());
}

TEST(McCuckooEdgeTest, PruningDisabledStaysCorrect) {
  TableOptions o;
  o.buckets_per_table = 256;
  o.lookup_pruning_enabled = false;
  o.deletion_mode = DeletionMode::kResetCounters;
  Table t(o);
  const auto keys = MakeUniqueKeys(650, 2, 0);
  for (uint64_t k : keys) t.Insert(k, k);
  for (size_t i = 0; i < 200; ++i) t.Erase(keys[i]);
  for (size_t i = 200; i < keys.size(); ++i) EXPECT_TRUE(t.Contains(keys[i]));
  for (uint64_t k : MakeUniqueKeys(500, 2, 7)) EXPECT_FALSE(t.Contains(k));
}

TEST(McCuckooEdgeTest, PruningSavesReads) {
  TableOptions pruned_opts, unpruned_opts;
  pruned_opts.buckets_per_table = unpruned_opts.buckets_per_table = 512;
  unpruned_opts.lookup_pruning_enabled = false;
  Table pruned(pruned_opts), unpruned(unpruned_opts);
  const auto keys = MakeUniqueKeys(1000, 3, 0);
  for (uint64_t k : keys) {
    pruned.Insert(k, k);
    unpruned.Insert(k, k);
  }
  pruned.ResetStats();
  unpruned.ResetStats();
  for (uint64_t k : keys) {
    pruned.Contains(k);
    unpruned.Contains(k);
  }
  EXPECT_LT(pruned.stats().offchip_reads, unpruned.stats().offchip_reads);
}

TEST(McCuckooEdgeTest, ScreenDisabledStaysCorrect) {
  TableOptions o;
  o.buckets_per_table = 64;
  o.maxloop = 8;
  o.stash_screen_enabled = false;
  Table t(o);
  const auto keys = MakeUniqueKeys(190, 4, 0);
  for (uint64_t k : keys) t.Insert(k, k);
  ASSERT_GT(t.stash_size(), 0u);
  for (uint64_t k : keys) EXPECT_TRUE(t.Contains(k));
  // Unscreened: every main-table miss probes the stash.
  t.ResetStats();
  const auto missing = MakeUniqueKeys(100, 4, 7);
  for (uint64_t k : missing) EXPECT_FALSE(t.Contains(k));
  EXPECT_EQ(t.stats().stash_probes, 100u);
}

TEST(McCuckooEdgeTest, TombstoneThenStashInterplay) {
  // A key in the stash must stay findable through deletions of *other*
  // keys that tombstone its candidate buckets' counters.
  TableOptions o;
  o.buckets_per_table = 64;
  o.maxloop = 8;
  o.deletion_mode = DeletionMode::kTombstone;
  Table t(o);
  const auto keys = MakeUniqueKeys(190, 5, 0);
  for (uint64_t k : keys) t.Insert(k, k);
  ASSERT_GT(t.stash_size(), 0u);
  // Delete a third of the main-table keys (skip stashed ones implicitly:
  // Erase handles both).
  size_t erased = 0;
  for (size_t i = 0; i < keys.size() && erased < 60; ++i) {
    if (t.Erase(keys[i])) ++erased;
  }
  // Every non-erased key still findable.
  size_t found = 0;
  for (uint64_t k : keys) found += t.Contains(k);
  EXPECT_EQ(found, keys.size() - erased);
  EXPECT_TRUE(t.ValidateInvariants().ok());
}

TEST(McCuckooEdgeTest, ValueUpdateDoesNotChangeCopyCount) {
  Table t([] {
    TableOptions o;
    o.buckets_per_table = 128;
    return o;
  }());
  t.Insert(9, 90);
  const uint32_t copies = t.CountCopies(9);
  t.InsertOrAssign(9, 91);
  t.InsertOrAssign(9, 92);
  EXPECT_EQ(t.CountCopies(9), copies);
  uint64_t v = 0;
  ASSERT_TRUE(t.Find(9, &v));
  EXPECT_EQ(v, 92u);
}

TEST(McCuckooEdgeTest, FindWithNullOutPointer) {
  Table t([] {
    TableOptions o;
    o.buckets_per_table = 64;
    return o;
  }());
  t.Insert(3, 33);
  EXPECT_TRUE(t.Find(3, nullptr));
  EXPECT_FALSE(t.Find(4, nullptr));
}

TEST(BlockedEdgeTest, MaxloopZeroStashes) {
  TableOptions o;
  o.buckets_per_table = 8;
  o.slots_per_bucket = 3;
  o.maxloop = 0;
  Blocked t(o);
  const auto keys = MakeUniqueKeys(80, 6, 0);
  size_t stashed = 0;
  for (uint64_t k : keys) {
    if (t.Insert(k, k) == InsertResult::kStashed) ++stashed;
  }
  EXPECT_GT(stashed, 0u);
  for (uint64_t k : keys) EXPECT_TRUE(t.Contains(k)) << k;
  EXPECT_TRUE(t.ValidateInvariants().ok());
}

TEST(BlockedEdgeTest, OneBucketPerTableFullsUp) {
  TableOptions o;
  o.buckets_per_table = 1;
  o.slots_per_bucket = 2;  // capacity 6
  o.maxloop = 4;
  Blocked t(o);
  for (uint64_t k = 1; k <= 6; ++k) {
    t.Insert(k, k * 10);
  }
  for (uint64_t k = 1; k <= 6; ++k) {
    uint64_t v = 0;
    ASSERT_TRUE(t.Find(k, &v)) << k;
    EXPECT_EQ(v, k * 10);
  }
  EXPECT_TRUE(t.ValidateInvariants().ok());
}

TEST(BlockedEdgeTest, EightSlotBuckets) {
  TableOptions o;
  o.buckets_per_table = 64;
  o.slots_per_bucket = 8;  // the upper bound Validate allows
  Blocked t(o);
  const auto keys = MakeUniqueKeys(t.capacity() * 95 / 100, 7, 0);
  for (uint64_t k : keys) t.Insert(k, k);
  for (uint64_t k : keys) EXPECT_TRUE(t.Contains(k));
  EXPECT_TRUE(t.ValidateInvariants().ok());
}

TEST(BlockedEdgeTest, ScreenAndPruningDisabledTogether) {
  TableOptions o;
  o.buckets_per_table = 16;
  o.slots_per_bucket = 3;
  o.maxloop = 8;
  o.lookup_pruning_enabled = false;
  o.stash_screen_enabled = false;
  o.deletion_mode = DeletionMode::kResetCounters;
  Blocked t(o);
  const auto keys = MakeUniqueKeys(t.capacity(), 8, 0);
  for (uint64_t k : keys) t.Insert(k, k);
  for (size_t i = 0; i < keys.size() / 3; ++i) t.Erase(keys[i]);
  for (size_t i = keys.size() / 3; i < keys.size(); ++i) {
    EXPECT_TRUE(t.Contains(keys[i])) << keys[i];
  }
  for (uint64_t k : MakeUniqueKeys(200, 8, 7)) EXPECT_FALSE(t.Contains(k));
}

}  // namespace
}  // namespace mccuckoo
