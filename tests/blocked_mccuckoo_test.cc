#include "src/core/blocked_mccuckoo_table.h"

#include <gtest/gtest.h>

#include <cstdint>

#include "src/workload/keyset.h"

namespace mccuckoo {
namespace {

using Table = BlockedMcCuckooTable<uint64_t, uint64_t>;

TableOptions SmallOptions() {
  TableOptions o;
  o.num_hashes = 3;
  o.buckets_per_table = 512;  // x3 slots x3 tables = 4608 slot capacity
  o.slots_per_bucket = 3;
  o.maxloop = 200;
  o.seed = 0xB10C;
  return o;
}

TEST(BlockedMcCuckooTest, CreateRejectsSingleSlot) {
  TableOptions o = SmallOptions();
  o.slots_per_bucket = 1;
  EXPECT_FALSE(Table::Create(o).ok());
  EXPECT_TRUE(Table::Create(SmallOptions()).ok());
}

TEST(BlockedMcCuckooTest, InsertThenFind) {
  Table t(SmallOptions());
  EXPECT_EQ(t.Insert(42, 4200), InsertResult::kInserted);
  uint64_t v = 0;
  ASSERT_TRUE(t.Find(42, &v));
  EXPECT_EQ(v, 4200u);
}

TEST(BlockedMcCuckooTest, FirstInsertGetsThreeCopies) {
  Table t(SmallOptions());
  t.Insert(7, 70);
  EXPECT_EQ(t.CountCopies(7), 3u);
  EXPECT_TRUE(t.ValidateInvariants().ok());
}

TEST(BlockedMcCuckooTest, EmptyTableMissCostsNothingOffchip) {
  Table t(SmallOptions());
  EXPECT_FALSE(t.Contains(99));
  EXPECT_EQ(t.stats().offchip_reads, 0u);  // all bucket sums are zero
}

TEST(BlockedMcCuckooTest, SustainsVeryHighLoad) {
  // The paper's Table III: the 3-hash 3-slot variant reaches ~99% load
  // before any insertion failure.
  Table t(SmallOptions());
  const uint64_t n = t.capacity() * 97 / 100;
  const auto keys = MakeUniqueKeys(n, 17, 0);
  for (uint64_t k : keys) {
    t.Insert(k, k + 9);
  }
  EXPECT_EQ(t.stash_size(), 0u) << "no failures expected at 97% load";
  for (uint64_t k : keys) {
    uint64_t v = 0;
    ASSERT_TRUE(t.Find(k, &v)) << k;
    EXPECT_EQ(v, k + 9);
  }
  EXPECT_TRUE(t.ValidateInvariants().ok());
}

TEST(BlockedMcCuckooTest, MissingKeysNeverFound) {
  Table t(SmallOptions());
  const auto keys = MakeUniqueKeys(4000, 18, 0);
  for (uint64_t k : keys) t.Insert(k, k);
  for (uint64_t k : MakeUniqueKeys(4000, 18, 1)) {
    EXPECT_FALSE(t.Contains(k));
  }
}

TEST(BlockedMcCuckooTest, InsertOrAssignUpdatesAllCopies) {
  Table t(SmallOptions());
  t.Insert(5, 50);
  EXPECT_EQ(t.InsertOrAssign(5, 500), InsertResult::kUpdated);
  uint64_t v = 0;
  ASSERT_TRUE(t.Find(5, &v));
  EXPECT_EQ(v, 500u);
  EXPECT_TRUE(t.ValidateInvariants().ok());
}

TEST(BlockedMcCuckooTest, EraseZeroOffchipWrites) {
  TableOptions o = SmallOptions();
  o.deletion_mode = DeletionMode::kResetCounters;
  Table t(o);
  const auto keys = MakeUniqueKeys(3000, 19, 0);
  for (uint64_t k : keys) t.Insert(k, k);
  const AccessStats before = t.stats();
  for (size_t i = 0; i < 1000; ++i) EXPECT_TRUE(t.Erase(keys[i]));
  EXPECT_EQ((t.stats() - before).offchip_writes, 0u);
  for (size_t i = 0; i < 1000; ++i) EXPECT_FALSE(t.Contains(keys[i]));
  for (size_t i = 1000; i < 3000; ++i) EXPECT_TRUE(t.Contains(keys[i]));
  EXPECT_TRUE(t.ValidateInvariants().ok());
}

TEST(BlockedMcCuckooTest, TombstoneModeRoundTrip) {
  TableOptions o = SmallOptions();
  o.deletion_mode = DeletionMode::kTombstone;
  Table t(o);
  const auto keys = MakeUniqueKeys(2000, 20, 0);
  for (uint64_t k : keys) t.Insert(k, k);
  for (size_t i = 0; i < 500; ++i) EXPECT_TRUE(t.Erase(keys[i]));
  for (size_t i = 0; i < 500; ++i) EXPECT_FALSE(t.Contains(keys[i]));
  // Tombstones must be recyclable.
  for (uint64_t k : MakeUniqueKeys(400, 20, 1)) {
    t.Insert(k, k);
    EXPECT_TRUE(t.Contains(k));
  }
  EXPECT_TRUE(t.ValidateInvariants().ok());
}

TEST(BlockedMcCuckooTest, StashOverflowStaysFindable) {
  TableOptions o = SmallOptions();
  o.buckets_per_table = 16;  // 144-slot table
  o.maxloop = 10;
  Table t(o);
  const auto keys = MakeUniqueKeys(150, 21, 0);
  size_t stashed = 0;
  for (uint64_t k : keys) {
    if (t.Insert(k, k * 7) == InsertResult::kStashed) ++stashed;
  }
  for (uint64_t k : keys) {
    uint64_t v = 0;
    ASSERT_TRUE(t.Find(k, &v)) << k;
    EXPECT_EQ(v, k * 7);
  }
  EXPECT_EQ(t.stash_size(), stashed);
}

TEST(BlockedMcCuckooTest, HintsSurviveThirdPartyOverwrites) {
  // Fill past the point where redundant copies get consumed; stale hints
  // must never corrupt counters (ValidateInvariants catches that).
  Table t(SmallOptions());
  const auto keys = MakeUniqueKeys(t.capacity() * 99 / 100, 23, 0);
  for (size_t i = 0; i < keys.size(); ++i) {
    t.Insert(keys[i], i);
    if (i % 500 == 0) {
      ASSERT_TRUE(t.ValidateInvariants().ok()) << i;
    }
  }
  ASSERT_TRUE(t.ValidateInvariants().ok());
}

TEST(BlockedMcCuckooTest, DeterministicAcrossRuns) {
  TableOptions o = SmallOptions();
  Table a(o), b(o);
  for (uint64_t k : MakeUniqueKeys(4000, 24, 0)) {
    a.Insert(k, k);
    b.Insert(k, k);
  }
  EXPECT_EQ(a.stats().offchip_reads, b.stats().offchip_reads);
  EXPECT_EQ(a.stats().offchip_writes, b.stats().offchip_writes);
  EXPECT_EQ(a.size(), b.size());
}

TEST(BlockedMcCuckooTest, OnchipMemoryIsTwoBitsPerSlot) {
  Table t(SmallOptions());
  // 3 tables * 512 buckets * 3 slots * 2 bits = 1152 bytes.
  EXPECT_NEAR(static_cast<double>(t.onchip_memory_bytes()), 1152.0, 8.0);
}

}  // namespace
}  // namespace mccuckoo
