// The blocked layout (BCHT, slots_per_bucket > 1) of CuckooTable.

#include "src/baseline/cuckoo_table.h"

#include <gtest/gtest.h>

#include <unordered_map>

#include "src/common/rng.h"
#include "src/workload/keyset.h"

namespace mccuckoo {
namespace {

using Table = CuckooTable<uint64_t, uint64_t>;

TableOptions SmallOptions() {
  TableOptions o;
  o.num_hashes = 3;
  o.buckets_per_table = 512;
  o.slots_per_bucket = 3;
  o.maxloop = 200;
  o.seed = 0xBC;
  return o;
}

TEST(BchtTest, InsertFindEraseRoundTrip) {
  Table t(SmallOptions());
  EXPECT_EQ(t.Insert(1, 10), InsertResult::kInserted);
  uint64_t v = 0;
  ASSERT_TRUE(t.Find(1, &v));
  EXPECT_EQ(v, 10u);
  EXPECT_TRUE(t.Erase(1));
  EXPECT_FALSE(t.Contains(1));
}

TEST(BchtTest, ReachesVeryHighLoad) {
  Table t(SmallOptions());
  const uint64_t n = t.capacity() * 96 / 100;
  const auto keys = MakeUniqueKeys(n, 51, 0);
  for (uint64_t k : keys) t.Insert(k, k);
  EXPECT_EQ(t.stash_size(), 0u);
  for (uint64_t k : keys) EXPECT_TRUE(t.Contains(k));
  EXPECT_TRUE(t.ValidateInvariants().ok());
}

TEST(BchtTest, MissLookupCostsDReads) {
  Table t(SmallOptions());
  t.Insert(1, 1);
  t.ResetStats();
  EXPECT_FALSE(t.Contains(12345));
  EXPECT_EQ(t.stats().offchip_reads, 3u);
}

TEST(BchtTest, FirstCollisionLaterThanSingleSlot) {
  Table t(SmallOptions());
  const auto keys = MakeUniqueKeys(t.capacity(), 52, 0);
  for (uint64_t k : keys) t.Insert(k, k);
  const double first_load =
      static_cast<double>(t.first_collision_items()) / t.capacity();
  // Paper Table I: ~46% for BCHT.
  EXPECT_GT(first_load, 0.25);
  EXPECT_LT(first_load, 0.7);
}

TEST(BchtTest, InsertOrAssignUpdates) {
  Table t(SmallOptions());
  t.Insert(5, 50);
  EXPECT_EQ(t.InsertOrAssign(5, 55), InsertResult::kUpdated);
  uint64_t v = 0;
  ASSERT_TRUE(t.Find(5, &v));
  EXPECT_EQ(v, 55u);
}

TEST(BchtTest, ModelAgreementUnderChurn) {
  Table t(SmallOptions());
  std::unordered_map<uint64_t, uint64_t> model;
  Xoshiro256 rng(515151);
  std::vector<uint64_t> live;
  uint64_t next = 0;
  for (int i = 0; i < 8000; ++i) {
    const double u = rng.NextDouble();
    if (u < 0.55 || live.empty()) {
      const uint64_t k = SplitMix64(next++);
      t.Insert(k, k + 3);
      model[k] = k + 3;
      live.push_back(k);
    } else if (u < 0.85) {
      const uint64_t k = live[rng.Below(live.size())];
      uint64_t v = 0;
      ASSERT_TRUE(t.Find(k, &v));
      EXPECT_EQ(v, model[k]);
    } else {
      const size_t pick = rng.Below(live.size());
      EXPECT_TRUE(t.Erase(live[pick]));
      model.erase(live[pick]);
      live[pick] = live.back();
      live.pop_back();
    }
  }
  EXPECT_EQ(t.TotalItems(), model.size());
  for (const auto& [k, v] : model) {
    uint64_t got = 0;
    ASSERT_TRUE(t.Find(k, &got));
    EXPECT_EQ(got, v);
  }
  EXPECT_TRUE(t.ValidateInvariants().ok());
}

TEST(BchtTest, TwoSlotVariantWorks) {
  TableOptions o = SmallOptions();
  o.slots_per_bucket = 2;
  Table t(o);
  const auto keys = MakeUniqueKeys(t.capacity() * 9 / 10, 53, 0);
  for (uint64_t k : keys) t.Insert(k, k);
  for (uint64_t k : keys) EXPECT_TRUE(t.Contains(k));
  EXPECT_TRUE(t.ValidateInvariants().ok());
}

}  // namespace
}  // namespace mccuckoo
