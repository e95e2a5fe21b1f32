#include "src/baseline/cuckoo_table.h"

#include <gtest/gtest.h>

#include <string>
#include <unordered_map>

#include "src/common/rng.h"
#include "src/workload/keyset.h"

namespace mccuckoo {
namespace {

using Table = CuckooTable<uint64_t, uint64_t>;

TableOptions SmallOptions() {
  TableOptions o;
  o.num_hashes = 3;
  o.buckets_per_table = 1024;
  o.maxloop = 200;
  o.seed = 0xC0C0;
  return o;
}

TEST(CuckooTest, CreateAcceptsEveryLayoutRejectsBlockedBfs) {
  // One class serves the standard table (l = 1) and BCHT (l > 1); only
  // BFS eviction is limited to the single-slot layout.
  for (uint32_t l = 1; l <= 8; ++l) {
    TableOptions o = SmallOptions();
    o.slots_per_bucket = l;
    for (const EvictionPolicy p :
         {EvictionPolicy::kRandomWalk, EvictionPolicy::kMinCounter,
          EvictionPolicy::kBubble, EvictionPolicy::kBfs}) {
      o.eviction_policy = p;
      const auto r = Table::Create(o);
      if (l > 1 && p == EvictionPolicy::kBfs) {
        ASSERT_FALSE(r.ok()) << l;
        EXPECT_NE(r.status().message().find("BFS"), std::string::npos);
      } else {
        ASSERT_TRUE(r.ok()) << l << " " << EvictionPolicyToString(p);
        EXPECT_EQ(r.value().capacity(), 3u * 1024 * l);
      }
    }
  }
  TableOptions o = SmallOptions();
  o.slots_per_bucket = 0;
  EXPECT_FALSE(Table::Create(o).ok());
}

TEST(CuckooTest, CreateRejectsBlockedLayout) {
  // The blocked layout (l > 1, BCHT) is served, except under BFS eviction,
  // whose search is limited to single-slot buckets.
  TableOptions o = SmallOptions();
  o.slots_per_bucket = 3;
  o.eviction_policy = EvictionPolicy::kBfs;
  const auto r = Table::Create(o);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("BFS"), std::string::npos);
  o.slots_per_bucket = 1;
  EXPECT_TRUE(Table::Create(o).ok());
  EXPECT_TRUE(Table::Create(SmallOptions()).ok());
}

TEST(CuckooTest, InsertFindEraseRoundTrip) {
  Table t(SmallOptions());
  EXPECT_EQ(t.Insert(1, 10), InsertResult::kInserted);
  uint64_t v = 0;
  ASSERT_TRUE(t.Find(1, &v));
  EXPECT_EQ(v, 10u);
  EXPECT_TRUE(t.Erase(1));
  EXPECT_FALSE(t.Contains(1));
  EXPECT_EQ(t.size(), 0u);
}

TEST(CuckooTest, MissingLookupCostsDReads) {
  Table t(SmallOptions());
  t.Insert(1, 1);
  t.ResetStats();
  EXPECT_FALSE(t.Contains(999));
  // No helping structure: all 3 candidates must be read.
  EXPECT_EQ(t.stats().offchip_reads, 3u);
}

TEST(CuckooTest, HoldsHighLoadWithKickouts) {
  Table t(SmallOptions());
  const auto keys = MakeUniqueKeys(2700, 41, 0);  // ~88% load
  for (uint64_t k : keys) t.Insert(k, k * 2);
  EXPECT_GT(t.stats().kickouts, 0u);
  for (uint64_t k : keys) {
    uint64_t v = 0;
    ASSERT_TRUE(t.Find(k, &v)) << k;
    EXPECT_EQ(v, k * 2);
  }
  EXPECT_TRUE(t.ValidateInvariants().ok());
}

TEST(CuckooTest, OverflowToStashKeepsKeysFindable) {
  TableOptions o = SmallOptions();
  o.buckets_per_table = 64;
  o.maxloop = 10;
  Table t(o);
  const auto keys = MakeUniqueKeys(192, 42, 0);
  for (uint64_t k : keys) t.Insert(k, k);
  EXPECT_GT(t.stash_size(), 0u);
  for (uint64_t k : keys) EXPECT_TRUE(t.Contains(k)) << k;
  EXPECT_GT(t.first_failure_items(), 0u);
}

TEST(CuckooTest, FirstCollisionEarlierThanMcCuckoo) {
  // Table I's qualitative claim at small scale: plain cuckoo kicks out much
  // earlier than McCuckoo overwrites run out.
  TableOptions o = SmallOptions();
  Table t(o);
  const auto keys = MakeUniqueKeys(3000, 43, 0);
  for (uint64_t k : keys) t.Insert(k, k);
  const double first_load =
      static_cast<double>(t.first_collision_items()) / t.capacity();
  EXPECT_GT(first_load, 0.01);
  EXPECT_LT(first_load, 0.35);  // paper: ~9%
}

TEST(CuckooTest, InsertOrAssignUpdates) {
  Table t(SmallOptions());
  t.Insert(5, 50);
  EXPECT_EQ(t.InsertOrAssign(5, 55), InsertResult::kUpdated);
  uint64_t v = 0;
  ASSERT_TRUE(t.Find(5, &v));
  EXPECT_EQ(v, 55u);
  EXPECT_EQ(t.InsertOrAssign(6, 60), InsertResult::kInserted);
}

TEST(CuckooTest, ModelAgreementUnderChurn) {
  Table t(SmallOptions());
  std::unordered_map<uint64_t, uint64_t> model;
  Xoshiro256 rng(4242);
  std::vector<uint64_t> live;
  uint64_t next = 0;
  for (int i = 0; i < 6000; ++i) {
    const double u = rng.NextDouble();
    if (u < 0.55 || live.empty()) {
      const uint64_t k = SplitMix64(next++);
      t.Insert(k, k + 3);
      model[k] = k + 3;
      live.push_back(k);
    } else if (u < 0.8) {
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

TEST(CuckooTest, EraseWriteCostIsOne) {
  Table t(SmallOptions());
  t.Insert(9, 90);
  const AccessStats before = t.stats();
  EXPECT_TRUE(t.Erase(9));
  // "The number of writes during a deletion will always be one for the
  // single-copy schemes" (§IV.D).
  EXPECT_EQ((t.stats() - before).offchip_writes, 1u);
}

}  // namespace
}  // namespace mccuckoo
