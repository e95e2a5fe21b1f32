// Regression tests for table move semantics: Rehash's scratch rebuild,
// factory returns and vector growth all move tables, and a moved table must
// keep its items, its invariants and its access accounting, which it
// carries as a plain member and keeps charging after the move. MinCounter
// keeps the kick history in play too.

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "src/baseline/cuckoo_table.h"
#include "src/core/blocked_mccuckoo_table.h"
#include "src/core/mccuckoo_table.h"
#include "src/workload/keyset.h"

namespace mccuckoo {
namespace {

TableOptions Options(uint32_t l) {
  TableOptions o;
  o.buckets_per_table = l == 1 ? 512 : 170;
  o.slots_per_bucket = l;
  o.deletion_mode = DeletionMode::kResetCounters;
  o.eviction_policy = EvictionPolicy::kMinCounter;  // KickHistory active too
  return o;
}

template <typename Table>
void MoveAndKeepUsing(uint32_t l) {
  Table original(Options(l));
  const auto keys = MakeUniqueKeys(500, 1, 0);
  for (size_t i = 0; i < 250; ++i) original.Insert(keys[i], keys[i]);

  // Move-construct, then keep mutating: the charges land in the moved
  // table's own counts.
  Table moved(std::move(original));
  for (size_t i = 250; i < keys.size(); ++i) moved.Insert(keys[i], keys[i]);
  for (uint64_t k : keys) EXPECT_TRUE(moved.Contains(k)) << k;
  EXPECT_GT(moved.stats().offchip_writes, 0u);
  EXPECT_TRUE(moved.ValidateInvariants().ok());

  // Move-assign into a fresh table and keep going.
  Table assigned(Options(l));
  assigned = std::move(moved);
  for (size_t i = 0; i < 100; ++i) EXPECT_TRUE(assigned.Erase(keys[i]));
  for (size_t i = 100; i < keys.size(); ++i) {
    EXPECT_TRUE(assigned.Contains(keys[i])) << keys[i];
  }
  EXPECT_TRUE(assigned.ValidateInvariants().ok());
}

TEST(MoveSemanticsTest, McCuckoo) {
  MoveAndKeepUsing<McCuckooTable<uint64_t, uint64_t>>(1);
}
TEST(MoveSemanticsTest, BlockedMcCuckoo) {
  MoveAndKeepUsing<BlockedMcCuckooTable<uint64_t, uint64_t>>(3);
}
TEST(MoveSemanticsTest, Cuckoo) {
  MoveAndKeepUsing<CuckooTable<uint64_t, uint64_t>>(1);
}
TEST(MoveSemanticsTest, Bcht) {
  MoveAndKeepUsing<CuckooTable<uint64_t, uint64_t>>(3);
}

TEST(MoveSemanticsTest, FactoryReturnedTableIsUsable) {
  auto result = McCuckooTable<uint64_t, uint64_t>::Create(Options(1));
  ASSERT_TRUE(result.ok());
  McCuckooTable<uint64_t, uint64_t> t = std::move(result).value();
  for (uint64_t k : MakeUniqueKeys(600, 2, 0)) {
    t.Insert(k, k);
  }
  EXPECT_GT(t.stats().onchip_writes, 0u);
  EXPECT_TRUE(t.ValidateInvariants().ok());
}

TEST(MoveSemanticsTest, VectorGrowthRelocatesTables) {
  std::vector<McCuckooTable<uint64_t, uint64_t>> tables;
  for (int i = 0; i < 8; ++i) {
    tables.emplace_back(Options(1));  // forces reallocation-moves
    tables.back().Insert(static_cast<uint64_t>(i), 100u + i);
  }
  for (int i = 0; i < 8; ++i) {
    uint64_t v = 0;
    ASSERT_TRUE(tables[i].Find(static_cast<uint64_t>(i), &v)) << i;
    EXPECT_EQ(v, 100u + i);
    tables[i].Insert(1000u + i, 1u);  // stats charging after relocation
    EXPECT_GT(tables[i].stats().offchip_writes, 0u);
  }
}

}  // namespace
}  // namespace mccuckoo
