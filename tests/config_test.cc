#include "src/core/config.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "src/baseline/cuckoo_table.h"
#include "src/core/blocked_mccuckoo_table.h"
#include "src/core/mccuckoo_table.h"

namespace mccuckoo {
namespace {

TEST(TableOptionsTest, DefaultsAreValid) {
  TableOptions o;
  EXPECT_TRUE(o.Validate().ok());
  EXPECT_EQ(o.num_hashes, 3u);  // the paper's d
  EXPECT_EQ(o.maxloop, 500u);
  EXPECT_EQ(o.deletion_mode, DeletionMode::kDisabled);
  EXPECT_EQ(o.eviction_policy, EvictionPolicy::kRandomWalk);
  EXPECT_EQ(o.stash_kind, StashKind::kOffchip);
}

TEST(TableOptionsTest, NumHashesRange) {
  TableOptions o;
  o.num_hashes = 1;
  EXPECT_FALSE(o.Validate().ok());
  o.num_hashes = 2;
  EXPECT_TRUE(o.Validate().ok());
  o.num_hashes = 4;
  EXPECT_TRUE(o.Validate().ok());
  o.num_hashes = 5;
  EXPECT_FALSE(o.Validate().ok());
}

TEST(TableOptionsTest, BucketsMustBePositive) {
  TableOptions o;
  o.buckets_per_table = 0;
  EXPECT_FALSE(o.Validate().ok());
}

TEST(TableOptionsTest, SlotsRange) {
  TableOptions o;
  o.slots_per_bucket = 0;
  EXPECT_FALSE(o.Validate().ok());
  o.slots_per_bucket = 8;
  EXPECT_TRUE(o.Validate().ok());
  o.slots_per_bucket = 9;
  EXPECT_FALSE(o.Validate().ok());
}

TEST(TableOptionsTest, CapacityIsProductOfDimensions) {
  TableOptions o;
  o.num_hashes = 3;
  o.buckets_per_table = 100;
  o.slots_per_bucket = 1;
  EXPECT_EQ(o.capacity(), 300u);
  o.slots_per_bucket = 3;
  EXPECT_EQ(o.capacity(), 900u);
  o.num_hashes = 4;
  EXPECT_EQ(o.capacity(), 1200u);
}

TEST(TableOptionsTest, RejectsSlotCountOverflow) {
  // 4 * 2^62 single slots wrap a 64-bit size_t to 0: the storage would be
  // empty while the hash family indexes 2^62 buckets per sub-table.
  TableOptions o;
  o.num_hashes = 4;
  o.buckets_per_table = uint64_t{1} << 62;
  const Status s = o.Validate();
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("overflows"), std::string::npos) << s.message();
  EXPECT_FALSE((McCuckooTable<uint64_t, uint64_t>::Create(o).ok()));
  EXPECT_FALSE((CuckooTable<uint64_t, uint64_t>::Create(o).ok()));
  o.num_hashes = 2;
  o.slots_per_bucket = 8;  // 2 * 2^62 * 8 = 2^66 slots
  EXPECT_FALSE((BlockedMcCuckooTable<uint64_t, uint64_t>::Create(o).ok()));
  EXPECT_FALSE((CuckooTable<uint64_t, uint64_t>::Create(o).ok()));

  // The largest single-slot geometry whose slot count fits is accepted.
  o.num_hashes = 4;
  o.slots_per_bucket = 1;
  o.buckets_per_table = (uint64_t{1} << 62) - 1;
  EXPECT_TRUE(o.Validate().ok());

  // A rehash into an overflowing geometry fails and leaves the table be.
  TableOptions small;
  small.buckets_per_table = 64;
  McCuckooTable<uint64_t, uint64_t> t(small);
  for (uint64_t k = 1; k <= 100; ++k) t.Insert(k, k);
  EXPECT_FALSE(t.Rehash(uint64_t{1} << 63, 7).ok());
  EXPECT_EQ(t.options().buckets_per_table, 64u);
  EXPECT_EQ(t.TotalItems(), 100u);
  for (uint64_t k = 1; k <= 100; ++k) EXPECT_TRUE(t.Contains(k)) << k;
}

TEST(TableOptionsTest, ErrorsNameTheProblem) {
  TableOptions o;
  o.num_hashes = 9;
  const Status s = o.Validate();
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("num_hashes"), std::string::npos);
}

TEST(InsertResultTest, NamesAreStable) {
  EXPECT_STREQ(InsertResultToString(InsertResult::kInserted), "inserted");
  EXPECT_STREQ(InsertResultToString(InsertResult::kUpdated), "updated");
  EXPECT_STREQ(InsertResultToString(InsertResult::kStashed), "stashed");
}

}  // namespace
}  // namespace mccuckoo
