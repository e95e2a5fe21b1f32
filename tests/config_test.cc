#include "src/core/config.h"

#include <gtest/gtest.h>

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
