// Focused tests of InsertOrAssign across table states the main suites
// don't isolate: updating stashed keys, updating through deletions, long
// update churn on a hot key, result-code contracts, and the replaced value
// reported through `previous`.

#include <gtest/gtest.h>

#include <array>
#include <optional>
#include <string>
#include <vector>

#include "src/core/blocked_mccuckoo_table.h"
#include "src/core/mccuckoo_table.h"
#include "src/core/sharded_mccuckoo.h"
#include "src/workload/keyset.h"

namespace mccuckoo {
namespace {

using Table = McCuckooTable<uint64_t, uint64_t>;
using Blocked = BlockedMcCuckooTable<uint64_t, uint64_t>;

// A deletion-enabled table of 3 * 64 buckets small enough to stash.
TableOptions PreviousOptions() {
  TableOptions o;
  o.buckets_per_table = 64;
  o.maxloop = 8;
  o.deletion_mode = DeletionMode::kResetCounters;
  return o;
}

// Brings `t` (built from PreviousOptions) to a state holding keys with 1, 2
// and 3 main-table copies and stashed keys, then checks InsertOrAssign's
// `previous` output on one key of each residence and on an absent key.
// `copies(k)` counts k's main-table copies.
template <typename Front, typename CopiesFn>
void ExpectPreviousForEveryResidence(Front& t, CopiesFn copies) {
  // Overfill so the stash fills, free most main-table slots, then refill
  // lightly so fresh keys land with 2 or 3 copies.
  std::vector<uint64_t> live;
  const auto keys = MakeUniqueKeys(192, 11, 0);
  for (uint64_t k : keys) t.Insert(k, k + 1);
  for (size_t i = 0; i < keys.size(); ++i) {
    if (i % 4 != 0 && copies(keys[i]) > 0) {
      ASSERT_TRUE(t.Erase(keys[i]));
    } else {
      live.push_back(keys[i]);
    }
  }
  for (uint64_t k : MakeUniqueKeys(40, 11, 1)) {
    t.Insert(k, k + 1);
    live.push_back(k);
  }
  // by_copies[c]: a live key with c main-table copies (0 = stashed).
  std::array<std::optional<uint64_t>, 4> by_copies;
  for (uint64_t k : live) by_copies[copies(k)] = k;
  for (uint32_t c = 0; c < by_copies.size(); ++c) {
    SCOPED_TRACE(c == 0 ? "stashed key" : std::to_string(c) + " copies");
    ASSERT_TRUE(by_copies[c].has_value());
    const uint64_t k = *by_copies[c];
    uint64_t prev = 0;
    EXPECT_EQ(t.InsertOrAssign(k, 7, &prev), InsertResult::kUpdated);
    EXPECT_EQ(prev, k + 1);
    uint64_t v = 0;
    ASSERT_TRUE(t.Find(k, &v));
    EXPECT_EQ(v, 7u);
  }
  const uint64_t absent = MakeUniqueKeys(1, 11, 2)[0];
  uint64_t prev = 12345;
  EXPECT_NE(t.InsertOrAssign(absent, 9, &prev), InsertResult::kUpdated);
  EXPECT_EQ(prev, 12345u) << "an insert must leave *previous untouched";
  EXPECT_TRUE(t.Contains(absent));
}

TEST(InsertOrAssignTest, PreviousReportsReplacedValue) {
  Table t(PreviousOptions());
  ExpectPreviousForEveryResidence(
      t, [&](uint64_t k) { return t.CountCopies(k); });
  EXPECT_TRUE(t.ValidateInvariants().ok());
}

TEST(InsertOrAssignTest, BlockedPreviousReportsReplacedValue) {
  TableOptions o = PreviousOptions();
  o.buckets_per_table = 20;  // 180 slots for 192 keys: some must stash
  o.slots_per_bucket = 3;
  Blocked t(o);
  ExpectPreviousForEveryResidence(
      t, [&](uint64_t k) { return t.CountCopies(k); });
  EXPECT_TRUE(t.ValidateInvariants().ok());
}

// The front-end's striped writer against the same expectations the bare
// table's SoloWriter meets in PreviousReportsReplacedValue above.
TEST(ShardedPreviousTest, PreviousReportsReplacedValue) {
  ShardedMcCuckoo<Table> t(PreviousOptions(), /*num_shards=*/1);
  const auto copies = [&](uint64_t k) {
    return t.WithExclusiveShard(0, [&](Table& s) { return s.CountCopies(k); });
  };
  ExpectPreviousForEveryResidence(t, copies);
  EXPECT_TRUE(t.WithExclusiveShard(0, [](Table& s) {
                 return s.ValidateInvariants();
               }).ok());
}

TEST(InsertOrAssignTest, UpdatesStashedKey) {
  TableOptions o;
  o.buckets_per_table = 64;
  o.maxloop = 8;
  Table t(o);
  const auto keys = MakeUniqueKeys(192, 1, 0);
  for (uint64_t k : keys) t.Insert(k, k);
  ASSERT_GT(t.stash_size(), 0u);
  // Update every key; stashed ones must be updated in place, not duplicated.
  for (uint64_t k : keys) {
    EXPECT_EQ(t.InsertOrAssign(k, k + 1000), InsertResult::kUpdated) << k;
  }
  EXPECT_EQ(t.TotalItems(), keys.size());
  for (uint64_t k : keys) {
    uint64_t v = 0;
    ASSERT_TRUE(t.Find(k, &v)) << k;
    EXPECT_EQ(v, k + 1000);
  }
  EXPECT_TRUE(t.ValidateInvariants().ok());
}

TEST(InsertOrAssignTest, ReinsertAfterEraseIsInsert) {
  TableOptions o;
  o.buckets_per_table = 256;
  o.deletion_mode = DeletionMode::kResetCounters;
  Table t(o);
  EXPECT_EQ(t.InsertOrAssign(5, 50), InsertResult::kInserted);
  EXPECT_TRUE(t.Erase(5));
  EXPECT_EQ(t.InsertOrAssign(5, 51), InsertResult::kInserted);
  uint64_t v = 0;
  ASSERT_TRUE(t.Find(5, &v));
  EXPECT_EQ(v, 51u);
  EXPECT_EQ(t.size(), 1u);
}

TEST(InsertOrAssignTest, HotKeyUpdateChurn) {
  TableOptions o;
  o.buckets_per_table = 256;
  Table t(o);
  const auto keys = MakeUniqueKeys(500, 2, 0);
  for (uint64_t k : keys) t.Insert(k, 0);
  for (uint64_t round = 1; round <= 200; ++round) {
    EXPECT_EQ(t.InsertOrAssign(keys[7], round), InsertResult::kUpdated);
  }
  uint64_t v = 0;
  ASSERT_TRUE(t.Find(keys[7], &v));
  EXPECT_EQ(v, 200u);
  EXPECT_EQ(t.size(), keys.size());
  EXPECT_TRUE(t.ValidateInvariants().ok());
}

TEST(InsertOrAssignTest, UpdateKeepsAllCopiesIdenticalUnderLoad) {
  TableOptions o;
  o.buckets_per_table = 512;
  Table t(o);
  const auto keys = MakeUniqueKeys(1200, 3, 0);
  for (uint64_t k : keys) t.Insert(k, 0);
  for (size_t i = 0; i < keys.size(); i += 3) {
    t.InsertOrAssign(keys[i], keys[i] * 9);
  }
  // ValidateInvariants checks copy-value identity.
  EXPECT_TRUE(t.ValidateInvariants().ok())
      << t.ValidateInvariants().ToString();
  for (size_t i = 0; i < keys.size(); i += 3) {
    uint64_t v = 0;
    ASSERT_TRUE(t.Find(keys[i], &v));
    EXPECT_EQ(v, keys[i] * 9);
  }
}

TEST(InsertOrAssignTest, BlockedUpdatesPreserveHints) {
  TableOptions o;
  o.buckets_per_table = 128;
  o.slots_per_bucket = 3;
  Blocked t(o);
  const auto keys = MakeUniqueKeys(t.capacity() * 70 / 100, 4, 0);
  for (uint64_t k : keys) t.Insert(k, 0);
  for (uint64_t k : keys) {
    EXPECT_EQ(t.InsertOrAssign(k, k ^ 7), InsertResult::kUpdated);
  }
  for (uint64_t k : keys) {
    uint64_t v = 0;
    ASSERT_TRUE(t.Find(k, &v)) << k;
    EXPECT_EQ(v, k ^ 7);
  }
  // Keep filling past the update churn: hint-guided copy location must
  // still work (ValidateInvariants would catch counter corruption).
  for (uint64_t k : MakeUniqueKeys(t.capacity() * 25 / 100, 4, 2)) {
    t.Insert(k, k);
  }
  EXPECT_TRUE(t.ValidateInvariants().ok());
}

TEST(InsertOrAssignTest, MixedWithPlainInsertStaysConsistent) {
  TableOptions o;
  o.buckets_per_table = 256;
  o.deletion_mode = DeletionMode::kTombstone;
  Table t(o);
  Xoshiro256 rng(99);
  std::unordered_map<uint64_t, uint64_t> model;
  const auto keys = MakeUniqueKeys(400, 5, 0);
  for (int i = 0; i < 5000; ++i) {
    const uint64_t k = keys[rng.Below(keys.size())];
    const double u = rng.NextDouble();
    if (u < 0.5) {
      const uint64_t v = rng.Next();
      t.InsertOrAssign(k, v);
      model[k] = v;
    } else if (u < 0.75 && model.count(k)) {
      EXPECT_TRUE(t.Erase(k));
      model.erase(k);
    } else {
      uint64_t v = 0;
      EXPECT_EQ(t.Find(k, &v), model.count(k) > 0);
      if (model.count(k)) {
        EXPECT_EQ(v, model[k]);
      }
    }
  }
  EXPECT_EQ(t.TotalItems(), model.size());
  EXPECT_TRUE(t.ValidateInvariants().ok());
}

}  // namespace
}  // namespace mccuckoo
