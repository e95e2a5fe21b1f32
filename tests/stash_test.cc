#include "src/core/stash.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/rng.h"

namespace mccuckoo {
namespace {

TEST(StashTest, InsertFindRoundTrip) {
  Stash<uint64_t, uint64_t> s;
  EXPECT_TRUE(s.Insert(1, 100));
  uint64_t v = 0;
  EXPECT_TRUE(s.Find(1, &v));
  EXPECT_EQ(v, 100u);
  EXPECT_FALSE(s.Find(2, &v));
}

TEST(StashTest, InsertReplacesExisting) {
  Stash<uint64_t, uint64_t> s;
  EXPECT_TRUE(s.Insert(1, 100));
  EXPECT_FALSE(s.Insert(1, 200));  // replacement reported as not-new
  uint64_t v = 0;
  ASSERT_TRUE(s.Find(1, &v));
  EXPECT_EQ(v, 200u);
  EXPECT_EQ(s.size(), 1u);
}

TEST(StashTest, EraseRemoves) {
  Stash<uint64_t, uint64_t> s;
  s.Insert(5, 50);
  EXPECT_TRUE(s.Erase(5));
  EXPECT_FALSE(s.Erase(5));
  EXPECT_TRUE(s.empty());
}

TEST(StashTest, NullOutPointerAllowed) {
  Stash<uint64_t, uint64_t> s;
  s.Insert(9, 90);
  EXPECT_TRUE(s.Find(9, nullptr));
}

TEST(StashTest, ItemsSnapshot) {
  Stash<uint64_t, uint64_t> s;
  for (uint64_t k = 0; k < 10; ++k) s.Insert(k, k * 10);
  auto items = s.Items();
  EXPECT_EQ(items.size(), 10u);
  std::sort(items.begin(), items.end());
  for (uint64_t k = 0; k < 10; ++k) {
    EXPECT_EQ(items[k].first, k);
    EXPECT_EQ(items[k].second, k * 10);
  }
}

// Drives a Stash and a std::unordered_map model through the same random
// insert / assign / find / erase stream. The stash is held near its
// half-full growth threshold, where probe runs are long and often wrap
// past the array's end, so erasures exercise the backward shift across
// the wrap. Items() must list the model's pairs in ascending key order.
template <typename Key>
void RunAgainstModel(uint64_t seed, Key (*make_key)(uint64_t)) {
  Stash<Key, uint64_t> stash;
  std::unordered_map<Key, uint64_t> model;
  Xoshiro256 rng(seed);
  auto check_items = [&] {
    const auto items = stash.Items();
    ASSERT_EQ(items.size(), model.size());
    for (size_t i = 0; i < items.size(); ++i) {
      if (i > 0) {
        ASSERT_LT(items[i - 1].first, items[i].first);
      }
      const auto it = model.find(items[i].first);
      ASSERT_NE(it, model.end());
      ASSERT_EQ(items[i].second, it->second);
    }
  };
  for (size_t target : {5u, 15u, 31u, 7u, 60u, 3u, 120u, 0u}) {
    for (int op = 0; op < 6000; ++op) {
      const Key key = make_key(rng.Below(4 * target + 8));
      const uint64_t value = rng.Next();
      const uint64_t kind = rng.Below(10);
      if (kind < 4) {
        // Insert or assign; below the target size inserts win.
        if (model.size() > target && !model.contains(key)) continue;
        const bool fresh = !model.contains(key);
        model[key] = value;
        ASSERT_EQ(stash.Insert(key, value), fresh);
      } else if (kind < 7) {
        uint64_t got = 0;
        const auto it = model.find(key);
        ASSERT_EQ(stash.Find(key, &got), it != model.end());
        if (it != model.end()) {
          ASSERT_EQ(got, it->second);
        }
      } else {
        if (model.size() < target && model.contains(key)) continue;
        ASSERT_EQ(stash.Erase(key), model.erase(key) > 0);
      }
      ASSERT_EQ(stash.size(), model.size());
      ASSERT_EQ(stash.empty(), model.empty());
      if (op % 97 == 0) check_items();
    }
    check_items();
  }
  stash.Clear();
  EXPECT_TRUE(stash.empty());
  EXPECT_TRUE(stash.Items().empty());
}

uint64_t IntKey(uint64_t i) { return i * 0x10001; }
std::string StringKey(uint64_t i) { return "key/" + std::to_string(i); }

TEST(StashTest, MatchesMapModelUnderRandomChurn) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    RunAgainstModel<uint64_t>(seed, IntKey);
  }
}

TEST(StashTest, StringKeysMatchMapModelUnderRandomChurn) {
  for (uint64_t seed = 1; seed <= 2; ++seed) {
    RunAgainstModel<std::string>(seed, StringKey);
  }
}

TEST(StashTest, ItemsComeOutInAscendingKeyOrder) {
  Stash<uint64_t, uint64_t> s;
  for (uint64_t k : {90u, 3u, 57u, 12u, 1000u, 4u}) s.Insert(k, k + 1);
  s.Erase(57);
  const auto items = s.Items();
  const std::vector<std::pair<uint64_t, uint64_t>> want = {
      {3, 4}, {4, 5}, {12, 13}, {90, 91}, {1000, 1001}};
  EXPECT_EQ(items, want);
}

TEST(StashTest, ClearEmpties) {
  Stash<uint64_t, uint64_t> s;
  s.Insert(1, 1);
  s.Clear();
  EXPECT_EQ(s.size(), 0u);
  EXPECT_FALSE(s.Find(1, nullptr));
}

TEST(StashTest, ScalesWellPastOnchipSizes) {
  // The paper's point: an off-chip stash can hold tens of thousands of
  // items (Table II shows 70k at 93% load), not the classic 4.
  Stash<uint64_t, uint64_t> s;
  for (uint64_t k = 0; k < 70000; ++k) s.Insert(k, k);
  EXPECT_EQ(s.size(), 70000u);
  uint64_t v = 0;
  EXPECT_TRUE(s.Find(69999, &v));
  EXPECT_EQ(v, 69999u);
}

}  // namespace
}  // namespace mccuckoo
