// Model-based property tests for the blocked multi-copy table.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/rng.h"
#include "src/core/blocked_mccuckoo_table.h"
#include "src/workload/keyset.h"

namespace mccuckoo {
namespace {

using Table = BlockedMcCuckooTable<uint64_t, uint64_t>;

struct Param {
  uint64_t buckets_per_table;
  uint32_t slots_per_bucket;
  uint32_t maxloop;
  DeletionMode deletion_mode;
  double erase_fraction;
  uint64_t seed;
};

std::string ParamName(const ::testing::TestParamInfo<Param>& info) {
  const auto& p = info.param;
  std::string name = "b";
  name += std::to_string(p.buckets_per_table);
  name += "_l";
  name += std::to_string(p.slots_per_bucket);
  name += p.deletion_mode == DeletionMode::kDisabled        ? "_NoDel"
          : p.deletion_mode == DeletionMode::kResetCounters ? "_Reset"
                                                            : "_Tomb";
  name += "_s";
  name += std::to_string(p.seed);
  return name;
}

class BlockedPropertyTest : public ::testing::TestWithParam<Param> {};

TEST_P(BlockedPropertyTest, AgreesWithReferenceModel) {
  const Param p = GetParam();
  TableOptions o;
  o.buckets_per_table = p.buckets_per_table;
  o.slots_per_bucket = p.slots_per_bucket;
  o.maxloop = p.maxloop;
  o.deletion_mode = p.deletion_mode;
  o.seed = p.seed;
  Table t(o);

  std::unordered_map<uint64_t, uint64_t> model;
  std::vector<uint64_t> live;
  Xoshiro256 rng(p.seed * 104729 + 3);
  uint64_t next_key = 0;
  const uint64_t ops = t.capacity() * 2;

  for (uint64_t i = 0; i < ops; ++i) {
    const double u = rng.NextDouble();
    const bool can_erase =
        p.deletion_mode != DeletionMode::kDisabled && !live.empty();
    if (can_erase && u < p.erase_fraction) {
      const size_t pick = rng.Below(live.size());
      const uint64_t k = live[pick];
      EXPECT_TRUE(t.Erase(k)) << k;
      model.erase(k);
      live[pick] = live.back();
      live.pop_back();
    } else if (u < 0.85 || live.empty()) {
      const uint64_t k = SplitMix64(next_key++ ^ (p.seed << 32));
      const uint64_t v = k * 17 + 5;
      t.Insert(k, v);
      model[k] = v;
      live.push_back(k);
    } else {
      const uint64_t k = live[rng.Below(live.size())];
      uint64_t v = 0;
      ASSERT_TRUE(t.Find(k, &v)) << k;
      EXPECT_EQ(v, model[k]);
    }
  }

  EXPECT_EQ(t.TotalItems(), model.size());
  for (const auto& [k, v] : model) {
    uint64_t got = 0;
    ASSERT_TRUE(t.Find(k, &got)) << k;
    EXPECT_EQ(got, v);
  }
  for (uint64_t k : MakeUniqueKeys(500, p.seed, 9)) {
    EXPECT_FALSE(t.Contains(k));
  }
  EXPECT_TRUE(t.ValidateInvariants().ok())
      << t.ValidateInvariants().ToString();
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BlockedPropertyTest,
    ::testing::Values(
        Param{64, 3, 100, DeletionMode::kDisabled, 0.0, 1},
        Param{64, 3, 100, DeletionMode::kResetCounters, 0.3, 2},
        Param{64, 3, 100, DeletionMode::kTombstone, 0.3, 3},
        Param{256, 3, 500, DeletionMode::kDisabled, 0.0, 4},
        Param{256, 3, 50, DeletionMode::kResetCounters, 0.2, 5},
        Param{256, 3, 200, DeletionMode::kTombstone, 0.1, 6},
        Param{128, 2, 100, DeletionMode::kResetCounters, 0.25, 7},
        Param{128, 4, 100, DeletionMode::kResetCounters, 0.25, 8},
        Param{16, 3, 10, DeletionMode::kResetCounters, 0.35, 9},
        Param{256, 2, 200, DeletionMode::kTombstone, 0.15, 10}),
    ParamName);

// Theorem 2 analogue at slot granularity.
TEST(BlockedRedundancyTest, RedundantWritesBounded) {
  TableOptions o;
  o.buckets_per_table = 256;
  o.slots_per_bucket = 3;
  BlockedMcCuckooTable<uint64_t, uint64_t> t(o);
  const uint64_t capacity = t.capacity();
  for (uint64_t k : MakeUniqueKeys(capacity, 77, 0)) t.Insert(k, k);
  EXPECT_LE(static_cast<double>(t.redundant_writes()),
            static_cast<double>(capacity) * (1.0 + 1.0 / 3.0) + 1);
}

}  // namespace
}  // namespace mccuckoo
