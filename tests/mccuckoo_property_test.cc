// Property-based tests of the McCuckoo invariants (DESIGN.md §6) under
// parameterized random workloads: arbitrary interleavings of inserts,
// deletes and overfill, across deletion modes, maxloops and table shapes.

#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/common/rng.h"
#include "src/core/mccuckoo_table.h"
#include "src/workload/keyset.h"

namespace mccuckoo {
namespace {

using Table = McCuckooTable<uint64_t, uint64_t>;

struct PropertyParam {
  uint64_t buckets_per_table;
  uint32_t maxloop;
  DeletionMode deletion_mode;
  double erase_fraction;
  uint64_t seed;
};

std::string ParamName(const ::testing::TestParamInfo<PropertyParam>& info) {
  const auto& p = info.param;
  std::string name = "b";
  name += std::to_string(p.buckets_per_table);
  name += "_ml";
  name += std::to_string(p.maxloop);
  name += p.deletion_mode == DeletionMode::kDisabled        ? "_NoDel"
          : p.deletion_mode == DeletionMode::kResetCounters ? "_Reset"
                                                            : "_Tomb";
  name += "_s";
  name += std::to_string(p.seed);
  return name;
}

class McCuckooPropertyTest : public ::testing::TestWithParam<PropertyParam> {
};

// Model-based test: the table must agree with a reference map after an
// arbitrary random op sequence, and the structural invariants must hold.
TEST_P(McCuckooPropertyTest, AgreesWithReferenceModel) {
  const PropertyParam p = GetParam();
  TableOptions o;
  o.buckets_per_table = p.buckets_per_table;
  o.maxloop = p.maxloop;
  o.deletion_mode = p.deletion_mode;
  o.seed = p.seed;
  Table t(o);

  std::unordered_map<uint64_t, uint64_t> model;
  std::vector<uint64_t> live;
  Xoshiro256 rng(p.seed * 7919 + 1);
  uint64_t next_key = 0;
  const uint64_t ops = 3 * p.buckets_per_table * 2;

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
      const uint64_t v = k * 13 + 1;
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

  // Full agreement with the model.
  EXPECT_EQ(t.TotalItems(), model.size());
  for (const auto& [k, v] : model) {
    uint64_t got = 0;
    ASSERT_TRUE(t.Find(k, &got)) << k;
    EXPECT_EQ(got, v);
  }
  // Negative lookups on a disjoint stream.
  for (uint64_t k : MakeUniqueKeys(500, p.seed, 9)) {
    EXPECT_FALSE(t.Contains(k));
  }
  EXPECT_TRUE(t.ValidateInvariants().ok())
      << t.ValidateInvariants().ToString();
}

// Theorem 2: proactive redundant writes <= capacity * (1 + sum_{t=3..d}
// 1/t); for d = 3 the bound is capacity * (1 + 1/3)... measured against the
// paper's tighter statement: redundant writes never exceed (5/6) * S over a
// pure build-up (plus slack for re-insertions during kick-outs).
TEST_P(McCuckooPropertyTest, RedundantWritesWithinTheorem2Bound) {
  const PropertyParam p = GetParam();
  TableOptions o;
  o.buckets_per_table = p.buckets_per_table;
  o.maxloop = p.maxloop;
  o.seed = p.seed;
  Table t(o);
  const uint64_t capacity = t.capacity();
  const auto keys = MakeUniqueKeys(capacity, p.seed, 0);
  for (uint64_t k : keys) t.Insert(k, k);
  // d = 3: bound = S * (1 + 1/3) on total writes-beyond-first; the paper's
  // 5/6*S form counts the build-up only. Kick-out chains re-place items,
  // so test the theorem's constructive bound.
  EXPECT_LE(static_cast<double>(t.redundant_writes()),
            static_cast<double>(capacity) * (1.0 + 1.0 / 3.0) + 1);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, McCuckooPropertyTest,
    ::testing::Values(
        PropertyParam{256, 100, DeletionMode::kDisabled, 0.0, 1},
        PropertyParam{256, 100, DeletionMode::kResetCounters, 0.25, 2},
        PropertyParam{256, 100, DeletionMode::kTombstone, 0.25, 3},
        PropertyParam{1024, 500, DeletionMode::kDisabled, 0.0, 4},
        PropertyParam{1024, 50, DeletionMode::kResetCounters, 0.4, 5},
        PropertyParam{1024, 500, DeletionMode::kTombstone, 0.1, 6},
        PropertyParam{64, 20, DeletionMode::kResetCounters, 0.3, 7},
        PropertyParam{64, 20, DeletionMode::kTombstone, 0.3, 8},
        PropertyParam{512, 200, DeletionMode::kResetCounters, 0.15, 9},
        PropertyParam{512, 200, DeletionMode::kDisabled, 0.0, 10}),
    ParamName);

// Copy-count invariant probed directly across a fill: counters equal live
// copy counts at multiple checkpoints.
TEST(McCuckooCopyInvariantTest, CountersMatchCopiesAtEveryCheckpoint) {
  TableOptions o;
  o.buckets_per_table = 512;
  Table t(o);
  const auto keys = MakeUniqueKeys(1400, 99, 0);
  for (size_t i = 0; i < keys.size(); ++i) {
    t.Insert(keys[i], keys[i]);
    if (i % 200 == 0) {
      ASSERT_TRUE(t.ValidateInvariants().ok()) << "after " << i;
    }
  }
  ASSERT_TRUE(t.ValidateInvariants().ok());
}

// The stash screen must never produce a false negative: every stashed key
// is findable through the screen, for all deletion modes.
class StashScreenTest : public ::testing::TestWithParam<DeletionMode> {};

TEST_P(StashScreenTest, NoFalseNegatives) {
  TableOptions o;
  o.buckets_per_table = 64;
  o.maxloop = 8;
  o.deletion_mode = GetParam();
  Table t(o);
  const auto keys = MakeUniqueKeys(200, 31, 0);
  for (uint64_t k : keys) t.Insert(k, k ^ 1);
  ASSERT_GT(t.stash_size(), 0u);
  if (GetParam() != DeletionMode::kDisabled) {
    // Churn the table so counters/flags get stale-ish.
    for (size_t i = 0; i < 60; ++i) t.Erase(keys[i]);
    for (uint64_t k : MakeUniqueKeys(40, 32, 2)) t.Insert(k, k);
    for (size_t i = 60; i < keys.size(); ++i) {
      uint64_t v = 0;
      ASSERT_TRUE(t.Find(keys[i], &v)) << keys[i];
      EXPECT_EQ(v, keys[i] ^ 1);
    }
  } else {
    for (uint64_t k : keys) {
      uint64_t v = 0;
      ASSERT_TRUE(t.Find(k, &v)) << k;
      EXPECT_EQ(v, k ^ 1);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllModes, StashScreenTest,
                         ::testing::Values(DeletionMode::kDisabled,
                                           DeletionMode::kResetCounters,
                                           DeletionMode::kTombstone));

}  // namespace
}  // namespace mccuckoo
