// Chaos test: random option combinations x random operation sequences,
// with full structural validation at checkpoints. This is the widest net —
// anything the targeted suites miss in the interaction of deletion modes,
// eviction policies, stash kinds, pruning/screen toggles and table shapes
// tends to surface here first.

#include <gtest/gtest.h>

#include <unordered_map>
#include <vector>

#include "src/core/blocked_mccuckoo_table.h"
#include "src/core/mccuckoo_table.h"
#include "src/workload/keyset.h"

namespace mccuckoo {
namespace {

TableOptions RandomOptions(Xoshiro256& rng, bool blocked) {
  TableOptions o;
  o.num_hashes = 2 + static_cast<uint32_t>(rng.Below(3));  // 2..4
  o.buckets_per_table = 32 + rng.Below(480);
  o.slots_per_bucket =
      blocked ? 2 + static_cast<uint32_t>(rng.Below(3)) : 1;  // 2..4
  o.maxloop = 1 + static_cast<uint32_t>(rng.Below(300));
  o.seed = rng.Next();
  const uint64_t mode = rng.Below(3);
  o.deletion_mode = mode == 0   ? DeletionMode::kDisabled
                    : mode == 1 ? DeletionMode::kResetCounters
                                : DeletionMode::kTombstone;
  // Both core tables support all four policies, BFS included.
  const uint64_t policy = rng.Below(4);
  o.eviction_policy = policy == 0   ? EvictionPolicy::kRandomWalk
                      : policy == 1 ? EvictionPolicy::kMinCounter
                      : policy == 2 ? EvictionPolicy::kBfs
                                    : EvictionPolicy::kBubble;
  o.stash_kind =
      rng.Bernoulli(0.3) ? StashKind::kOnchipChs : StashKind::kOffchip;
  o.stash_screen_enabled = rng.Bernoulli(0.8);
  o.lookup_pruning_enabled = rng.Bernoulli(0.8);
  // A third of the configs run with auto-growth live, so rehashes land in
  // the middle of the op stream and interact with every other toggle.
  o.growth_enabled = rng.Bernoulli(0.33);
  return o;
}

template <typename Table>
void RunChaos(uint64_t master_seed, bool blocked) {
  Xoshiro256 meta_rng(master_seed);
  for (int config = 0; config < 6; ++config) {
    const TableOptions o = RandomOptions(meta_rng, blocked);
    SCOPED_TRACE("config " + std::to_string(config) + ": d=" +
                 std::to_string(o.num_hashes) + " n=" +
                 std::to_string(o.buckets_per_table) + " l=" +
                 std::to_string(o.slots_per_bucket) + " maxloop=" +
                 std::to_string(o.maxloop));
    Table t(o);
    std::unordered_map<uint64_t, uint64_t> model;
    std::vector<uint64_t> live;
    Xoshiro256 rng(o.seed ^ 0xC0A5);
    uint64_t next_key = 0;
    const bool can_erase = o.deletion_mode != DeletionMode::kDisabled;
    const uint64_t ops = t.capacity() * 3;

    for (uint64_t i = 0; i < ops; ++i) {
      const double u = rng.NextDouble();
      if (can_erase && u < 0.20 && !live.empty()) {
        const size_t pick = rng.Below(live.size());
        ASSERT_TRUE(t.Erase(live[pick]));
        model.erase(live[pick]);
        live[pick] = live.back();
        live.pop_back();
      } else if (u < 0.55 || live.empty()) {
        const uint64_t k = SplitMix64((master_seed << 20) ^ next_key++);
        const uint64_t v = rng.Next();
        t.InsertOrAssign(k, v);
        model[k] = v;
        live.push_back(k);
      } else if (u < 0.70) {
        // Overwrite an existing key through InsertOrAssign.
        const uint64_t k = live[rng.Below(live.size())];
        const uint64_t v = rng.Next();
        EXPECT_EQ(t.InsertOrAssign(k, v), InsertResult::kUpdated);
        model[k] = v;
      } else {
        const uint64_t k = live[rng.Below(live.size())];
        uint64_t v = 0;
        ASSERT_TRUE(t.Find(k, &v)) << k;
        ASSERT_EQ(v, model[k]) << k;
      }
      if (i % (ops / 4) == ops / 4 - 1) {
        // Full structural validation plus the debug-only stash-flag
        // consistency sweep (a no-op in release builds).
        Status s = t.ValidateInvariants();
        ASSERT_TRUE(s.ok()) << "op " << i << ": " << s.ToString();
        s = t.CheckInvariants();
        ASSERT_TRUE(s.ok()) << "op " << i << ": " << s.ToString();
      }
    }

    ASSERT_EQ(t.TotalItems(), model.size());
    for (const auto& [k, v] : model) {
      uint64_t got = 0;
      ASSERT_TRUE(t.Find(k, &got)) << k;
      ASSERT_EQ(got, v) << k;
    }
    for (uint64_t k : MakeUniqueKeys(300, master_seed, 9)) {
      ASSERT_FALSE(t.Contains(k)) << k;
    }
  }
}

class ChaosTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ChaosTest, SingleSlot) {
  RunChaos<McCuckooTable<uint64_t, uint64_t>>(GetParam(), false);
}

TEST_P(ChaosTest, Blocked) {
  RunChaos<BlockedMcCuckooTable<uint64_t, uint64_t>>(GetParam(), true);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosTest,
                         ::testing::Values(1ull, 2ull, 3ull, 4ull, 5ull));

}  // namespace
}  // namespace mccuckoo
