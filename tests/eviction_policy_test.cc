// Tests of the pluggable eviction policies (§III.D): MinCounter [17] and
// BFS [3] (counter-guided on the multi-copy tables) for all four tables.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "src/baseline/cuckoo_table.h"
#include "src/common/rng.h"
#include "src/core/blocked_mccuckoo_table.h"
#include "src/core/eviction.h"
#include "src/core/mccuckoo_table.h"
#include "src/workload/keyset.h"

namespace mccuckoo {
namespace {

TableOptions BaseOptions() {
  TableOptions o;
  o.buckets_per_table = 512;
  o.maxloop = 200;
  o.seed = 0xE71C;
  return o;
}

TEST(KickHistoryTest, DisabledByDefault) {
  KickHistory h;
  EXPECT_FALSE(h.enabled());
  EXPECT_EQ(h.memory_bytes(), 0u);
}

TEST(KickHistoryTest, CountsAndSaturates) {
  KickHistory h(10);
  EXPECT_TRUE(h.enabled());
  for (int i = 0; i < 3; ++i) h.Increment(5);
  EXPECT_EQ(h.Get(5), 3u);
  EXPECT_EQ(h.Get(4), 0u);
  for (int i = 0; i < 100; ++i) h.Increment(5);
  EXPECT_EQ(h.Get(5), (uint64_t{1} << kKickCounterBits) - 1);
}

TEST(KickHistoryTest, FiveBitDefaultWidth) {
  KickHistory h(1000);
  for (int i = 0; i < 40; ++i) h.Increment(0);
  EXPECT_EQ(h.Get(0), 31u);  // 5-bit saturation, as in MinCounter [17]
}

TEST(PickVictimTest, RandomPolicyExcludesPreviousBucket) {
  Xoshiro256 rng(3);
  KickHistory disabled;
  const std::array<size_t, kMaxHashes> buckets = {10, 20, 30, 0};
  for (int i = 0; i < 200; ++i) {
    const uint32_t t = PickVictim(buckets, 3, /*exclude=*/20, disabled, rng);
    EXPECT_NE(buckets[t], 20u);
  }
}

TEST(PickVictimTest, MinCounterPrefersColdBuckets) {
  Xoshiro256 rng(4);
  KickHistory h(100);
  h.Increment(10);
  h.Increment(10);
  h.Increment(20);
  const std::array<size_t, kMaxHashes> buckets = {10, 20, 30, 0};
  // Bucket 30 has count 0 -> always chosen.
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(PickVictim(buckets, 3, static_cast<size_t>(-1), h, rng), 2u);
  }
}

TEST(PickVictimTest, MinCounterBreaksTiesAmongMins) {
  Xoshiro256 rng(5);
  KickHistory h(100);
  h.Increment(10);  // bucket 10 hot; 20 and 30 tied at 0
  const std::array<size_t, kMaxHashes> buckets = {10, 20, 30, 0};
  bool saw1 = false, saw2 = false;
  for (int i = 0; i < 200; ++i) {
    const uint32_t t = PickVictim(buckets, 3, static_cast<size_t>(-1), h, rng);
    EXPECT_NE(t, 0u);
    saw1 |= (t == 1);
    saw2 |= (t == 2);
  }
  EXPECT_TRUE(saw1 && saw2);
}

// Every table type must stay correct under MinCounter at high load.
template <typename Table>
void RoundTripWithPolicy(TableOptions o) {
  Table t(o);
  const auto keys = MakeUniqueKeys(t.capacity() * 85 / 100, o.seed, 0);
  for (uint64_t k : keys) {
    t.Insert(k, k * 5);
  }
  for (uint64_t k : keys) {
    uint64_t v = 0;
    ASSERT_TRUE(t.Find(k, &v)) << k;
    EXPECT_EQ(v, k * 5);
  }
  EXPECT_TRUE(t.ValidateInvariants().ok()) << t.ValidateInvariants().ToString();
}

TEST(MinCounterPolicyTest, McCuckooRoundTrip) {
  TableOptions o = BaseOptions();
  o.eviction_policy = EvictionPolicy::kMinCounter;
  RoundTripWithPolicy<McCuckooTable<uint64_t, uint64_t>>(o);
}

TEST(MinCounterPolicyTest, CuckooRoundTrip) {
  TableOptions o = BaseOptions();
  o.eviction_policy = EvictionPolicy::kMinCounter;
  RoundTripWithPolicy<CuckooTable<uint64_t, uint64_t>>(o);
}

TEST(MinCounterPolicyTest, BlockedRoundTrip) {
  TableOptions o = BaseOptions();
  o.slots_per_bucket = 3;
  o.eviction_policy = EvictionPolicy::kMinCounter;
  RoundTripWithPolicy<BlockedMcCuckooTable<uint64_t, uint64_t>>(o);
  RoundTripWithPolicy<CuckooTable<uint64_t, uint64_t>>(o);
}

TEST(MinCounterPolicyTest, AddsOnchipMemory) {
  TableOptions o = BaseOptions();
  McCuckooTable<uint64_t, uint64_t> random_walk(o);
  o.eviction_policy = EvictionPolicy::kMinCounter;
  McCuckooTable<uint64_t, uint64_t> min_counter(o);
  EXPECT_GT(min_counter.onchip_memory_bytes(),
            random_walk.onchip_memory_bytes());
}

TEST(BfsPolicyTest, CuckooRoundTripAtHighLoad) {
  TableOptions o = BaseOptions();
  o.eviction_policy = EvictionPolicy::kBfs;
  RoundTripWithPolicy<CuckooTable<uint64_t, uint64_t>>(o);
}

TEST(BfsPolicyTest, FindsShortPathsWhereWalkWanders) {
  // BFS finds the *shortest* path, so its kick count per insertion is no
  // larger than the walk's on the same fill.
  TableOptions o = BaseOptions();
  uint64_t walk_kicks = 0, bfs_kicks = 0;
  {
    CuckooTable<uint64_t, uint64_t> t(o);
    for (uint64_t k : MakeUniqueKeys(t.capacity() * 88 / 100, 1, 0)) {
      t.Insert(k, k);
    }
    walk_kicks = t.stats().kickouts;
  }
  {
    TableOptions ob = o;
    ob.eviction_policy = EvictionPolicy::kBfs;
    CuckooTable<uint64_t, uint64_t> t(ob);
    for (uint64_t k : MakeUniqueKeys(t.capacity() * 88 / 100, 1, 0)) {
      t.Insert(k, k);
    }
    bfs_kicks = t.stats().kickouts;
  }
  EXPECT_LT(bfs_kicks, walk_kicks);
}

TEST(BfsPolicyTest, AcceptedByEveryTableBchtIncluded) {
  TableOptions o = BaseOptions();
  o.eviction_policy = EvictionPolicy::kBfs;
  EXPECT_TRUE((McCuckooTable<uint64_t, uint64_t>::Create(o).ok()));
  o.slots_per_bucket = 3;
  EXPECT_TRUE((BlockedMcCuckooTable<uint64_t, uint64_t>::Create(o).ok()));
  ASSERT_TRUE((CuckooTable<uint64_t, uint64_t>::Create(o).ok()));
  // BCHT runs the skeleton's slot-granular BFS: fill it past 97% load,
  // where its collisions need chains, and check the invariants after.
  CuckooTable<uint64_t, uint64_t> bcht(o);
  const auto keys = MakeUniqueKeys(bcht.capacity() * 97 / 100, 5, 0);
  for (uint64_t k : keys) bcht.Insert(k, k);
  EXPECT_GT(bcht.stats().kickouts, 0u);
  for (uint64_t k : keys) EXPECT_TRUE(bcht.Contains(k)) << k;
  EXPECT_TRUE(bcht.ValidateInvariants().ok())
      << bcht.ValidateInvariants().ToString();
}

TEST(BfsPolicyTest, McCuckooRoundTripAtHighLoad) {
  TableOptions o = BaseOptions();
  o.eviction_policy = EvictionPolicy::kBfs;
  RoundTripWithPolicy<McCuckooTable<uint64_t, uint64_t>>(o);
}

TEST(BfsPolicyTest, BlockedRoundTripAtHighLoad) {
  TableOptions o = BaseOptions();
  o.slots_per_bucket = 3;
  o.eviction_policy = EvictionPolicy::kBfs;
  RoundTripWithPolicy<BlockedMcCuckooTable<uint64_t, uint64_t>>(o);
}

// The load90 collapse regression: on a multi-copy table at punishing load,
// counter-guided BFS must succeed with far fewer relocations than the blind
// random walk on the same key set. BFS deliberately gives up on a search
// much sooner than the walk's maxloop relocation budget (the node budget +
// dead-end throttle are what repair the wall-clock collapse), so it may
// park a handful more keys in the stash — those stay findable; the check
// is that the spill stays a token fraction of the fill.
TEST(BfsPolicyTest, BeatsRandomWalkOnMcCuckooAtLoad90) {
  TableOptions o = BaseOptions();
  o.buckets_per_table = 2048;
  uint64_t walk_kicks = 0, bfs_kicks = 0;
  size_t walk_stashed = 0, bfs_stashed = 0;
  {
    McCuckooTable<uint64_t, uint64_t> t(o);
    for (uint64_t k : MakeUniqueKeys(t.capacity() * 90 / 100, 1, 0)) {
      t.Insert(k, k);
    }
    walk_kicks = t.stats().kickouts;
    walk_stashed = t.stash_size();
  }
  {
    TableOptions ob = o;
    ob.eviction_policy = EvictionPolicy::kBfs;
    McCuckooTable<uint64_t, uint64_t> t(ob);
    for (uint64_t k : MakeUniqueKeys(t.capacity() * 90 / 100, 1, 0)) {
      t.Insert(k, k);
    }
    bfs_kicks = t.stats().kickouts;
    bfs_stashed = t.stash_size();
    EXPECT_TRUE(t.ValidateInvariants().ok())
        << t.ValidateInvariants().ToString();
  }
  EXPECT_LT(bfs_kicks, walk_kicks);
  (void)walk_stashed;
  const size_t inserted = o.capacity() * 90 / 100;
  EXPECT_LE(bfs_stashed, inserted / 50) << "BFS stash spill above 2%";
}

TEST(BfsPolicyTest, McCuckooSurvivesDeletionsAndReinsertions) {
  // Tombstones read as counter 0, so BFS must treat deleted buckets as free
  // terminals and keep every remaining key reachable.
  TableOptions o = BaseOptions();
  o.eviction_policy = EvictionPolicy::kBfs;
  o.deletion_mode = DeletionMode::kResetCounters;
  McCuckooTable<uint64_t, uint64_t> t(o);
  const auto keys = MakeUniqueKeys(t.capacity() * 80 / 100, 3, 0);
  for (uint64_t k : keys) t.Insert(k, k);
  for (size_t i = 0; i < keys.size(); i += 2) t.Erase(keys[i]);
  const auto fresh = MakeUniqueKeys(keys.size() / 4, 3, 99);
  for (uint64_t k : fresh) t.Insert(k, k);
  for (size_t i = 1; i < keys.size(); i += 2) {
    EXPECT_TRUE(t.Contains(keys[i])) << keys[i];
  }
  for (uint64_t k : fresh) EXPECT_TRUE(t.Contains(k)) << k;
  EXPECT_TRUE(t.ValidateInvariants().ok()) << t.ValidateInvariants().ToString();
}

TEST(PickVictimTest, SingleHashDoesNotInvokeRngBelowZero) {
  // Regression: with d == 1 and the only candidate excluded, the random
  // branch used to call rng.Below(0) — UB. The guard must return level 0.
  Xoshiro256 rng(9);
  KickHistory disabled;
  const std::array<size_t, kMaxHashes> buckets = {42, 0, 0, 0};
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(PickVictim(buckets, 1, /*exclude=*/42, disabled, rng), 0u);
  }
  KickHistory h(100);
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(PickVictim(buckets, 1, /*exclude=*/42, h, rng), 0u);
  }
}

TEST(BfsEngineTest, FindsShortestPathAndReportsNodes) {
  // Tiny synthetic graph: 0 -> {1, 2}, 1 -> {3}, 2 -> terminal 9.
  const uint64_t roots[] = {0};
  const BfsPathResult r = BfsFindPath(
      roots, 1, /*max_nodes=*/16,
      [](uint64_t id, auto&& emit, auto&& terminal) {
        if (id == 0) {
          emit(1);
          emit(2);
        } else if (id == 1) {
          emit(3);
        } else if (id == 2) {
          terminal(9);
        }
      });
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.terminal, 9u);
  ASSERT_EQ(r.node.size(), 2u);
  EXPECT_EQ(r.node[0], 0u);
  EXPECT_EQ(r.node[1], 2u);
  EXPECT_GT(r.nodes_expanded, 0u);
}

TEST(BfsEngineTest, ExhaustsBudgetWithoutTerminal) {
  const uint64_t roots[] = {0};
  const BfsPathResult r = BfsFindPath(
      roots, 1, /*max_nodes=*/8,
      [](uint64_t id, auto&& emit, auto&& terminal) {
        (void)terminal;
        emit(id + 1);  // infinite chain, never a terminal
      });
  EXPECT_FALSE(r.found);
  EXPECT_LE(r.nodes_expanded, 8u);
  EXPECT_GT(r.nodes_expanded, 0u);
}

// The engine as it was before it moved to per-thread storage: a fresh node
// vector per search and duplicate detection by linear scan. The optimized
// engine must visit the same nodes in the same order.
struct ReferenceBfsResult {
  std::vector<uint64_t> node;
  uint64_t terminal = 0;
  bool found = false;
  uint32_t nodes_expanded = 0;
};

template <typename ExpandFn>
ReferenceBfsResult ReferenceBfsFindPath(const uint64_t* roots,
                                        uint32_t n_roots, size_t max_nodes,
                                        ExpandFn&& expand) {
  struct Node {
    uint64_t id;
    int32_t parent;
  };
  ReferenceBfsResult out;
  std::vector<Node> nodes;
  auto enqueued = [&](uint64_t id) {
    for (const Node& n : nodes) {
      if (n.id == id) return true;
    }
    return false;
  };
  for (uint32_t i = 0; i < n_roots && nodes.size() < max_nodes; ++i) {
    if (!enqueued(roots[i])) nodes.push_back({roots[i], -1});
  }
  for (size_t head = 0; head < nodes.size(); ++head) {
    ++out.nodes_expanded;
    bool found_terminal = false;
    uint64_t terminal = 0;
    expand(
        nodes[head].id,
        [&](uint64_t child) {
          if (nodes.size() >= max_nodes) return;
          if (!enqueued(child)) {
            nodes.push_back({child, static_cast<int32_t>(head)});
          }
        },
        [&](uint64_t id) {
          found_terminal = true;
          terminal = id;
        });
    if (found_terminal) {
      out.found = true;
      out.terminal = terminal;
      for (int32_t n = static_cast<int32_t>(head); n >= 0;
           n = nodes[n].parent) {
        out.node.push_back(nodes[n].id);
      }
      std::reverse(out.node.begin(), out.node.end());
      return out;
    }
  }
  return out;
}

TEST(BfsEngineTest, MatchesLinearScanReferenceOnRandomGraphs) {
  // Random eviction graphs shaped like the tables': each node has up to
  // three alternates, a node is terminal by its own (hashed) state, and
  // small node universes force many duplicate children. Every budget the
  // tables use (the throttle's 4 and 16, the 48-node cap, a full maxloop
  // of 500) must give the reference engine's result.
  Xoshiro256 rng(0xBF5);
  int found = 0;
  int searches = 0;
  for (int graph = 0; graph < 400; ++graph) {
    const uint64_t universe = 8 + rng.Below(4000);
    const uint64_t salt = rng.Next();
    const uint32_t fanout = 1 + static_cast<uint32_t>(rng.Below(3));
    const uint64_t per_mille_terminal =
        std::array<uint64_t, 4>{0, 2, 10, 50}[rng.Below(4)];
    auto expand = [&](uint64_t id, auto&& emit, auto&& terminal) {
      for (uint32_t j = 0; j < fanout; ++j) {
        const uint64_t alt = SplitMix64(id * 31 + j + salt) % universe;
        if (SplitMix64(alt ^ ~salt) % 1000 < per_mille_terminal) {
          terminal(alt);
          return;
        }
        emit(alt);
      }
    };
    uint64_t roots[kMaxHashes];
    const uint32_t n_roots = 1 + static_cast<uint32_t>(rng.Below(kMaxHashes));
    for (uint32_t i = 0; i < n_roots; ++i) roots[i] = rng.Below(universe);
    for (size_t budget : {4, 16, 48, 500}) {
      const ReferenceBfsResult want =
          ReferenceBfsFindPath(roots, n_roots, budget, expand);
      const BfsPathResult got = BfsFindPath(roots, n_roots, budget, expand);
      ASSERT_EQ(got.found, want.found) << "graph " << graph << " budget "
                                       << budget;
      ASSERT_EQ(got.nodes_expanded, want.nodes_expanded)
          << "graph " << graph << " budget " << budget;
      ASSERT_EQ(std::vector<uint64_t>(got.node.begin(), got.node.end()),
                want.node)
          << "graph " << graph << " budget " << budget;
      if (want.found) {
        ASSERT_EQ(got.terminal, want.terminal);
        ++found;
      }
      ++searches;
    }
  }
  // Both outcomes, and both deep and shallow searches, were exercised.
  EXPECT_GT(found, searches / 10);
  EXPECT_LT(found, searches * 9 / 10);
}

TEST(BfsPolicyTest, OverflowStillGoesToStash) {
  TableOptions o = BaseOptions();
  o.buckets_per_table = 64;
  o.maxloop = 16;
  o.eviction_policy = EvictionPolicy::kBfs;
  CuckooTable<uint64_t, uint64_t> t(o);
  const auto keys = MakeUniqueKeys(192, 2, 0);
  for (uint64_t k : keys) t.Insert(k, k);
  EXPECT_GT(t.stash_size(), 0u);
  for (uint64_t k : keys) EXPECT_TRUE(t.Contains(k)) << k;
  EXPECT_TRUE(t.ValidateInvariants().ok());
}

// The kick-history width is fixed at MinCounter's 5 bits [17]: a MinCounter
// table's on-chip memory exceeds its random-walk twin's by exactly one
// 5-bit cell per bucket, packed into 64-bit words.
TEST(OptionsTest, KickCounterBitsValidated) {
  static_assert(kKickCounterBits == 5);
  TableOptions o = BaseOptions();
  McCuckooTable<uint64_t, uint64_t> walk(o);
  o.eviction_policy = EvictionPolicy::kMinCounter;
  McCuckooTable<uint64_t, uint64_t> min_counter(o);
  const size_t buckets = size_t{o.num_hashes} * o.buckets_per_table;
  const size_t words = (buckets * 5 + 63) / 64;
  EXPECT_EQ(min_counter.onchip_memory_bytes() - walk.onchip_memory_bytes(),
            words * sizeof(uint64_t));
}

}  // namespace
}  // namespace mccuckoo
