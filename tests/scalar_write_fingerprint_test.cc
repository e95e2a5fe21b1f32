// Exact behaviour pins for the scalar write entry points of the two
// multi-copy tables: single-writer Insert / InsertOrAssign / Erase on
// McCuckooTable (l = 1) and BlockedMcCuckooTable (l = 3) under random-walk
// and BFS eviction, and one-thread multi-writer sequences through
// ShardedMcCuckoo (the cache store's configuration, pre-sized and growing).
// Every case fills a small d = 3 table to ~0.95 load, overfills it into the
// stash, updates a third of the keys in place, erases half of them and
// refills, then compares what the run produced against values recorded
// once. Scalar writes prefetch their candidate lines before they start;
// these pins prove the prefetch never became an algorithmic read: any
// change to what is read, charged, placed or kicked shows up here. A final
// lookup phase (single-writer tables) pins what Find reads and charges over
// present, erased and never-inserted keys.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <ostream>
#include <string>
#include <vector>

#include "src/core/blocked_mccuckoo_table.h"
#include "src/core/mccuckoo_table.h"
#include "src/core/sharded_mccuckoo.h"
#include "src/hash/hashers.h"
#include "src/obs/metrics.h"
#include "src/workload/keyset.h"

namespace mccuckoo {
namespace {

void FnvMix(uint64_t* h, uint64_t word) {
  for (int i = 0; i < 8; ++i) {
    *h ^= (word >> (8 * i)) & 0xFF;
    *h *= 0x100000001B3ull;
  }
}

constexpr uint64_t kFnvBasis = 0xCBF29CE484222325ull;

/// Tallies write outcomes by InsertResult (inserted, updated, stashed,
/// failed).
struct ResultCounts {
  std::array<uint64_t, 4> n{};
  void Add(InsertResult r) { ++n[static_cast<size_t>(r)]; }
  bool operator==(const ResultCounts&) const = default;
};

std::string StatsInit(const AccessStats& s) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "{%llu, %llu, %llu, %llu, %llu, %llu}",
                static_cast<unsigned long long>(s.offchip_reads),
                static_cast<unsigned long long>(s.offchip_writes),
                static_cast<unsigned long long>(s.onchip_reads),
                static_cast<unsigned long long>(s.onchip_writes),
                static_cast<unsigned long long>(s.kickouts),
                static_cast<unsigned long long>(s.stash_probes));
  return buf;
}

std::string CountsInit(const ResultCounts& c) {
  return "{{" + std::to_string(c.n[0]) + ", " + std::to_string(c.n[1]) +
         ", " + std::to_string(c.n[2]) + ", " + std::to_string(c.n[3]) + "}}";
}

std::string Hex(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%016llxull",
                static_cast<unsigned long long>(v));
  return buf;
}

// --- Single-writer tables ---------------------------------------------------

/// Everything one single-writer run is compared on.
struct Fingerprint {
  AccessStats fill, assign, erase, refill;  // per phase, not cumulative
  ResultCounts results;  // every Insert / InsertOrAssign outcome
  uint64_t erase_hits, size, stash_size;
  uint64_t items_fnv;  // ForEachItem (key, value) stream
  // Lookup phase: Find over present, erased and never-inserted keys.
  AccessStats lookup;
  uint64_t lookup_hits;
  uint64_t lookup_probes;  // lookup_probes.sum; 0 under -DMCCUCKOO_NO_METRICS

  bool operator==(const Fingerprint&) const = default;
};

/// The fingerprint as the initializer that would expect it, so a
/// deliberate behaviour change can be pasted back into kExpected.
std::string Initializer(const Fingerprint& f) {
  return "{" + StatsInit(f.fill) + ", " + StatsInit(f.assign) + ", " +
         StatsInit(f.erase) + ", " + StatsInit(f.refill) + ", " +
         CountsInit(f.results) + ", " + std::to_string(f.erase_hits) + ", " +
         std::to_string(f.size) + ", " + std::to_string(f.stash_size) + ", " +
         Hex(f.items_fnv) + ", " + StatsInit(f.lookup) + ", " +
         std::to_string(f.lookup_hits) + ", " +
         std::to_string(f.lookup_probes) + "}";
}

template <typename Table>
Fingerprint RunSingleWriter(uint32_t slots_per_bucket, EvictionPolicy policy) {
  TableOptions o;
  o.num_hashes = 3;
  o.slots_per_bucket = slots_per_bucket;
  o.buckets_per_table = 1200 / (3 * slots_per_bucket);
  o.maxloop = 60;
  o.seed = 0x5CA1A7;
  o.eviction_policy = policy;
  o.deletion_mode = DeletionMode::kResetCounters;
  Table t(o);
  Fingerprint f{};
  const uint64_t cap = t.capacity();

  // Fill to ~0.95 with Insert.
  const std::vector<uint64_t> keys = MakeUniqueKeys(cap, 11, 0);
  const size_t n = static_cast<size_t>(cap * 95 / 100);
  for (size_t i = 0; i < n; ++i) f.results.Add(t.Insert(keys[i], keys[i] ^ 1));
  f.fill = t.stats();

  // InsertOrAssign: update every third key (main table or stash), then
  // overfill with fresh keys so the stash takes some.
  AccessStats before = t.stats();
  for (size_t i = 0; i < n; i += 3) {
    f.results.Add(t.InsertOrAssign(keys[i], keys[i] ^ 2));
  }
  const std::vector<uint64_t> extra = MakeUniqueKeys(cap / 16, 11, 1);
  for (uint64_t k : extra) f.results.Add(t.InsertOrAssign(k, k ^ 3));
  f.assign = t.stats() - before;

  // Erase every other key from the back, the overfill, and absent keys.
  before = t.stats();
  for (size_t i = n; i-- > 0;) {
    if (i % 2 == 1) f.erase_hits += t.Erase(keys[i]) ? 1 : 0;
  }
  for (uint64_t k : extra) f.erase_hits += t.Erase(k) ? 1 : 0;
  for (uint64_t k : MakeUniqueKeys(16, 11, 2)) {
    f.erase_hits += t.Erase(k) ? 1 : 0;
  }
  f.erase = t.stats() - before;

  // Refill through InsertOrAssign into the freed slots.
  before = t.stats();
  const std::vector<uint64_t> refill = MakeUniqueKeys(cap / 3, 11, 3);
  for (uint64_t k : refill) f.results.Add(t.InsertOrAssign(k, k ^ 4));
  f.refill = t.stats() - before;

  // Look every key up once: the original keys (half of them erased), the
  // erased overfill, the refill, and keys never inserted.
  before = t.stats();
  t.ResetMetrics();
  std::vector<uint64_t> queries(keys.begin(), keys.begin() + n);
  queries.insert(queries.end(), extra.begin(), extra.end());
  queries.insert(queries.end(), refill.begin(), refill.end());
  const std::vector<uint64_t> absent = MakeUniqueKeys(cap / 4, 11, 4);
  queries.insert(queries.end(), absent.begin(), absent.end());
  for (uint64_t k : queries) f.lookup_hits += t.Find(k) ? 1 : 0;
  f.lookup = t.stats() - before;
  f.lookup_probes = t.SnapshotMetrics().lookup_probes.sum;

  f.size = t.size();
  f.stash_size = t.stash_size();
  f.items_fnv = kFnvBasis;
  t.ForEachItem([&](uint64_t k, uint64_t v) {
    FnvMix(&f.items_fnv, k);
    FnvMix(&f.items_fnv, v);
  });
  EXPECT_TRUE(t.CheckInvariants().ok());
  return f;
}

enum class Layout { kMcCuckoo, kBlocked };

struct Case {
  Layout layout;
  EvictionPolicy policy;
};

struct Expected {
  Case c;
  Fingerprint f;
};

constexpr EvictionPolicy kWalk = EvictionPolicy::kRandomWalk;
constexpr EvictionPolicy kBfs = EvictionPolicy::kBfs;

const Expected kExpected[] = {
    {{Layout::kMcCuckoo, kWalk},
     {{3399, 4443, 23844, 2342, 2682, 0},
      {4364, 4056, 23122, 27, 3424, 8},
      {1180, 40, 3193, 612, 0, 44},
      {987, 721, 4446, 656, 167, 58},
      {{1537, 380, 78, 0}}, 645, 932, 38, 0x281de225263bc33dull,
      {3884, 0, 5745, 0, 0, 157}, 970, 3727}},
    {{Layout::kMcCuckoo, kBfs},
     {{2038, 1980, 10096, 2342, 219, 0},
      {1364, 637, 3391, 23, 1, 4},
      {1187, 71, 3131, 582, 0, 76},
      {1073, 639, 3878, 631, 104, 55},
      {{1535, 380, 80, 0}}, 645, 961, 9, 0xd8395fbb694a58bdull,
      {3974, 0, 5745, 0, 0, 130}, 970, 3844}},
    {{Layout::kBlocked, kWalk},
     {{1427, 1901, 23889, 2778, 23, 0},
      {2453, 1948, 34381, 113, 1425, 0},
      {1318, 6, 10374, 636, 0, 6},
      {1376, 708, 10083, 917, 5, 2},
      {{1593, 379, 17, 0}}, 642, 957, 11, 0xca8e53306828a1e4ull,
      {4651, 0, 17181, 0, 0, 18}, 968, 4633}},
    {{Layout::kBlocked, kBfs},
     {{1429, 1892, 23492, 2778, 14, 0},
      {1726, 578, 12664, 109, 49, 0},
      {1345, 19, 10283, 624, 0, 19},
      {1390, 702, 10206, 928, 2, 0},
      {{1591, 379, 19, 0}}, 642, 968, 0, 0xdba0af103670e5a4ull,
      {4624, 0, 17181, 0, 0, 0}, 968, 4624}},
};

std::string CaseName(const Case& c) {
  return std::string(c.layout == Layout::kMcCuckoo ? "McCuckoo_" : "Blocked_") +
         EvictionPolicyToString(c.policy);
}

void PrintTo(const Expected& e, std::ostream* os) { *os << CaseName(e.c); }

class ScalarWriteFingerprintTest : public ::testing::TestWithParam<Expected> {};

TEST_P(ScalarWriteFingerprintTest, MatchesRecordedRun) {
  const Case& c = GetParam().c;
  Fingerprint want = GetParam().f;
  if constexpr (!kMetricsEnabled) want.lookup_probes = 0;
  const Fingerprint got =
      c.layout == Layout::kMcCuckoo
          ? RunSingleWriter<McCuckooTable<uint64_t, uint64_t>>(1, c.policy)
          : RunSingleWriter<BlockedMcCuckooTable<uint64_t, uint64_t>>(
                3, c.policy);
  EXPECT_GT(got.results.n[static_cast<size_t>(InsertResult::kStashed)], 0u);
  EXPECT_GT(got.results.n[static_cast<size_t>(InsertResult::kUpdated)], 0u);
  EXPECT_TRUE(got == want) << CaseName(c) << "\n  want " << Initializer(want)
                           << "\n  got  " << Initializer(got);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ScalarWriteFingerprintTest, ::testing::ValuesIn(kExpected),
    [](const ::testing::TestParamInfo<Expected>& info) {
      return CaseName(info.param.c);
    });

// --- One-thread multi-writer ShardedMcCuckoo --------------------------------

/// What one multi-writer run is compared on. The metric fields read 0
/// under -DMCCUCKOO_NO_METRICS.
struct MultiWriterFingerprint {
  ResultCounts results;
  uint64_t erase_hits, items, stash_size;
  uint64_t inserts, bfs_nodes_expanded, kick_chain_sum;
  uint64_t items_fnv;  // per shard in shard order: ForEachItem stream

  bool operator==(const MultiWriterFingerprint&) const = default;
};

std::string Initializer(const MultiWriterFingerprint& f) {
  return "{" + CountsInit(f.results) + ", " + std::to_string(f.erase_hits) +
         ", " + std::to_string(f.items) + ", " + std::to_string(f.stash_size) +
         ", " + std::to_string(f.inserts) + ", " +
         std::to_string(f.bfs_nodes_expanded) + ", " +
         std::to_string(f.kick_chain_sum) + ", " + Hex(f.items_fnv) + "}";
}

/// The cache store's table configuration (d = 3, kResetCounters, stash on,
/// optimistic reads, multi-writer) on two shards, either pre-sized to
/// 2400 slots with growth off or growing from 192 slots.
MultiWriterFingerprint RunMultiWriter(bool growth) {
  using Table = McCuckooTable<uint64_t, uint64_t, XxHasher>;
  TableOptions o;
  o.num_hashes = 3;
  o.buckets_per_table = growth ? 64 : 800;
  o.seed = 0x5EEDCAFE;
  o.deletion_mode = DeletionMode::kResetCounters;
  o.growth_enabled = growth;
  ShardedMcCuckoo<Table> t(o, 2);
  MultiWriterFingerprint f{};
  const size_t n = 2400 * 95 / 100;
  const std::vector<uint64_t> keys = MakeUniqueKeys(n, 13, 0);
  // Alternate the two insert entry points over the fill.
  for (size_t i = 0; i < n; ++i) {
    f.results.Add(i % 2 == 0 ? t.InsertOrAssign(keys[i], keys[i] ^ 1)
                             : t.Insert(keys[i], keys[i] ^ 1));
  }
  for (uint64_t k : MakeUniqueKeys(150, 13, 1)) {
    f.results.Add(t.InsertOrAssign(k, k ^ 3));
  }
  uint64_t previous = 0;
  for (size_t i = 0; i < n; i += 3) {
    f.results.Add(t.InsertOrAssign(keys[i], keys[i] ^ 2, &previous));
    EXPECT_EQ(previous, keys[i] ^ 1);
  }
  for (size_t i = n; i-- > 0;) {
    if (i % 2 == 1) f.erase_hits += t.Erase(keys[i]) ? 1 : 0;
  }
  for (uint64_t k : MakeUniqueKeys(16, 13, 2)) {
    f.erase_hits += t.Erase(k) ? 1 : 0;
  }
  for (uint64_t k : MakeUniqueKeys(800, 13, 3)) {
    f.results.Add(t.InsertOrAssign(k, k ^ 4));
  }

  f.items = t.TotalItems();
  f.stash_size = t.stash_size();
  const MetricsSnapshot m = t.metrics_snapshot();
  f.inserts = m.inserts;
  f.bfs_nodes_expanded = m.bfs_nodes_expanded;
  f.kick_chain_sum = m.kick_chain_len.sum;
  f.items_fnv = kFnvBasis;
  for (size_t s = 0; s < t.num_shards(); ++s) {
    const Status st = t.WithExclusiveShard(s, [&](Table& table) {
      table.ForEachItem([&](uint64_t k, uint64_t v) {
        FnvMix(&f.items_fnv, k);
        FnvMix(&f.items_fnv, v);
      });
      return table.CheckInvariants();
    });
    EXPECT_TRUE(st.ok()) << st.message();
  }
  return f;
}

struct MultiWriterExpected {
  bool growth;
  MultiWriterFingerprint f;
};

const MultiWriterExpected kMultiWriterExpected[] = {
    {false,
     {{{3060, 760, 170, 0}}, 1140, 2090, 139, 3230, 10444, 672,
      0xac699f6858795bf5ull}},
    {true,
     {{{3230, 760, 0, 0}}, 1140, 2090, 0, 3230, 2342, 798,
      0xfe6f4b4c1e4b4f75ull}},
};

std::string CaseName(const MultiWriterExpected& e) {
  return e.growth ? "growing" : "presized";
}

void PrintTo(const MultiWriterExpected& e, std::ostream* os) {
  *os << CaseName(e);
}

class MultiWriterFingerprintTest
    : public ::testing::TestWithParam<MultiWriterExpected> {};

TEST_P(MultiWriterFingerprintTest, MatchesRecordedRun) {
  MultiWriterFingerprint want = GetParam().f;
  const MultiWriterFingerprint got = RunMultiWriter(GetParam().growth);
  if constexpr (!kMetricsEnabled) {
    want.inserts = want.bfs_nodes_expanded = want.kick_chain_sum = 0;
  }
  EXPECT_TRUE(got == want) << CaseName(GetParam()) << "\n  want "
                           << Initializer(want) << "\n  got  "
                           << Initializer(got);
}

INSTANTIATE_TEST_SUITE_P(
    Store, MultiWriterFingerprintTest,
    ::testing::ValuesIn(kMultiWriterExpected),
    [](const ::testing::TestParamInfo<MultiWriterExpected>& info) {
      return CaseName(info.param);
    });

}  // namespace
}  // namespace mccuckoo
