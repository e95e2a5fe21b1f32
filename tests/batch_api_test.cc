// Batched-operation API tests: the prefetch-pipelined batch paths must be
// *bit-identical* to their scalar equivalents — same results, same final
// table state, same AccessStats (prefetching is a pure hint) — across all
// four table types, all tile boundaries, and the sharded front-end.

#include <gtest/gtest.h>

#include <span>
#include <utility>
#include <vector>

#include "src/baseline/cuckoo_table.h"
#include "src/core/blocked_mccuckoo_table.h"
#include "src/core/mccuckoo_table.h"
#include "src/core/sharded_mccuckoo.h"
#include "src/workload/keyset.h"

namespace mccuckoo {
namespace {

uint64_t ValueOf(uint64_t key) { return key * 2654435761u + 1; }

template <typename T, uint32_t kSlotsPerBucket>
struct Cfg {
  using Table = T;
  static TableOptions Options() {
    TableOptions o;
    o.num_hashes = 3;
    o.buckets_per_table = kSlotsPerBucket == 1 ? 2048 : 700;
    o.slots_per_bucket = kSlotsPerBucket;
    o.maxloop = 200;
    o.seed = 0xBA7C4;
    return o;
  }
};

// The paper's BCHT comparator: CuckooTable with 3-slot buckets. A name of
// its own keeps its typed-test id apart from the l = 1 CuckooTable case,
// since both would otherwise print as Cfg<CuckooTable<...>, ...>.
template <typename T>
struct BchtCfg : Cfg<T, 3> {};

using K = uint64_t;
using V = uint64_t;
using AllTables =
    ::testing::Types<Cfg<CuckooTable<K, V>, 1>, Cfg<McCuckooTable<K, V>, 1>,
                     BchtCfg<CuckooTable<K, V>>,
                     Cfg<BlockedMcCuckooTable<K, V>, 3>>;

template <typename C>
class BatchApiTest : public ::testing::Test {};
TYPED_TEST_SUITE(BatchApiTest, AllTables);

// Drives a scalar and a batched instance through identical insert + lookup
// phases in chunks that straddle the kBatchTile boundary (1, 37, 64, 129)
// and asserts identical results, state, and access accounting throughout.
TYPED_TEST(BatchApiTest, MatchesScalarResultsStateAndStats) {
  using Table = typename TypeParam::Table;
  Table scalar(TypeParam::Options());
  Table batched(TypeParam::Options());

  const auto keys = MakeUniqueKeys(4400, 11, 0);
  const auto missing = MakeUniqueKeys(1500, 11, 7);
  std::vector<uint64_t> values(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) values[i] = ValueOf(keys[i]);

  const size_t chunks[] = {1, 37, 64, 129};
  size_t pos = 0, c = 0;
  while (pos < keys.size()) {
    const size_t n = std::min(chunks[c++ % 4], keys.size() - pos);
    std::vector<InsertResult> scalar_r(n), batch_r(n);
    for (size_t i = 0; i < n; ++i) {
      scalar_r[i] = scalar.Insert(keys[pos + i], values[pos + i]);
    }
    batched.InsertBatch(std::span<const K>(&keys[pos], n),
                        std::span<const V>(&values[pos], n), batch_r.data());
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(scalar_r[i], batch_r[i]) << "insert " << pos + i;
    }
    ASSERT_EQ(scalar.stats(), batched.stats()) << "after insert chunk " << pos;
    pos += n;
  }
  ASSERT_EQ(scalar.size(), batched.size());
  ASSERT_EQ(scalar.stash_size(), batched.stash_size());

  // Lookup-hit phase.
  std::vector<V> batch_out(keys.size());
  std::vector<uint8_t> batch_found(keys.size());
  const size_t hits =
      batched.FindBatch(std::span<const K>(keys.data(), keys.size()),
                        batch_out.data(),
                        reinterpret_cast<bool*>(batch_found.data()));
  EXPECT_EQ(hits, keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    V v = 0;
    ASSERT_TRUE(scalar.Find(keys[i], &v)) << i;
    ASSERT_TRUE(batch_found[i]) << i;
    ASSERT_EQ(v, batch_out[i]) << i;
  }
  ASSERT_EQ(scalar.stats(), batched.stats()) << "after hit lookups";

  // Lookup-miss phase.
  std::vector<uint8_t> miss_found(missing.size());
  const size_t false_hits = batched.FindBatch(
      std::span<const K>(missing.data(), missing.size()), nullptr,
      reinterpret_cast<bool*>(miss_found.data()));
  EXPECT_EQ(false_hits, 0u);
  for (size_t i = 0; i < missing.size(); ++i) {
    ASSERT_FALSE(scalar.Find(missing[i], nullptr)) << i;
    ASSERT_FALSE(miss_found[i]) << i;
  }
  ASSERT_EQ(scalar.stats(), batched.stats()) << "after miss lookups";

  EXPECT_TRUE(batched.ValidateInvariants().ok());
}

TYPED_TEST(BatchApiTest, FindBatchWithoutValuesAndEdgeCases) {
  using Table = typename TypeParam::Table;
  Table t(TypeParam::Options());
  const auto keys = MakeUniqueKeys(500, 12, 0);
  std::vector<uint64_t> values(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) values[i] = ValueOf(keys[i]);
  // results == nullptr is allowed.
  t.InsertBatch(std::span<const K>(keys.data(), keys.size()),
                std::span<const V>(values.data(), values.size()));
  EXPECT_EQ(t.size() + t.stash_size(), keys.size());

  std::vector<uint8_t> found(keys.size());
  EXPECT_EQ(t.FindBatch(std::span<const K>(keys.data(), keys.size()), nullptr,
                        reinterpret_cast<bool*>(found.data())),
            keys.size());
  for (uint8_t f : found) EXPECT_TRUE(f);

  // Empty batch is a no-op; out may be nullptr.
  EXPECT_EQ(t.FindBatch(std::span<const K>(), nullptr, nullptr), 0u);
  t.InsertBatch(std::span<const K>(), std::span<const V>());
  EXPECT_EQ(t.FindBatch(std::span<const K>(keys.data(), 3), nullptr, nullptr),
            3u);
}

template <typename Table>
void ExpectNoStatsBatchAgrees(uint32_t slots_per_bucket) {
  TableOptions o;
  o.buckets_per_table = slots_per_bucket == 1 ? 2048 : 700;
  o.slots_per_bucket = slots_per_bucket;
  o.maxloop = 200;
  o.deletion_mode = DeletionMode::kResetCounters;
  Table t(o);
  const auto keys = MakeUniqueKeys(4000, 13, 0);
  for (uint64_t k : keys) t.Insert(k, ValueOf(k));
  for (size_t i = 0; i < 800; ++i) t.Erase(keys[i]);
  const auto missing = MakeUniqueKeys(2000, 13, 7);

  t.ResetStats();
  auto check = [&](const std::vector<uint64_t>& probe) {
    std::vector<uint64_t> out(probe.size());
    std::vector<uint8_t> found(probe.size());
    const size_t hits = t.FindBatchNoStats(
        std::span<const uint64_t>(probe.data(), probe.size()), out.data(),
        reinterpret_cast<bool*>(found.data()));
    size_t expected_hits = 0;
    for (size_t i = 0; i < probe.size(); ++i) {
      uint64_t v = 0;
      const bool hit = t.FindNoStats(probe[i], &v);
      ASSERT_EQ(hit, found[i] != 0) << probe[i];
      if (hit) {
        ASSERT_EQ(v, out[i]) << probe[i];
        ++expected_hits;
      }
    }
    EXPECT_EQ(hits, expected_hits);
  };
  check(keys);
  check(missing);
  // The no-stats batch path must not have charged anything.
  EXPECT_EQ(t.stats().offchip_reads, 0u);
  EXPECT_EQ(t.stats().onchip_reads, 0u);
}

TEST(FindBatchNoStatsTest, SingleSlotAgreesAndMutatesNothing) {
  ExpectNoStatsBatchAgrees<McCuckooTable<K, V>>(1);
}

TEST(FindBatchNoStatsTest, BlockedAgreesAndMutatesNothing) {
  ExpectNoStatsBatchAgrees<BlockedMcCuckooTable<K, V>>(3);
}

// Growth that fires inside an InsertBatch tile replaces the geometry and
// the hash seeds, so the tile's remaining staged candidates must be
// re-derived. Since ShardedMcCuckoo::InsertBatch is a loop of Inserts, only
// direct table callers run this path. The batch must match scalar Inserts
// of the same keys exactly: per-key results, AccessStats, capacity and the
// item stream, with every invariant intact.
template <typename Table>
void InsertBatchRestagesAfterMidTileGrowth(uint32_t slots_per_bucket) {
  TableOptions o;
  o.num_hashes = 3;
  o.slots_per_bucket = slots_per_bucket;
  o.buckets_per_table = 64 / slots_per_bucket;
  o.seed = 0x6A0;
  o.growth_enabled = true;
  Table scalar(o);
  Table batched(o);
  const auto keys = MakeUniqueKeys(3000, 31, 0);
  std::vector<V> values(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) values[i] = ValueOf(keys[i]);

  std::vector<InsertResult> scalar_r(keys.size()), batch_r(keys.size());
  size_t mid_tile_growths = 0;
  for (size_t i = 0; i < keys.size(); ++i) {
    const uint64_t capacity = scalar.capacity();
    scalar_r[i] = scalar.Insert(keys[i], values[i]);
    // A growth after the tile's last key leaves nothing to re-stage.
    if (scalar.capacity() != capacity &&
        i % Table::kBatchTile + 1 < Table::kBatchTile) {
      ++mid_tile_growths;
    }
  }
  ASSERT_GT(mid_tile_growths, 0u);
  batched.InsertBatch(keys, values, batch_r.data());

  EXPECT_EQ(scalar_r, batch_r);
  EXPECT_EQ(scalar.stats(), batched.stats());
  EXPECT_EQ(scalar.capacity(), batched.capacity());
  const auto items = [](const Table& t) {
    std::vector<std::pair<K, V>> out;
    t.ForEachItem([&](K k, V v) { out.emplace_back(k, v); });
    return out;
  };
  EXPECT_EQ(items(scalar), items(batched));
  const Status st = batched.CheckInvariants();
  EXPECT_TRUE(st.ok()) << st.message();
}

TEST(InsertBatchGrowthTest, RestagesAfterMidTileGrowth) {
  InsertBatchRestagesAfterMidTileGrowth<McCuckooTable<K, V>>(1);
}

TEST(InsertBatchGrowthTest, RestagesAfterMidTileGrowthBlocked) {
  InsertBatchRestagesAfterMidTileGrowth<BlockedMcCuckooTable<K, V>>(3);
}

// --- ShardedMcCuckoo ------------------------------------------------------

TableOptions ShardedOptions() {
  TableOptions o;
  o.num_hashes = 3;
  o.buckets_per_table = 8192;
  o.slots_per_bucket = 1;
  o.maxloop = 200;
  o.seed = 0x5AAD;
  o.deletion_mode = DeletionMode::kResetCounters;
  return o;
}

TEST(ShardedMcCuckooTest, ScalarAndBatchOpsAgree) {
  ShardedMcCuckoo<McCuckooTable<K, V>> table(ShardedOptions(), 8);
  EXPECT_EQ(table.num_shards(), 8u);

  const auto keys = MakeUniqueKeys(10000, 21, 0);
  std::vector<uint64_t> values(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) values[i] = ValueOf(keys[i]);

  std::vector<InsertResult> results(keys.size());
  table.InsertBatch(std::span<const K>(keys.data(), keys.size()),
                    std::span<const V>(values.data(), values.size()),
                    results.data());
  EXPECT_EQ(table.TotalItems(), keys.size());
  EXPECT_GT(table.load_factor(), 0.0);

  // Batch lookups agree with scalar lookups, positionally.
  std::vector<uint64_t> out(keys.size());
  std::vector<uint8_t> found(keys.size());
  EXPECT_EQ(table.FindBatch(std::span<const K>(keys.data(), keys.size()),
                            out.data(),
                            reinterpret_cast<bool*>(found.data())),
            keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    uint64_t v = 0;
    ASSERT_TRUE(table.Find(keys[i], &v)) << i;
    ASSERT_TRUE(found[i]) << i;
    ASSERT_EQ(v, out[i]) << i;
    ASSERT_EQ(v, values[i]) << i;
  }

  const auto missing = MakeUniqueKeys(3000, 21, 7);
  std::vector<uint8_t> miss_found(missing.size());
  EXPECT_EQ(
      table.FindBatch(std::span<const K>(missing.data(), missing.size()),
                      nullptr, reinterpret_cast<bool*>(miss_found.data())),
      0u);
  for (uint8_t f : miss_found) EXPECT_FALSE(f);

  // Erase via routing; re-insert via scalar path.
  for (size_t i = 0; i < 500; ++i) EXPECT_TRUE(table.Erase(keys[i])) << i;
  EXPECT_EQ(table.TotalItems(), keys.size() - 500);
  for (size_t i = 0; i < 500; ++i) {
    table.Insert(keys[i], values[i]);
  }
  EXPECT_EQ(table.TotalItems(), keys.size());
  EXPECT_EQ(table.InsertOrAssign(keys[0], 77u), InsertResult::kUpdated);
  uint64_t v = 0;
  ASSERT_TRUE(table.Find(keys[0], &v));
  EXPECT_EQ(v, 77u);
}

TEST(ShardedMcCuckooTest, RoutingCoversAllShardsAndStatsMerge) {
  ShardedMcCuckoo<McCuckooTable<K, V>> table(ShardedOptions(), 8);
  const auto keys = MakeUniqueKeys(8000, 22, 0);
  std::vector<uint64_t> values(keys.begin(), keys.end());
  table.InsertBatch(std::span<const K>(keys.data(), keys.size()),
                    std::span<const V>(values.data(), values.size()));

  size_t nonempty = 0, total = 0;
  for (size_t s = 0; s < table.num_shards(); ++s) {
    const size_t n = table.WithExclusiveShard(
        s, [](McCuckooTable<K, V>& t) { return t.TotalItems(); });
    total += n;
    if (n > 0) ++nonempty;
    EXPECT_TRUE(table.WithExclusiveShard(s, [](McCuckooTable<K, V>& t) {
      return t.ValidateInvariants();
    }).ok()) << "shard " << s;
  }
  EXPECT_EQ(nonempty, table.num_shards());  // top-bit routing spreads keys
  EXPECT_EQ(total, keys.size());
  EXPECT_EQ(table.size() + table.stash_size(), keys.size());

  // The merged snapshot equals the sum of per-shard metrics.
  MetricsSnapshot sum;
  for (size_t s = 0; s < table.num_shards(); ++s) {
    sum += table.shard_metrics_snapshot(s);
  }
  EXPECT_EQ(table.metrics_snapshot(), sum);
  if constexpr (kMetricsEnabled) {
    EXPECT_EQ(sum.inserts, keys.size());
  }
}

TEST(ShardedMcCuckooTest, SingleShardDegeneratesCleanly) {
  ShardedMcCuckoo<BlockedMcCuckooTable<K, V>> table(
      [] {
        TableOptions o = ShardedOptions();
        o.slots_per_bucket = 3;
        o.buckets_per_table = 2048;
        return o;
      }(),
      1);
  EXPECT_EQ(table.num_shards(), 1u);
  const auto keys = MakeUniqueKeys(3000, 23, 0);
  std::vector<uint64_t> values(keys.begin(), keys.end());
  table.InsertBatch(std::span<const K>(keys.data(), keys.size()),
                    std::span<const V>(values.data(), values.size()));
  std::vector<uint8_t> found(keys.size());
  EXPECT_EQ(table.FindBatch(std::span<const K>(keys.data(), keys.size()),
                            nullptr, reinterpret_cast<bool*>(found.data())),
            keys.size());
  EXPECT_EQ(table.TotalItems(), keys.size());
}

}  // namespace
}  // namespace mccuckoo
