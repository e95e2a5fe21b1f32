// Differential testing: all four schemes process the *same* operation
// stream side by side and must agree with each other and with a reference
// model at every step — any divergence pinpoints the scheme and operation.
// Parameterized over op mixes, deletion modes, eviction policies and table
// pressure (overfull streams included).

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/baseline/cuckoo_table.h"
#include "src/core/blocked_mccuckoo_table.h"
#include "src/core/mccuckoo_table.h"
#include "src/core/sharded_mccuckoo.h"
#include "src/sim/schemes.h"
#include "src/sim/sweep.h"
#include "src/workload/keyset.h"
#include "src/workload/opstream.h"

namespace mccuckoo {
namespace {

struct Param {
  uint64_t total_slots;
  uint32_t maxloop;
  DeletionMode deletion_mode;
  EvictionPolicy eviction_policy;
  OpStreamConfig mix;
  uint64_t ops;
  const char* name;
};

std::string ParamName(const ::testing::TestParamInfo<Param>& info) {
  return info.param.name;
}

class DifferentialTest : public ::testing::TestWithParam<Param> {};

TEST_P(DifferentialTest, AllSchemesAgreeEverywhere) {
  const Param& p = GetParam();
  SchemeConfig c;
  c.total_slots = p.total_slots;
  c.maxloop = p.maxloop;
  c.deletion_mode = p.deletion_mode;
  c.eviction_policy = p.eviction_policy;
  c.seed = 0xD1FF;

  std::vector<std::unique_ptr<SchemeTable>> tables;
  for (SchemeKind kind : kAllSchemes) tables.push_back(MakeScheme(kind, c));
  std::unordered_map<uint64_t, uint64_t> model;

  const auto ops = GenerateOpStream(p.ops, p.mix);
  uint64_t step = 0;
  for (const Op& op : ops) {
    ++step;
    switch (op.kind) {
      case Op::Kind::kInsert:
        model[op.key] = ValueFor(op.key);
        for (size_t i = 0; i < tables.size(); ++i) {
          tables[i]->Insert(op.key, ValueFor(op.key));
        }
        break;
      case Op::Kind::kLookup: {
        const auto it = model.find(op.key);
        for (size_t i = 0; i < tables.size(); ++i) {
          uint64_t v = 0;
          const bool hit = tables[i]->Find(op.key, &v);
          ASSERT_EQ(hit, it != model.end())
              << SchemeName(kAllSchemes[i]) << " step " << step << " key "
              << op.key;
          if (hit) {
            ASSERT_EQ(v, it->second)
                << SchemeName(kAllSchemes[i]) << " step " << step;
          }
        }
        break;
      }
      case Op::Kind::kErase: {
        const bool in_model = model.erase(op.key) > 0;
        for (size_t i = 0; i < tables.size(); ++i) {
          ASSERT_EQ(tables[i]->Erase(op.key), in_model)
              << SchemeName(kAllSchemes[i]) << " step " << step;
        }
        break;
      }
    }
  }
  for (size_t i = 0; i < tables.size(); ++i) {
    EXPECT_EQ(tables[i]->TotalItems(), model.size())
        << SchemeName(kAllSchemes[i]);
    EXPECT_TRUE(tables[i]->ValidateInvariants().ok())
        << SchemeName(kAllSchemes[i]) << ": "
        << tables[i]->ValidateInvariants().ToString();
  }
}

// Policy differential against std::unordered_map for the BFS insert path.
// BCHT rejects kBfs, so this drives the supporting tables directly instead
// of through the all-schemes harness above.
template <typename Table>
void RunPolicyOracle(TableOptions o, uint64_t seed, uint64_t ops) {
  Table t(o);
  std::unordered_map<uint64_t, uint64_t> model;
  std::vector<uint64_t> live;
  Xoshiro256 rng(seed);
  uint64_t next_key = 0;
  for (uint64_t i = 0; i < ops; ++i) {
    const double u = rng.NextDouble();
    if (u < 0.50 || live.empty()) {
      const uint64_t k = SplitMix64((seed << 16) ^ next_key++);
      const uint64_t v = rng.Next();
      t.Insert(k, v);
      model.emplace(k, v);
      live.push_back(k);
    } else if (u < 0.65) {
      const size_t pick = rng.Below(live.size());
      ASSERT_TRUE(t.Erase(live[pick])) << "step " << i;
      model.erase(live[pick]);
      live[pick] = live.back();
      live.pop_back();
    } else {
      const uint64_t k = live[rng.Below(live.size())];
      uint64_t v = 0;
      ASSERT_TRUE(t.Find(k, &v)) << "step " << i << " key " << k;
      ASSERT_EQ(v, model[k]) << "step " << i;
    }
  }
  ASSERT_EQ(t.TotalItems(), model.size());
  for (const auto& [k, v] : model) {
    uint64_t got = 0;
    ASSERT_TRUE(t.Find(k, &got)) << k;
    ASSERT_EQ(got, v) << k;
  }
  EXPECT_TRUE(t.ValidateInvariants().ok()) << t.ValidateInvariants().ToString();
}

TableOptions BfsOracleOptions() {
  TableOptions o;
  o.buckets_per_table = 512;
  o.maxloop = 200;
  o.deletion_mode = DeletionMode::kResetCounters;
  o.eviction_policy = EvictionPolicy::kBfs;
  o.seed = 0xBF5;
  return o;
}

TEST(BfsDifferentialTest, McCuckooMatchesUnorderedMap) {
  // ~4000 ops at a 0.35 net-insert rate push the d=3, 512-bucket table to
  // roughly 90% load, right where the BFS path does all its work.
  RunPolicyOracle<McCuckooTable<uint64_t, uint64_t>>(BfsOracleOptions(),
                                                     0x7001, 4000);
}

TEST(BfsDifferentialTest, BlockedMatchesUnorderedMap) {
  TableOptions o = BfsOracleOptions();
  o.buckets_per_table = 192;
  o.slots_per_bucket = 3;
  RunPolicyOracle<BlockedMcCuckooTable<uint64_t, uint64_t>>(o, 0x7002, 4400);
}

TEST(BfsDifferentialTest, CuckooBaselineMatchesUnorderedMap) {
  RunPolicyOracle<CuckooTable<uint64_t, uint64_t>>(BfsOracleOptions(), 0x7003,
                                                   3600);
}

OpStreamConfig Mix(double ins, double look, double er, uint64_t seed) {
  OpStreamConfig m;
  m.insert_fraction = ins;
  m.lookup_fraction = look;
  m.erase_fraction = er;
  m.seed = seed;
  return m;
}

// Batch-vs-scalar differential: for every scheme, a batched instance
// replaying the same inserts/lookups through InsertBatch/FindBatch must
// produce identical results AND identical AccessStats — the batched paths
// only prefetch (a pure hint), they never change the algorithm. Chunk
// sizes are chosen to straddle the internal 64-key tile.
TEST(BatchDifferentialTest, BatchPathsMatchScalarBitForBit) {
  for (SchemeKind kind : kAllSchemes) {
    SchemeConfig c;
    c.total_slots = 9 * 512;
    c.maxloop = 200;
    c.seed = 0xD1FF;
    auto scalar = MakeScheme(kind, c);
    auto batched = MakeScheme(kind, c);

    const auto keys = MakeUniqueKeys(3700, 31, 0);
    const auto missing = MakeUniqueKeys(1200, 31, 7);
    std::vector<uint64_t> values(keys.size());
    for (size_t i = 0; i < keys.size(); ++i) values[i] = ValueFor(keys[i]);

    const size_t chunks[] = {1, 8, 37, 64, 129};
    size_t pos = 0, ci = 0;
    while (pos < keys.size()) {
      const size_t n = std::min(chunks[ci++ % 5], keys.size() - pos);
      std::vector<InsertResult> sr(n), br(n);
      for (size_t i = 0; i < n; ++i) {
        sr[i] = scalar->Insert(keys[pos + i], values[pos + i]);
      }
      batched->InsertBatch(std::span<const uint64_t>(&keys[pos], n),
                           std::span<const uint64_t>(&values[pos], n),
                           br.data());
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(sr[i], br[i]) << SchemeName(kind) << " insert " << pos + i;
      }
      ASSERT_EQ(scalar->stats(), batched->stats())
          << SchemeName(kind) << " stats diverged after insert chunk at "
          << pos;
      pos += n;
    }
    ASSERT_EQ(scalar->TotalItems(), batched->TotalItems()) << SchemeName(kind);

    std::vector<uint64_t> out(keys.size());
    std::vector<uint8_t> found(keys.size());
    const size_t hits = batched->FindBatch(
        std::span<const uint64_t>(keys.data(), keys.size()), out.data(),
        reinterpret_cast<bool*>(found.data()));
    EXPECT_EQ(hits, keys.size()) << SchemeName(kind);
    for (size_t i = 0; i < keys.size(); ++i) {
      uint64_t v = 0;
      ASSERT_TRUE(scalar->Find(keys[i], &v)) << SchemeName(kind) << " " << i;
      ASSERT_TRUE(found[i]) << SchemeName(kind) << " " << i;
      ASSERT_EQ(v, out[i]) << SchemeName(kind) << " " << i;
    }
    ASSERT_EQ(scalar->stats(), batched->stats())
        << SchemeName(kind) << " stats diverged after hit lookups";

    std::vector<uint8_t> miss_found(missing.size());
    EXPECT_EQ(batched->FindBatch(
                  std::span<const uint64_t>(missing.data(), missing.size()),
                  nullptr, reinterpret_cast<bool*>(miss_found.data())),
              0u)
        << SchemeName(kind);
    for (size_t i = 0; i < missing.size(); ++i) {
      ASSERT_FALSE(scalar->Find(missing[i], nullptr))
          << SchemeName(kind) << " " << i;
      ASSERT_FALSE(miss_found[i]) << SchemeName(kind) << " " << i;
    }
    ASSERT_EQ(scalar->stats(), batched->stats())
        << SchemeName(kind) << " stats diverged after miss lookups";
    EXPECT_TRUE(batched->ValidateInvariants().ok()) << SchemeName(kind);
  }
}

// Auto-growth differential: a growth-enabled table processing an op
// stream that pushes far past its initial capacity must agree with
// std::unordered_map at every step — growth rehashes in the middle of the
// stream (triggered by the stream itself, not by the test) must be
// invisible to callers. Run directly over both core tables and the
// sharded front-end, which grows each shard independently.
template <typename TableLike>
void RunGrowthOracle(TableLike& t, uint64_t seed, uint64_t initial_capacity,
                     uint64_t ops) {
  std::unordered_map<uint64_t, uint64_t> model;
  std::vector<uint64_t> live;
  Xoshiro256 rng(seed);
  uint64_t next_key = 0;
  for (uint64_t i = 0; i < ops; ++i) {
    const double u = rng.NextDouble();
    if (u < 0.55 || live.empty()) {
      const uint64_t k = SplitMix64((seed << 16) ^ next_key++);
      const uint64_t v = rng.Next();
      t.Insert(k, v);
      model.emplace(k, v);
      live.push_back(k);
    } else if (u < 0.70) {
      const size_t pick = rng.Below(live.size());
      ASSERT_TRUE(t.Erase(live[pick])) << "step " << i;
      model.erase(live[pick]);
      live[pick] = live.back();
      live.pop_back();
    } else {
      const uint64_t k = live[rng.Below(live.size())];
      uint64_t v = 0;
      ASSERT_TRUE(t.Find(k, &v)) << "step " << i << " key " << k;
      ASSERT_EQ(v, model[k]) << "step " << i;
    }
  }
  ASSERT_EQ(t.TotalItems(), model.size());
  for (const auto& [k, v] : model) {
    uint64_t got = 0;
    ASSERT_TRUE(t.Find(k, &got)) << k;
    ASSERT_EQ(got, v) << k;
  }
  // The stream's net insertions dwarf the initial capacity, so the agree-
  // at-every-step loop above must have crossed several growth commits.
  EXPECT_GT(t.TotalItems(), initial_capacity);
}

TableOptions GrowthOracleOptions() {
  TableOptions o;
  o.buckets_per_table = 128;
  o.maxloop = 100;
  o.deletion_mode = DeletionMode::kResetCounters;
  o.growth_enabled = true;
  return o;
}

TEST(GrowthDifferentialTest, SingleSlotMatchesUnorderedMap) {
  TableOptions o = GrowthOracleOptions();
  McCuckooTable<uint64_t, uint64_t> t(o);
  const uint64_t initial = t.capacity();
  RunGrowthOracle(t, 0x6001, initial, 30000);
  EXPECT_GT(t.growth_policy().attempts(), 0u);
  EXPECT_TRUE(t.CheckInvariants().ok()) << t.CheckInvariants().ToString();
}

TEST(GrowthDifferentialTest, BlockedMatchesUnorderedMap) {
  TableOptions o = GrowthOracleOptions();
  o.slots_per_bucket = 3;
  BlockedMcCuckooTable<uint64_t, uint64_t> t(o);
  const uint64_t initial = t.capacity();
  RunGrowthOracle(t, 0x6002, initial, 30000);
  EXPECT_GT(t.growth_policy().attempts(), 0u);
  EXPECT_TRUE(t.CheckInvariants().ok()) << t.CheckInvariants().ToString();
}

TEST(GrowthDifferentialTest, ShardedMatchesUnorderedMap) {
  ShardedMcCuckoo<McCuckooTable<uint64_t, uint64_t>> t(GrowthOracleOptions(),
                                                       /*num_shards=*/4);
  const uint64_t initial = t.capacity();
  RunGrowthOracle(t, 0x6003, initial, 30000);
  if constexpr (kMetricsEnabled) {
    EXPECT_GT(t.metrics_snapshot().growth_rehashes, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DifferentialTest,
    ::testing::Values(
        Param{9 * 512, 200, DeletionMode::kResetCounters,
              EvictionPolicy::kRandomWalk, Mix(0.3, 0.5, 0.1, 1), 15000,
              "churn_reset_walk"},
        Param{9 * 512, 200, DeletionMode::kTombstone,
              EvictionPolicy::kRandomWalk, Mix(0.3, 0.5, 0.1, 2), 15000,
              "churn_tombstone_walk"},
        Param{9 * 512, 200, DeletionMode::kResetCounters,
              EvictionPolicy::kMinCounter, Mix(0.3, 0.5, 0.1, 3), 15000,
              "churn_reset_mincounter"},
        Param{9 * 64, 20, DeletionMode::kResetCounters,
              EvictionPolicy::kRandomWalk, Mix(0.6, 0.3, 0.05, 4), 4000,
              "overfull_tiny_table"},
        Param{9 * 256, 100, DeletionMode::kResetCounters,
              EvictionPolicy::kRandomWalk, Mix(0.1, 0.6, 0.05, 5), 20000,
              "read_heavy"},
        Param{9 * 256, 100, DeletionMode::kTombstone,
              EvictionPolicy::kMinCounter, Mix(0.4, 0.2, 0.35, 6), 12000,
              "delete_heavy_tombstone"},
        Param{9 * 512, 200, DeletionMode::kResetCounters,
              EvictionPolicy::kBubble, Mix(0.3, 0.5, 0.1, 7), 15000,
              "churn_reset_bubble"},
        Param{9 * 64, 20, DeletionMode::kTombstone, EvictionPolicy::kBubble,
              Mix(0.6, 0.3, 0.05, 8), 4000, "overfull_bubble"}),
    ParamName);

}  // namespace
}  // namespace mccuckoo
