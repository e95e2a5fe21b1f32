// Soak, acceptance and unit tests for the load-adaptive auto-growth
// engine (src/core/growth.h):
//  * GrowthPolicy unit tests — trigger/reseed/backoff/suppression state
//    machine on the shipped constants, no table involved (the policy is
//    pure bookkeeping, so even the size cap and the backoff ceiling are
//    reachable without memory);
//  * soak property test — both core tables inserting far past their
//    initial capacity with random interleaved erases; after every growth
//    step each live key must be findable with its exact value, visible in
//    AccessStats (the verification sweep charges reads), and the debug
//    invariant sweep must pass;
//  * the PR's acceptance workloads — 8x initial capacity with growth on
//    (zero user-visible failures, load factor back in the target band)
//    and the same push with growth off (stash-backed degradation plus the
//    growth_suppressed gauge, never an error);
//  * grow-path selection — McCuckooTable splits buckets under the same
//    seed only for kResetCounters, and every other table keeps the
//    seed-rotating rebuild;
//  * exporter checks — the growth counters and the rehash-duration
//    histogram appear in the Prometheus, JSON and flat-map exporters.
// All seeds are fixed (src/common/rng.h) so failures replay exactly.

#include <gtest/gtest.h>

#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/rng.h"
#include "src/core/blocked_mccuckoo_table.h"
#include "src/core/growth.h"
#include "src/core/mccuckoo_table.h"
#include "src/obs/export.h"

namespace mccuckoo {
namespace {

// --- GrowthPolicy unit tests ----------------------------------------------

void FeedHardInserts(GrowthPolicy& p, int n) {
  for (int i = 0; i < n; ++i) p.ObserveInsert(/*overflowed=*/true, 0, 100);
}

TEST(GrowthPolicyTest, NoPressureNoAction) {
  GrowthPolicy p(/*enabled=*/true);
  const GrowthDecision d = p.Decide({/*total_items=*/10, /*capacity=*/100,
                                     /*stash_items=*/0, /*buckets=*/32});
  EXPECT_EQ(d.action, GrowthAction::kNone);
  EXPECT_FALSE(p.suppressed());
}

TEST(GrowthPolicyTest, DisabledPressureSuppresses) {
  GrowthPolicy p(/*enabled=*/false);
  const GrowthDecision d =
      p.Decide({/*total_items=*/95, /*capacity=*/100, 0, 32});
  EXPECT_EQ(d.action, GrowthAction::kSuppressed);
  EXPECT_TRUE(p.suppressed());
}

TEST(GrowthPolicyTest, LoadFactorTriggersGrow) {
  GrowthPolicy p(/*enabled=*/true);
  // 85 of 100 is at the ceiling, not over it.
  EXPECT_EQ(p.Decide({/*total_items=*/85, /*capacity=*/100, 0, 32}).action,
            GrowthAction::kNone);
  const GrowthDecision d =
      p.Decide({/*total_items=*/86, /*capacity=*/100, 0, /*buckets=*/32});
  EXPECT_EQ(d.action, GrowthAction::kGrow);
  EXPECT_EQ(d.new_buckets_per_table, 32 * kGrowthFactor);
}

TEST(GrowthPolicyTest, StashPressureReseedsBeforeGrowing) {
  GrowthPolicy p(/*enabled=*/true);
  // Stash above the soft limit but load factor healthy: rotate the seed
  // at the current size first.
  EXPECT_EQ(p.Decide({40, 100, kGrowthStashSoftLimit, 32}).action,
            GrowthAction::kNone);
  const GrowthInputs in{/*total_items=*/40, /*capacity=*/100,
                        /*stash_items=*/kGrowthStashSoftLimit + 1,
                        /*buckets=*/32};
  GrowthDecision d = p.Decide(in);
  EXPECT_EQ(d.action, GrowthAction::kReseed);
  EXPECT_EQ(d.new_buckets_per_table, 32u);
  p.OnRehashSuccess(GrowthAction::kReseed);
  EXPECT_EQ(p.reseeds_at_size(), 1u);

  // Still cooling down: no action even though pressure persists.
  FeedHardInserts(p, 1);
  EXPECT_EQ(p.Decide(in).action, GrowthAction::kNone);

  // Once the backoff window passes and the reseed quota is spent, the
  // same pressure escalates to a capacity grow.
  EXPECT_EQ(p.backoff_window(), 2 * kGrowthBackoffInitialInserts);
  FeedHardInserts(p, static_cast<int>(p.backoff_window()));
  d = p.Decide(in);
  EXPECT_EQ(d.action, GrowthAction::kGrow);
  EXPECT_EQ(d.new_buckets_per_table, 32 * kGrowthFactor);
}

TEST(GrowthPolicyTest, StreakTriggerAndReset) {
  GrowthPolicy p(/*enabled=*/true);
  const GrowthInputs in{/*total_items=*/10, /*capacity=*/100, 0, 32};
  const int below_limit = static_cast<int>(kGrowthPressureStreakLimit) - 1;
  FeedHardInserts(p, below_limit);
  EXPECT_EQ(p.Decide(in).action, GrowthAction::kNone);  // streak < limit
  // An easy insert resets the streak.
  p.ObserveInsert(/*overflowed=*/false, /*chain_len=*/1, /*maxloop=*/100);
  FeedHardInserts(p, below_limit);
  EXPECT_EQ(p.Decide(in).action, GrowthAction::kNone);
  FeedHardInserts(p, 1);
  EXPECT_EQ(p.Decide(in).action, GrowthAction::kReseed);
}

TEST(GrowthPolicyTest, LongChainsCountAsHardInserts) {
  GrowthPolicy p(/*enabled=*/true);
  // chain_len >= maxloop/2 is "hard" even without a stash spill.
  for (int i = 0; i < 4; ++i) p.ObserveInsert(false, 50, 100);
  EXPECT_EQ(p.pressure_streak(), 4u);
  // Shorter chains are not.
  p.ObserveInsert(false, 49, 100);
  EXPECT_EQ(p.pressure_streak(), 0u);
}

TEST(GrowthPolicyTest, FailureBacksOffExponentially) {
  GrowthPolicy p(/*enabled=*/true);
  uint64_t prev = 0;
  for (int i = 0; i < 4; ++i) {
    p.OnRehashFailure();
    EXPECT_TRUE(p.suppressed());
    EXPECT_GT(p.backoff_window(), prev);
    prev = p.backoff_window();
  }
  // Capped: more failures stop doubling at kGrowthBackoffMaxInserts
  // (2^20, fourteen doublings of 64).
  for (int i = 0; i < 20; ++i) p.OnRehashFailure();
  EXPECT_EQ(p.backoff_window(), kGrowthBackoffMaxInserts);
  // A successful grow resets the window and clears the degraded state.
  p.OnRehashSuccess(GrowthAction::kGrow);
  EXPECT_FALSE(p.suppressed());
  EXPECT_EQ(p.backoff_window(), kGrowthBackoffInitialInserts);
}

TEST(GrowthPolicyTest, SizeCapSuppresses) {
  GrowthPolicy p(/*enabled=*/true);
  // Just under the cap, a grow stops at the cap rather than doubling.
  const uint64_t near_cap = kGrowthMaxBucketsPerTable / 2 + 1;
  GrowthDecision d = p.Decide({95, 100, 0, near_cap});
  EXPECT_EQ(d.action, GrowthAction::kGrow);
  EXPECT_EQ(d.new_buckets_per_table, kGrowthMaxBucketsPerTable);
  EXPECT_FALSE(p.suppressed());
  // At the cap the policy suppresses instead.
  d = p.Decide({/*total_items=*/95, /*capacity=*/100, 0,
                /*buckets=*/kGrowthMaxBucketsPerTable});
  EXPECT_EQ(d.action, GrowthAction::kSuppressed);
  EXPECT_TRUE(p.suppressed());
}

TEST(GrowthPolicyTest, SeedRotationIsMonotone) {
  GrowthPolicy p(/*enabled=*/true);
  const uint64_t seed = 0x5EEDC0DE;
  const uint64_t s1 = p.NextSeed(seed);
  const uint64_t s2 = p.NextSeed(seed);
  EXPECT_NE(s1, seed);
  EXPECT_NE(s1, s2);  // same input, later rotation: never replays a seed
  EXPECT_EQ(p.seed_rotations(), 2u);
}

// --- Soak property test ----------------------------------------------------

// Drives a growth-enabled table to ~6x its initial capacity with random
// interleaved erases. Every time the table commits a rehash (observable
// through rehash_epoch()), the full model is swept: each live key must be
// findable with its exact value, the sweep must be visible in AccessStats
// (growth must not break the read-accounting), and the debug invariant
// check must pass.
template <typename Table>
void RunGrowthSoak(uint64_t seed, uint32_t slots_per_bucket) {
  TableOptions o;
  o.buckets_per_table = 128;
  o.slots_per_bucket = slots_per_bucket;
  o.maxloop = 150;
  o.deletion_mode = DeletionMode::kResetCounters;
  o.growth_enabled = true;
  Table t(o);
  const uint64_t initial_capacity = t.capacity();

  std::unordered_map<uint64_t, uint64_t> model;
  std::vector<uint64_t> live;
  Xoshiro256 rng(seed);
  uint64_t next_key = 0;
  uint64_t last_epoch = t.rehash_epoch();
  uint64_t growth_steps_verified = 0;

  while (model.size() < initial_capacity * 6) {
    if (!live.empty() && rng.Bernoulli(0.15)) {
      const size_t pick = rng.Below(live.size());
      ASSERT_TRUE(t.Erase(live[pick])) << live[pick];
      model.erase(live[pick]);
      live[pick] = live.back();
      live.pop_back();
    } else {
      const uint64_t k = SplitMix64((seed << 24) ^ next_key++);
      const uint64_t v = rng.Next();
      t.Insert(k, v);
      model.emplace(k, v);
      live.push_back(k);
    }
    if (t.rehash_epoch() != last_epoch) {
      last_epoch = t.rehash_epoch();
      ++growth_steps_verified;
      const uint64_t reads_before =
          t.stats().offchip_reads + t.stats().onchip_reads;
      for (const auto& [k, v] : model) {
        uint64_t got = 0;
        ASSERT_TRUE(t.Find(k, &got)) << "lost key " << k << " after growth "
                                     << "step " << growth_steps_verified;
        ASSERT_EQ(got, v) << k;
      }
      const uint64_t reads_after =
          t.stats().offchip_reads + t.stats().onchip_reads;
      EXPECT_GT(reads_after, reads_before)
          << "verification sweep left no AccessStats trace";
      const Status s = t.CheckInvariants();
      ASSERT_TRUE(s.ok()) << "after growth step " << growth_steps_verified
                          << ": " << s.ToString();
    }
  }

  EXPECT_GT(growth_steps_verified, 0u) << "table never grew";
  EXPECT_GT(t.capacity(), initial_capacity);
  EXPECT_EQ(t.TotalItems(), model.size());
  for (const auto& [k, v] : model) {
    uint64_t got = 0;
    ASSERT_TRUE(t.Find(k, &got)) << k;
    ASSERT_EQ(got, v) << k;
  }
  EXPECT_TRUE(t.ValidateInvariants().ok());
}

class GrowthSoakTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GrowthSoakTest, SingleSlot) {
  RunGrowthSoak<McCuckooTable<uint64_t, uint64_t>>(GetParam(), 1);
}

TEST_P(GrowthSoakTest, Blocked) {
  RunGrowthSoak<BlockedMcCuckooTable<uint64_t, uint64_t>>(GetParam(), 3);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GrowthSoakTest,
                         ::testing::Values(11ull, 12ull, 13ull));

// --- Acceptance workloads ---------------------------------------------------

// Growth enabled: inserting 8x the initial capacity must succeed with zero
// user-visible failures, and the table must end inside the target load
// band (growth stops once the load factor is back under the ceiling).
template <typename Table>
void RunEightTimesCapacity(uint32_t slots_per_bucket) {
  TableOptions o;
  o.buckets_per_table = 256;
  o.slots_per_bucket = slots_per_bucket;
  o.maxloop = 200;
  o.growth_enabled = true;
  Table t(o);
  const uint64_t initial_capacity = t.capacity();
  const uint64_t n = initial_capacity * 8;

  for (uint64_t i = 0; i < n; ++i) {
    t.Insert(SplitMix64(i ^ 0x8CAFE), i);
  }
  EXPECT_EQ(t.TotalItems(), n);
  // In the band: under the trigger ceiling, and not absurdly sparse (a
  // doubling policy can undershoot to at most ceiling / 4 transiently
  // when a reseed precedes the final grow).
  const double lf = t.load_factor();
  EXPECT_LE(lf, kGrowthMaxLoadFactor + 1e-9);
  EXPECT_GE(lf, kGrowthMaxLoadFactor / 4.0);

  const MetricsSnapshot snap = t.SnapshotMetrics();
  if constexpr (kMetricsEnabled) {
    EXPECT_GT(snap.growth_rehashes, 0u);
  }
  EXPECT_EQ(snap.growth_suppressed, 0u);
  EXPECT_EQ(snap.growth_failures, 0u);
  if constexpr (kMetricsEnabled) {
    EXPECT_GT(snap.rehash_ns.count, 0u);
  }

  for (uint64_t i = 0; i < n; ++i) {
    uint64_t v = 0;
    ASSERT_TRUE(t.Find(SplitMix64(i ^ 0x8CAFE), &v)) << i;
    ASSERT_EQ(v, i);
  }
  EXPECT_TRUE(t.CheckInvariants().ok());
}

TEST(GrowthAcceptanceTest, SingleSlotEightTimesCapacity) {
  RunEightTimesCapacity<McCuckooTable<uint64_t, uint64_t>>(1);
}

TEST(GrowthAcceptanceTest, BlockedEightTimesCapacity) {
  RunEightTimesCapacity<BlockedMcCuckooTable<uint64_t, uint64_t>>(3);
}

// Growth disabled: the same over-capacity push must degrade into the
// stash without a single error (every key retained and findable), raise
// the growth_suppressed gauge, and never rehash.
TEST(GrowthAcceptanceTest, DisabledGrowthDegradesToStash) {
  TableOptions o;
  o.buckets_per_table = 64;
  o.maxloop = 50;
  McCuckooTable<uint64_t, uint64_t> t(o);  // growth disabled by default
  const uint64_t initial_capacity = t.capacity();
  const uint64_t n = initial_capacity * 2;

  for (uint64_t i = 0; i < n; ++i) {
    t.Insert(SplitMix64(i ^ 0xDE6), i);
  }
  EXPECT_EQ(t.capacity(), initial_capacity);  // never grew
  EXPECT_EQ(t.TotalItems(), n);
  EXPECT_GT(t.stash_size(), 0u);

  const MetricsSnapshot snap = t.SnapshotMetrics();
  EXPECT_EQ(snap.growth_rehashes, 0u);
  EXPECT_EQ(snap.growth_reseeds, 0u);
  if constexpr (kMetricsEnabled) {
    EXPECT_EQ(snap.growth_suppressed, 1u);
  }
  EXPECT_TRUE(t.growth_policy().suppressed());

  for (uint64_t i = 0; i < n; ++i) {
    uint64_t v = 0;
    ASSERT_TRUE(t.Find(SplitMix64(i ^ 0xDE6), &v)) << i;
    ASSERT_EQ(v, i);
  }
  EXPECT_TRUE(t.CheckInvariants().ok());
}

// --- Grow by rebuild outside the split conditions --------------------------

// McCuckooTable grows by splitting buckets under the same seed only with
// kResetCounters. Every other table must keep the re-insert rebuild,
// which rotates the seed on every grow, and lose no key: a split under
// the Bloom rule (kDisabled, kTombstone) would leave live keys behind
// true-zero candidate counters.
template <typename Table>
void RunGrowByRebuild(DeletionMode mode) {
  TableOptions o;
  o.buckets_per_table = 256;
  o.maxloop = 100;
  o.deletion_mode = mode;
  o.growth_enabled = true;
  Table t(o);
  const uint64_t initial_capacity = t.capacity();
  std::unordered_map<uint64_t, uint64_t> model;
  Xoshiro256 rng(0x5B117);
  for (uint64_t i = 0; model.size() < initial_capacity * 4; ++i) {
    const uint64_t k = SplitMix64(i ^ 0x4EB011D);
    t.Insert(k, i);
    model.emplace(k, i);
    if (mode != DeletionMode::kDisabled && rng.Bernoulli(0.1)) {
      ASSERT_TRUE(t.Erase(k));
      model.erase(k);
    }
  }
  EXPECT_GT(t.capacity(), initial_capacity);
  EXPECT_NE(t.options().seed, o.seed);
  // Every committed rehash drew a fresh seed: none of them was a split.
  EXPECT_GT(t.rehash_epoch(), 0u);
  EXPECT_EQ(t.growth_policy().seed_rotations(), t.rehash_epoch());
  EXPECT_EQ(t.TotalItems(), model.size());
  for (const auto& [k, v] : model) {
    uint64_t got = 0;
    ASSERT_TRUE(t.Find(k, &got)) << "lost key " << k;
    ASSERT_EQ(got, v) << k;
  }
  EXPECT_TRUE(t.ValidateInvariants().ok()) << t.ValidateInvariants().ToString();
  EXPECT_TRUE(t.CheckInvariants().ok()) << t.CheckInvariants().ToString();
}

using SingleSlotTable = McCuckooTable<uint64_t, uint64_t>;

TEST(GrowByRebuildTest, DeletionDisabled) {
  RunGrowByRebuild<SingleSlotTable>(DeletionMode::kDisabled);
}

TEST(GrowByRebuildTest, Tombstones) {
  RunGrowByRebuild<SingleSlotTable>(DeletionMode::kTombstone);
}

// --- Exporter presence ------------------------------------------------------

TEST(GrowthMetricsExportTest, ExportersCarryGrowthSeries) {
  TableOptions o;
  o.buckets_per_table = 128;
  o.growth_enabled = true;
  McCuckooTable<uint64_t, uint64_t> t(o);
  const uint64_t n = t.capacity() * 4;
  for (uint64_t i = 0; i < n; ++i) t.Insert(SplitMix64(i ^ 0xE4), i);

  const MetricsSnapshot snap = t.SnapshotMetrics();
  if constexpr (kMetricsEnabled) {
    ASSERT_GT(snap.growth_rehashes, 0u);
  }

  const std::string prom =
      ExportPrometheus(snap, t.stats(), {{"scheme", "McCuckoo"}});
  for (const char* needle :
       {"mccuckoo_growth_rehashes_total{scheme=\"McCuckoo\"}",
        "mccuckoo_growth_reseeds_total{scheme=\"McCuckoo\"}",
        "mccuckoo_growth_failures_total{scheme=\"McCuckoo\"}",
        "mccuckoo_growth_suppressed{scheme=\"McCuckoo\"}",
        "# TYPE mccuckoo_rehash_duration_ns histogram",
        "mccuckoo_rehash_duration_ns_count{scheme=\"McCuckoo\"}"}) {
    EXPECT_NE(prom.find(needle), std::string::npos) << needle;
  }

  const std::string json = ExportJson(snap, t.stats());
  for (const char* needle :
       {"\"growth_rehashes\"", "\"growth_reseeds\"", "\"growth_failures\"",
        "\"growth_suppressed\"", "\"rehash_duration_ns\""}) {
    EXPECT_NE(json.find(needle), std::string::npos) << needle;
  }

  const auto flat = MetricsFlatEntries(snap, "t.");
  EXPECT_EQ(flat.count("t.growth_rehashes"), 1u);
  EXPECT_EQ(flat.count("t.growth_suppressed"), 1u);
  EXPECT_EQ(flat.count("t.rehash_duration_ns.mean"), 1u);
  if constexpr (kMetricsEnabled) {
    EXPECT_GT(flat.at("t.growth_rehashes"), 0.0);
  }
}

}  // namespace
}  // namespace mccuckoo
