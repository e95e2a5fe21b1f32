// Cross-module integration tests: realistic mixed workloads driven through
// the op-stream generator and the scheme façade, qualitative reproduction
// of the paper's headline comparisons at small scale, and the latency model
// applied to real access traces.

#include <gtest/gtest.h>

#include <unordered_map>

#include "src/mem/latency_model.h"
#include "src/sim/schemes.h"
#include "src/sim/sweep.h"
#include "src/workload/docwords.h"
#include "src/workload/keyset.h"
#include "src/workload/opstream.h"

namespace mccuckoo {
namespace {

SchemeConfig MediumConfig() {
  SchemeConfig c;
  c.total_slots = 9 * 2048;
  c.maxloop = 500;
  c.seed = 2024;
  return c;
}

TEST(IntegrationTest, MixedOpStreamAgreesWithModelOnAllSchemes) {
  OpStreamConfig ocfg;
  ocfg.insert_fraction = 0.25;
  ocfg.lookup_fraction = 0.55;
  ocfg.erase_fraction = 0.10;
  const auto ops = GenerateOpStream(20000, ocfg);

  SchemeConfig c = MediumConfig();
  c.deletion_mode = DeletionMode::kResetCounters;
  for (SchemeKind kind : kAllSchemes) {
    auto t = MakeScheme(kind, c);
    std::unordered_map<uint64_t, uint64_t> model;
    for (const Op& op : ops) {
      switch (op.kind) {
        case Op::Kind::kInsert:
          t->Insert(op.key, ValueFor(op.key));
          model[op.key] = ValueFor(op.key);
          break;
        case Op::Kind::kLookup: {
          uint64_t v = 0;
          const bool hit = t->Find(op.key, &v);
          const auto it = model.find(op.key);
          ASSERT_EQ(hit, it != model.end()) << SchemeName(kind);
          if (hit) {
            EXPECT_EQ(v, it->second);
          }
          break;
        }
        case Op::Kind::kErase:
          EXPECT_EQ(t->Erase(op.key), model.erase(op.key) > 0);
          break;
      }
    }
    EXPECT_EQ(t->TotalItems(), model.size()) << SchemeName(kind);
    EXPECT_TRUE(t->ValidateInvariants().ok()) << SchemeName(kind);
  }
}

TEST(IntegrationTest, DocWordsWorkloadRoundTrips) {
  const auto keys = GenerateDocWordsKeys(15000);
  SchemeConfig c = MediumConfig();
  auto t = MakeScheme(SchemeKind::kMcCuckoo, c);
  for (uint64_t k : keys) t->Insert(k, k);
  for (uint64_t k : keys) EXPECT_TRUE(t->Find(k, nullptr));
  EXPECT_TRUE(t->ValidateInvariants().ok());
}

// Qualitative Fig 9: at 85% load McCuckoo needs far fewer kick-outs per
// insertion than plain Cuckoo.
TEST(IntegrationTest, McCuckooKicksLessThanCuckooAtHighLoad) {
  const SchemeConfig c = MediumConfig();
  double kicks[2] = {};
  const SchemeKind kinds[2] = {SchemeKind::kCuckoo, SchemeKind::kMcCuckoo};
  for (int i = 0; i < 2; ++i) {
    auto t = MakeScheme(kinds[i], c);
    const auto keys = MakeUniqueKeys(t->capacity(), 1, 0);
    size_t cursor = 0;
    FillToLoad(*t, keys, 0.80, &cursor);
    const PhaseStats phase = FillToLoad(*t, keys, 0.88, &cursor);
    kicks[i] = phase.KickoutsPerOp();
  }
  EXPECT_LT(kicks[1], kicks[0] * 0.7)
      << "McCuckoo should kick much less than Cuckoo";
}

// Qualitative Table I: first-collision order Cuckoo < McCuckoo < BCHT <
// B-McCuckoo.
TEST(IntegrationTest, FirstCollisionOrderMatchesTable1) {
  const SchemeConfig c = MediumConfig();
  double load_at_first[4] = {};
  int i = 0;
  for (SchemeKind kind : kAllSchemes) {
    auto t = MakeScheme(kind, c);
    const auto keys = MakeUniqueKeys(t->capacity(), 3, 0);
    size_t cursor = 0;
    FillToLoad(*t, keys, 0.995, &cursor);
    ASSERT_GT(t->first_collision_items(), 0u) << SchemeName(kind);
    load_at_first[i++] = static_cast<double>(t->first_collision_items()) /
                         static_cast<double>(t->capacity());
  }
  EXPECT_LT(load_at_first[0], load_at_first[1]);  // Cuckoo < McCuckoo
  EXPECT_LT(load_at_first[1], load_at_first[2]);  // McCuckoo < BCHT
  EXPECT_LT(load_at_first[2], load_at_first[3]);  // BCHT < B-McCuckoo
}

// Qualitative Fig 13: negative lookups cost far fewer off-chip accesses
// for McCuckoo than plain Cuckoo's constant d. Below ~1/3 load the Bloom
// rule screens most queries outright; above it the counters still fill
// every bucket, so partition pruning (not the zero rule) does the work.
TEST(IntegrationTest, NegativeLookupsNearlyFreeForMcCuckoo) {
  const SchemeConfig c = MediumConfig();
  const auto missing = MakeUniqueKeys(5000, 4, 1);
  auto reads_at_load = [&](SchemeKind kind, double load) {
    auto t = MakeScheme(kind, c);
    const auto keys = MakeUniqueKeys(t->capacity(), 4, 0);
    size_t cursor = 0;
    FillToLoad(*t, keys, load, &cursor);
    return MeasureLookups(*t, missing, 5000, false).ReadsPerOp();
  };
  // Plain cuckoo always reads d buckets at any load.
  EXPECT_DOUBLE_EQ(reads_at_load(SchemeKind::kCuckoo, 0.2), 3.0);
  EXPECT_DOUBLE_EQ(reads_at_load(SchemeKind::kCuckoo, 0.5), 3.0);
  // McCuckoo: near-zero at low load, still well under d at half load.
  EXPECT_LT(reads_at_load(SchemeKind::kMcCuckoo, 0.2), 0.7);
  EXPECT_LT(reads_at_load(SchemeKind::kMcCuckoo, 0.5), 1.5);
}

// The latency model consumes real traces: a McCuckoo negative lookup must
// be much faster than a Cuckoo one at 50% load (Fig 16 shape).
TEST(IntegrationTest, LatencyModelOnRealTraces) {
  const SchemeConfig c = MediumConfig();
  LatencyModel model;
  const auto missing = MakeUniqueKeys(2000, 5, 1);
  double ns[2] = {};
  const SchemeKind kinds[2] = {SchemeKind::kCuckoo, SchemeKind::kMcCuckoo};
  for (int i = 0; i < 2; ++i) {
    auto t = MakeScheme(kinds[i], c);
    const auto keys = MakeUniqueKeys(t->capacity(), 5, 0);
    size_t cursor = 0;
    FillToLoad(*t, keys, 0.5, &cursor);
    const PhaseStats phase = MeasureLookups(*t, missing, 2000, false);
    ns[i] = model.AverageNanos(phase.delta, phase.ops, 64);
  }
  EXPECT_LT(ns[1], ns[0]);
}

// Stash behaviour at extreme load (Table II shape): with maxloop 200 and
// 93% load the single-slot McCuckoo stash holds a small but non-zero
// fraction, and stash visits for negative lookups stay near zero.
TEST(IntegrationTest, StashStatisticsShape) {
  SchemeConfig c = MediumConfig();
  c.maxloop = 200;
  auto t = MakeScheme(SchemeKind::kMcCuckoo, c);
  const auto keys = MakeUniqueKeys(t->capacity(), 6, 0);
  size_t cursor = 0;
  FillToLoad(*t, keys, 0.93, &cursor);
  const double stash_frac =
      static_cast<double>(t->stash_size()) / t->TotalItems();
  EXPECT_LT(stash_frac, 0.05);
  const auto missing = MakeUniqueKeys(20000, 6, 1);
  const PhaseStats phase = MeasureLookups(*t, missing, 20000, false);
  EXPECT_LT(phase.StashProbesPerOp(), 0.01);
}

}  // namespace
}  // namespace mccuckoo
