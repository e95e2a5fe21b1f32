// Tests of the stash-placement model (§II.B vs §III.E): the classic
// on-chip CHS stash is probed for free but overruns force rehashes, while
// McCuckoo's off-chip stash pays one read per (screened) probe and never
// overruns.

#include <gtest/gtest.h>

#include "src/baseline/cuckoo_table.h"
#include "src/core/mccuckoo_table.h"
#include "src/sim/schemes.h"
#include "src/workload/keyset.h"

namespace mccuckoo {
namespace {

TableOptions TinyOptions(StashKind kind) {
  TableOptions o;
  o.buckets_per_table = 64;
  o.maxloop = 10;
  o.stash_kind = kind;
  return o;
}

TEST(StashKindTest, OnchipProbesCostNoOffchipAccess) {
  CuckooTable<uint64_t, uint64_t> t(TinyOptions(StashKind::kOnchipChs));
  const auto keys = MakeUniqueKeys(190, 1, 0);
  for (uint64_t k : keys) t.Insert(k, k);
  ASSERT_GT(t.stash_size(), 0u);
  t.ResetStats();
  // A miss lookup reads d buckets plus a *free* stash probe.
  EXPECT_FALSE(t.Contains(0xDEAD));
  EXPECT_EQ(t.stats().offchip_reads, 3u);
  EXPECT_EQ(t.stats().stash_probes, 1u);
  EXPECT_GT(t.stats().onchip_reads, 0u);
}

TEST(StashKindTest, OffchipProbesCostOneRead) {
  CuckooTable<uint64_t, uint64_t> t(TinyOptions(StashKind::kOffchip));
  const auto keys = MakeUniqueKeys(190, 1, 0);
  for (uint64_t k : keys) t.Insert(k, k);
  ASSERT_GT(t.stash_size(), 0u);
  t.ResetStats();
  EXPECT_FALSE(t.Contains(0xDEAD));
  EXPECT_EQ(t.stats().offchip_reads, 4u);  // d buckets + stash
}

TEST(StashKindTest, ChsOverrunsCountForcedRehashes) {
  TableOptions o = TinyOptions(StashKind::kOnchipChs);
  CuckooTable<uint64_t, uint64_t> t(o);
  const auto keys = MakeUniqueKeys(192, 2, 0);  // 100% attempt on a 10-loop table
  for (uint64_t k : keys) t.Insert(k, k);
  ASSERT_GT(t.stash_size(), kOnchipStashCapacity);
  EXPECT_EQ(t.forced_rehash_events(), t.stash_size() - kOnchipStashCapacity);
  // Data safety regardless: everything stays findable.
  for (uint64_t k : keys) EXPECT_TRUE(t.Contains(k)) << k;
}

TEST(StashKindTest, OffchipNeverForcesRehash) {
  McCuckooTable<uint64_t, uint64_t> t(TinyOptions(StashKind::kOffchip));
  const auto keys = MakeUniqueKeys(192, 3, 0);
  for (uint64_t k : keys) t.Insert(k, k);
  EXPECT_GT(t.stash_size(), 0u);
  EXPECT_EQ(t.forced_rehash_events(), 0u);
}

TEST(StashKindTest, McCuckooWithChsStashStaysCorrect) {
  // The multi-copy table can also run the classic stash (for ablations):
  // screening is bypassed (probes are free) and no flags are written.
  McCuckooTable<uint64_t, uint64_t> t(TinyOptions(StashKind::kOnchipChs));
  const auto keys = MakeUniqueKeys(192, 4, 0);
  for (uint64_t k : keys) t.Insert(k, k * 2);
  ASSERT_GT(t.stash_size(), 0u);
  for (uint64_t k : keys) {
    uint64_t v = 0;
    ASSERT_TRUE(t.Find(k, &v)) << k;
    EXPECT_EQ(v, k * 2);
  }
  // FindNoStats path agrees.
  for (uint64_t k : keys) EXPECT_TRUE(t.FindNoStats(k, nullptr)) << k;
  EXPECT_TRUE(t.ValidateInvariants().ok());
}

TEST(StashKindTest, SchemesDefaultPlacementMatchesPaper) {
  SchemeConfig c;
  c.total_slots = 9 * 64;
  c.maxloop = 10;
  for (SchemeKind kind : kAllSchemes) {
    auto t = MakeScheme(kind, c);
    const auto keys = MakeUniqueKeys(t->capacity(), 5, 0);
    for (uint64_t k : keys) t->Insert(k, k);
    if (t->stash_size() == 0) continue;
    t->ResetStats();
    uint64_t misses = 0;
    for (uint64_t k : MakeUniqueKeys(1000, 5, 7)) misses += !t->Find(k, nullptr);
    EXPECT_EQ(misses, 1000u);
    const double reads_per_miss = t->stats().offchip_reads / 1000.0;
    if (IsMultiCopy(kind)) {
      // Off-chip stash, but the screen keeps probes near zero.
      EXPECT_LT(t->stats().stash_probes, 50u) << SchemeName(kind);
    } else {
      // On-chip CHS stash: probed every miss, but never off-chip.
      EXPECT_EQ(t->stats().stash_probes, 1000u) << SchemeName(kind);
      EXPECT_LE(reads_per_miss, 3.0) << SchemeName(kind);
    }
  }
}

}  // namespace
}  // namespace mccuckoo
