#include "src/sim/schemes.h"

#include <gtest/gtest.h>

#include "src/workload/keyset.h"

namespace mccuckoo {
namespace {

SchemeConfig SmallConfig() {
  SchemeConfig c;
  c.total_slots = 9 * 512;
  c.maxloop = 100;
  c.seed = 99;
  return c;
}

TEST(SchemesTest, NamesMatchPaper) {
  EXPECT_STREQ(SchemeName(SchemeKind::kCuckoo), "Cuckoo");
  EXPECT_STREQ(SchemeName(SchemeKind::kMcCuckoo), "McCuckoo");
  EXPECT_STREQ(SchemeName(SchemeKind::kBcht), "BCHT");
  EXPECT_STREQ(SchemeName(SchemeKind::kBMcCuckoo), "B-McCuckoo");
}

TEST(SchemesTest, ClassifiersAreConsistent) {
  EXPECT_FALSE(IsMultiCopy(SchemeKind::kCuckoo));
  EXPECT_TRUE(IsMultiCopy(SchemeKind::kMcCuckoo));
  EXPECT_FALSE(IsMultiCopy(SchemeKind::kBcht));
  EXPECT_TRUE(IsMultiCopy(SchemeKind::kBMcCuckoo));
  EXPECT_FALSE(IsBlocked(SchemeKind::kCuckoo));
  EXPECT_TRUE(IsBlocked(SchemeKind::kBcht));
}

TEST(SchemesTest, AllSchemesGetEqualCapacity) {
  const SchemeConfig c = SmallConfig();
  for (SchemeKind kind : kAllSchemes) {
    auto t = MakeScheme(kind, c);
    EXPECT_EQ(t->capacity(), c.total_slots) << SchemeName(kind);
  }
}

TEST(SchemesTest, CapacityRoundedUpToGranularity) {
  SchemeConfig c = SmallConfig();
  c.total_slots = 1000;  // not divisible by 9
  for (SchemeKind kind : kAllSchemes) {
    auto t = MakeScheme(kind, c);
    EXPECT_EQ(t->capacity(), 1008u) << SchemeName(kind);
  }
}

TEST(SchemesTest, RoundTripThroughFacade) {
  const SchemeConfig c = SmallConfig();
  const auto keys = MakeUniqueKeys(2000, 5, 0);
  for (SchemeKind kind : kAllSchemes) {
    auto t = MakeScheme(kind, c);
    for (uint64_t k : keys) {
      t->Insert(k, k + 7);
    }
    for (uint64_t k : keys) {
      uint64_t v = 0;
      ASSERT_TRUE(t->Find(k, &v)) << SchemeName(kind) << " key " << k;
      EXPECT_EQ(v, k + 7);
    }
    EXPECT_EQ(t->TotalItems(), keys.size());
    EXPECT_TRUE(t->ValidateInvariants().ok()) << SchemeName(kind);
  }
}

TEST(SchemesTest, EraseThroughFacade) {
  SchemeConfig c = SmallConfig();
  c.deletion_mode = DeletionMode::kResetCounters;
  const auto keys = MakeUniqueKeys(1000, 6, 0);
  for (SchemeKind kind : kAllSchemes) {
    auto t = MakeScheme(kind, c);
    for (uint64_t k : keys) t->Insert(k, k);
    for (size_t i = 0; i < 500; ++i) {
      EXPECT_TRUE(t->Erase(keys[i])) << SchemeName(kind);
    }
    for (size_t i = 0; i < 500; ++i) EXPECT_FALSE(t->Find(keys[i], nullptr));
    for (size_t i = 500; i < 1000; ++i) EXPECT_TRUE(t->Find(keys[i], nullptr));
  }
}

TEST(SchemesTest, OnlyMultiCopySchemesHaveOnchipState) {
  const SchemeConfig c = SmallConfig();
  for (SchemeKind kind : kAllSchemes) {
    auto t = MakeScheme(kind, c);
    if (IsMultiCopy(kind)) {
      EXPECT_GT(t->onchip_memory_bytes(), 0u) << SchemeName(kind);
    } else {
      EXPECT_EQ(t->onchip_memory_bytes(), 0u) << SchemeName(kind);
    }
  }
}

TEST(SchemesTest, StatsFlowThroughFacade) {
  auto t = MakeScheme(SchemeKind::kMcCuckoo, SmallConfig());
  t->Insert(1, 1);
  EXPECT_GT(t->stats().offchip_writes, 0u);
  t->ResetStats();
  EXPECT_EQ(t->stats().offchip_writes, 0u);
}

}  // namespace
}  // namespace mccuckoo
