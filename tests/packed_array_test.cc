#include "src/common/packed_array.h"

#include <gtest/gtest.h>

#include <vector>

#include "src/common/rng.h"

namespace mccuckoo {
namespace {

TEST(PackedArrayTest, ZeroInitialized) {
  PackedArray a(100, 2);
  for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a.Get(i), 0u);
}

TEST(PackedArrayTest, SetGetRoundTrip2Bit) {
  PackedArray a(200, 2);
  for (size_t i = 0; i < a.size(); ++i) a.Set(i, i % 4);
  for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a.Get(i), i % 4) << i;
}

TEST(PackedArrayTest, NeighborsUndisturbed) {
  PackedArray a(64, 2);
  a.Set(10, 3);
  a.Set(11, 1);
  a.Set(12, 2);
  a.Set(11, 0);
  EXPECT_EQ(a.Get(10), 3u);
  EXPECT_EQ(a.Get(11), 0u);
  EXPECT_EQ(a.Get(12), 2u);
}

TEST(PackedArrayTest, MaxValueMatchesWidth) {
  EXPECT_EQ(PackedArray(1, 1).max_value(), 1u);
  EXPECT_EQ(PackedArray(1, 2).max_value(), 3u);
  EXPECT_EQ(PackedArray(1, 5).max_value(), 31u);
  EXPECT_EQ(PackedArray(1, 32).max_value(), 0xFFFFFFFFull);
}

TEST(PackedArrayTest, MemoryIsPacked) {
  // 1M 2-bit counters = 256 KiB — the on-chip premise of the paper.
  PackedArray a(1'000'000, 2);
  EXPECT_LE(a.memory_bytes(), 250'008u * 8 / 8 + 8);
  EXPECT_GE(a.memory_bytes(), 250'000u);
}

// Widths that straddle 64-bit word boundaries must still round-trip.
class PackedArrayWidthTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(PackedArrayWidthTest, RandomRoundTripAgainstReference) {
  const uint32_t bits = GetParam();
  PackedArray a(500, bits);
  std::vector<uint64_t> ref(a.size(), 0);
  Xoshiro256 rng(bits * 977);
  for (int iter = 0; iter < 5000; ++iter) {
    const size_t i = rng.Below(a.size());
    const uint64_t v = rng.Next() & a.max_value();
    a.Set(i, v);
    ref[i] = v;
  }
  for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a.Get(i), ref[i]) << i;
}

INSTANTIATE_TEST_SUITE_P(AllWidths, PackedArrayWidthTest,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 11, 13, 16,
                                           17, 23, 31, 32));

}  // namespace
}  // namespace mccuckoo
