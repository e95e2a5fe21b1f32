// Tests of the single-slot table's counter store, TagCounterArray: counter
// and tombstone round trips, tag preservation, and the modeled packed
// on-chip size. The store charges nothing; the engine's charges are pinned
// by the fingerprint and access-count tests.

#include "src/core/counter_array.h"

#include <gtest/gtest.h>

#include "src/common/bits.h"

namespace mccuckoo {
namespace {

TEST(CounterArrayTest, StartsEmpty) {
  TagCounterArray c(100);
  for (size_t i = 0; i < c.size(); ++i) {
    EXPECT_EQ(c.PeekCounter(i), 0u);
    EXPECT_FALSE(c.PeekTombstone(i));
  }
}

TEST(CounterArrayTest, SetGetRoundTrip) {
  TagCounterArray c(10);
  c.Set(4, 3);
  EXPECT_EQ(c.PeekCounter(4), 3u);
  c.Set(4, 1);
  EXPECT_EQ(c.PeekCounter(4), 1u);
}

TEST(CounterArrayTest, TombstoneReadsAsZero) {
  TagCounterArray c(10);
  c.Set(5, 2);
  c.MarkDeleted(5);
  EXPECT_EQ(c.PeekCounter(5), 0u);
  EXPECT_TRUE(c.PeekTombstone(5));
}

TEST(CounterArrayTest, SetClearsTombstone) {
  TagCounterArray c(10);
  c.MarkDeleted(7);
  c.Set(7, 3);
  EXPECT_FALSE(c.PeekTombstone(7));
  EXPECT_EQ(c.PeekCounter(7), 3u);
}

TEST(CounterArrayTest, ChargedWritesKeepTheTag) {
  // The tag nibble shares the byte with the counter and tombstone bits, and
  // SetTag is the only write that may change it: the writes the engine
  // charges as on-chip writes (Set, MarkDeleted) keep it.
  TagCounterArray c(10);
  c.SetTag(2, 0x0B);
  c.Set(2, 4);
  EXPECT_EQ(c.PeekTag(2), 0x0Bu);
  c.MarkDeleted(2);
  EXPECT_EQ(c.PeekTag(2), 0x0Bu);
  EXPECT_TRUE(c.PeekTombstone(2));
  c.Set(2, 1);
  EXPECT_EQ(c.PeekTag(2), 0x0Bu);
  EXPECT_EQ(c.PeekCounter(2), 1u);
  EXPECT_FALSE(c.PeekTombstone(2));
  c.SetTag(2, 0x03);
  EXPECT_EQ(c.PeekCounter(2), 1u);
  // Neighbouring entries are untouched.
  EXPECT_EQ(c.PeekTag(1), 0u);
  EXPECT_EQ(c.PeekTag(3), 0u);
  EXPECT_EQ(c.PeekCounter(3), 0u);
}

TEST(CounterArrayTest, TwoBitsForDThree) {
  // 2 bits per counter -> 250 KB (plus word rounding).
  EXPECT_NEAR(static_cast<double>(ModeledPackedBytes(1'000'000,
                                                     BitWidthFor(3))),
              250'000.0, 16.0);
}

TEST(CounterArrayTest, ThreeBitsForDFour) {
  // 3 bits per counter -> 3000 bits, rounded up to 47 whole 64-bit words.
  EXPECT_EQ(ModeledPackedBytes(1000, BitWidthFor(4)), 47u * 8u);
  TagCounterArray c(1000);
  c.Set(0, 4);
  EXPECT_EQ(c.PeekCounter(0), 4u);
}

}  // namespace
}  // namespace mccuckoo
