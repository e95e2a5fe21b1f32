// Tests of the single-slot table's counter store, TagCounterArray: charged
// counter and tombstone accesses, and the modeled packed on-chip size.

#include "src/core/counter_array.h"

#include <gtest/gtest.h>

namespace mccuckoo {
namespace {

TEST(CounterArrayTest, StartsEmpty) {
  AccessStats stats;
  TagCounterArray c(100, 3, &stats);
  for (size_t i = 0; i < c.size(); ++i) {
    EXPECT_EQ(c.PeekCounter(i), 0u);
    EXPECT_FALSE(c.PeekTombstone(i));
  }
}

TEST(CounterArrayTest, SetGetRoundTrip) {
  AccessStats stats;
  TagCounterArray c(10, 3, &stats);
  c.Set(4, 3);
  EXPECT_EQ(c.Get(4), 3u);
  c.Set(4, 1);
  EXPECT_EQ(c.Get(4), 1u);
}

TEST(CounterArrayTest, ChargesOnchipAccesses) {
  AccessStats stats;
  TagCounterArray c(10, 3, &stats);
  c.Set(0, 2);
  c.Get(0);
  c.Get(1);
  EXPECT_EQ(stats.onchip_writes, 1u);
  EXPECT_EQ(stats.onchip_reads, 2u);
  EXPECT_EQ(stats.offchip_reads, 0u);
}

TEST(CounterArrayTest, PeekDoesNotCharge) {
  AccessStats stats;
  TagCounterArray c(10, 3, &stats);
  c.PeekCounter(0);
  c.PeekTombstone(0);
  c.PeekTag(0);
  EXPECT_EQ(stats.onchip_reads, 0u);
}

TEST(CounterArrayTest, NullStatsSafe) {
  TagCounterArray c(10, 3, nullptr);
  c.Set(1, 2);
  EXPECT_EQ(c.Get(1), 2u);
}

TEST(CounterArrayTest, TombstoneReadsAsZero) {
  AccessStats stats;
  TagCounterArray c(10, 3, &stats);
  c.Set(5, 2);
  c.MarkDeleted(5);
  EXPECT_EQ(c.Get(5), 0u);
  EXPECT_TRUE(c.IsTombstone(5));
}

TEST(CounterArrayTest, SetClearsTombstone) {
  AccessStats stats;
  TagCounterArray c(10, 3, &stats);
  c.MarkDeleted(7);
  c.Set(7, 3);
  EXPECT_FALSE(c.IsTombstone(7));
  EXPECT_EQ(c.Get(7), 3u);
}

TEST(CounterArrayTest, ChargedWritesKeepTheTag) {
  // The tag nibble shares the byte with the counter and tombstone bits, and
  // SetTag is the only write that may change it.
  AccessStats stats;
  TagCounterArray c(10, 4, &stats);
  c.SetTag(2, 0x0B);
  EXPECT_EQ(stats.onchip_writes, 0u);  // tags are uncharged
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
  EXPECT_EQ(stats.onchip_writes, 3u);
  // Neighbouring entries are untouched.
  EXPECT_EQ(c.PeekTag(1), 0u);
  EXPECT_EQ(c.PeekTag(3), 0u);
  EXPECT_EQ(c.PeekCounter(3), 0u);
}

TEST(CounterArrayTest, TwoBitsForDThree) {
  AccessStats stats;
  TagCounterArray c(1'000'000, 3, &stats);
  // 2 bits per counter -> 250 KB (plus word rounding).
  EXPECT_NEAR(static_cast<double>(c.counter_bytes()), 250'000.0, 16.0);
}

TEST(CounterArrayTest, ThreeBitsForDFour) {
  AccessStats stats;
  TagCounterArray c(1000, 4, &stats);
  // 3 bits per counter -> 3000 bits, rounded up to 47 whole 64-bit words.
  EXPECT_EQ(c.counter_bytes(), 47u * 8u);
  c.Set(0, 4);
  EXPECT_EQ(c.Get(0), 4u);
}

}  // namespace
}  // namespace mccuckoo
