#include "src/hash/jenkins.h"

#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "src/hash/hashers.h"

namespace mccuckoo {
namespace {

TEST(Lookup2Test, Deterministic) {
  const char* data = "hello world";
  EXPECT_EQ(JenkinsLookup2(data, 11, 0), JenkinsLookup2(data, 11, 0));
}

TEST(Lookup2Test, SeedChangesHash) {
  const char* data = "hello world";
  EXPECT_NE(JenkinsLookup2(data, 11, 0), JenkinsLookup2(data, 11, 1));
}

TEST(Lookup2Test, LengthSensitive) {
  const char data[16] = "aaaaaaaaaaaaaaa";
  EXPECT_NE(JenkinsLookup2(data, 11, 0), JenkinsLookup2(data, 12, 0));
}

TEST(Lookup2Test, AllTailLengthsDiffer) {
  // Exercise every switch arm (0..11 tail bytes after a 12-byte block).
  std::set<uint32_t> hashes;
  char data[24];
  std::memset(data, 0x5A, sizeof(data));
  for (size_t len = 12; len <= 24; ++len) {
    hashes.insert(JenkinsLookup2(data, len, 7));
  }
  EXPECT_EQ(hashes.size(), 13u);
}

TEST(Lookup2Test, AvalancheOnSingleBitFlip) {
  uint64_t key = 0x0123456789ABCDEFull;
  const uint32_t base = JenkinsLookup2(&key, 8, 0);
  int total_changed_bits = 0;
  for (int bit = 0; bit < 64; ++bit) {
    uint64_t flipped = key ^ (1ull << bit);
    total_changed_bits =
        total_changed_bits +
        __builtin_popcount(base ^ JenkinsLookup2(&flipped, 8, 0));
  }
  // Ideal avalanche: 16 of 32 bits flip on average.
  EXPECT_NEAR(total_changed_bits / 64.0, 16.0, 3.0);
}

TEST(Lookup2x64Test, FillsBothHalves) {
  int hi_nonzero = 0;
  for (uint64_t k = 0; k < 64; ++k) {
    const uint64_t h = JenkinsLookup2x64(&k, 8, k);
    if ((h >> 32) != 0) ++hi_nonzero;
  }
  EXPECT_GE(hi_nonzero, 60);
}

TEST(HashQualityTest, LowCollisionRateOnSequentialKeys) {
  // Sequential keys are the adversarial-but-common case (DocIDs).
  std::set<uint64_t> seen;
  for (uint64_t k = 0; k < 100000; ++k) {
    seen.insert(JenkinsLookup2x64(&k, 8, 12345));
  }
  EXPECT_EQ(seen.size(), 100000u);  // 64-bit collisions ~ never
}

TEST(BobHasherTest, WorksOnIntegersAndStrings) {
  BobHasher h;
  EXPECT_NE(h(uint64_t{1}, 0), h(uint64_t{2}, 0));
  EXPECT_NE(h(std::string("abc"), 0), h(std::string("abd"), 0));
  EXPECT_EQ(h(std::string("abc"), 0), h(std::string_view("abc"), 0));
}

}  // namespace
}  // namespace mccuckoo
