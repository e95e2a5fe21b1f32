// Tests of XXH64 and XxHasher, the store's hasher, plus typed tests running
// the McCuckoo table under both production hashers (BobHasher, XxHasher)
// and with string keys — the table logic must be entirely hasher- and
// key-type-agnostic.

#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/core/mccuckoo_table.h"
#include "src/hash/hashers.h"
#include "src/hash/xxhash.h"
#include "src/workload/keyset.h"

namespace mccuckoo {
namespace {

TEST(XxHashTest, EmptyInputKnownVector) {
  // Reference value from the canonical xxHash test suite.
  EXPECT_EQ(XxHash64(nullptr, 0, 0), 0xEF46DB3751D8E999ull);
}

TEST(XxHashTest, DeterministicAndSeedSensitive) {
  const char* s = "multi-copy cuckoo";
  EXPECT_EQ(XxHash64(s, 17, 1), XxHash64(s, 17, 1));
  EXPECT_NE(XxHash64(s, 17, 1), XxHash64(s, 17, 2));
}

TEST(XxHashTest, AllLengthPathsDistinct) {
  // Exercise the long-block path (>=32), the 8/4/1-byte tails.
  std::set<uint64_t> hashes;
  std::vector<uint8_t> buf(64, 0xAB);
  for (size_t len : {0u, 1u, 3u, 4u, 7u, 8u, 15u, 16u, 31u, 32u, 33u, 63u}) {
    hashes.insert(XxHash64(buf.data(), len, 99));
  }
  EXPECT_EQ(hashes.size(), 12u);
}

TEST(XxHashTest, AvalancheOnBitFlip) {
  uint64_t key = 0x123456789ABCDEF0ull;
  const uint64_t base = XxHash64(&key, 8, 0);
  double changed = 0;
  for (int bit = 0; bit < 64; ++bit) {
    uint64_t flipped = key ^ (1ull << bit);
    changed += __builtin_popcountll(base ^ XxHash64(&flipped, 8, 0));
  }
  EXPECT_NEAR(changed / 64.0, 32.0, 4.0);
}

TEST(XxHashTest, ReferenceVectors) {
  // Published XXH64 digests (seed 0) of the canonical test strings.
  const struct {
    const char* text;
    uint64_t digest;
  } kVectors[] = {
      {"a", 0xD24EC4F1A98C6E5Bull},
      {"abc", 0x44BC2CF5AD770999ull},
      {"Nobody inspects the spammish repetition", 0xFBCEA83C8A378BF1ull},
  };
  for (const auto& v : kVectors) {
    EXPECT_EQ(XxHash64(v.text, std::strlen(v.text), 0), v.digest) << v.text;
  }
}

TEST(XxHashTest, InlineEightByteFormMatchesByteStream) {
  // XxHasher hashes 8-byte keys with the inlined single-lane XXH64; it must
  // equal the byte-stream XxHash64 over the key's bytes for every key and
  // seed, including the edge words.
  const XxHasher hasher;
  std::vector<uint64_t> keys = {0, 1, ~0ull, 0x8000000000000000ull};
  uint64_t eight;
  std::memcpy(&eight, "12345678", 8);
  keys.push_back(eight);
  std::vector<uint64_t> seeds = {0, 1, ~0ull, 0x9E3779B97F4A7C15ull};
  Xoshiro256 rng(0x1DEA);
  for (int i = 0; i < 2000; ++i) keys.push_back(rng.Next());
  for (int i = 0; i < 64; ++i) seeds.push_back(rng.Next());
  for (uint64_t seed : seeds) {
    for (uint64_t k : keys) {
      ASSERT_EQ(XxHash64Word(k, seed), XxHash64(&k, 8, seed))
          << std::hex << k << " seed " << seed;
      ASSERT_EQ(hasher(k, seed), XxHash64(&k, 8, seed));
      const int64_t signed_key = static_cast<int64_t>(k);
      ASSERT_EQ(hasher(signed_key, seed), XxHash64(&signed_key, 8, seed));
      double as_double;
      std::memcpy(&as_double, &k, 8);
      ASSERT_EQ(hasher(as_double, seed), XxHash64(&as_double, 8, seed));
    }
  }
  // Keys of other widths keep the byte-stream path.
  const uint32_t narrow = 0xDEADBEEF;
  EXPECT_EQ(hasher(narrow, 7), XxHash64(&narrow, 4, 7));
}

// The table must behave identically (correctness-wise) under either
// hasher.
template <typename Hasher>
class TableHasherTest : public ::testing::Test {};

using AllHashers = ::testing::Types<BobHasher, XxHasher>;
TYPED_TEST_SUITE(TableHasherTest, AllHashers);

TYPED_TEST(TableHasherTest, HighLoadRoundTrip) {
  TableOptions o;
  o.buckets_per_table = 512;
  o.maxloop = 200;
  o.deletion_mode = DeletionMode::kResetCounters;
  McCuckooTable<uint64_t, uint64_t, TypeParam> t(o);
  const auto keys = MakeUniqueKeys(t.capacity() * 85 / 100, 11, 0);
  for (uint64_t k : keys) {
    t.Insert(k, k * 3);
  }
  for (size_t i = 0; i < keys.size() / 4; ++i) {
    ASSERT_TRUE(t.Erase(keys[i]));
  }
  for (size_t i = keys.size() / 4; i < keys.size(); ++i) {
    uint64_t v = 0;
    ASSERT_TRUE(t.Find(keys[i], &v)) << keys[i];
    EXPECT_EQ(v, keys[i] * 3);
  }
  EXPECT_TRUE(t.ValidateInvariants().ok());
}

TEST(StringKeyTest, McCuckooWithStringKeysAndValues) {
  TableOptions o;
  o.buckets_per_table = 512;
  o.deletion_mode = DeletionMode::kResetCounters;
  McCuckooTable<std::string, std::string> t(o);
  std::vector<std::string> keys;
  for (int i = 0; i < 1000; ++i) {
    keys.push_back("doc/" + std::to_string(i * 7919) + "/word");
  }
  for (const auto& k : keys) {
    t.Insert(k, "v:" + k);
  }
  for (const auto& k : keys) {
    std::string v;
    ASSERT_TRUE(t.Find(k, &v)) << k;
    EXPECT_EQ(v, "v:" + k);
  }
  EXPECT_FALSE(t.Contains("doc/missing/word"));
  for (size_t i = 0; i < 500; ++i) EXPECT_TRUE(t.Erase(keys[i]));
  for (size_t i = 0; i < 500; ++i) EXPECT_FALSE(t.Contains(keys[i]));
  EXPECT_TRUE(t.ValidateInvariants().ok());
}

}  // namespace
}  // namespace mccuckoo
