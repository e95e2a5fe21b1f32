#include "src/hash/hash_family.h"

#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "src/common/bits.h"
#include "src/common/rng.h"

namespace mccuckoo {
namespace {

TEST(HashFamilyTest, BucketsWithinRange) {
  HashFamily<uint64_t> f(3, 1000, 1);
  for (uint64_t k = 0; k < 5000; ++k) {
    for (uint32_t t = 0; t < 3; ++t) {
      EXPECT_LT(f.Bucket(k, t), 1000u);
    }
  }
}

TEST(HashFamilyTest, Deterministic) {
  HashFamily<uint64_t> a(3, 1 << 16, 99), b(3, 1 << 16, 99);
  for (uint64_t k = 0; k < 100; ++k) {
    for (uint32_t t = 0; t < 3; ++t) EXPECT_EQ(a.Bucket(k, t), b.Bucket(k, t));
  }
}

TEST(HashFamilyTest, TablesAreDecorrelated) {
  HashFamily<uint64_t> f(3, 1 << 16, 5);
  int equal01 = 0, equal12 = 0;
  constexpr int kKeys = 20000;
  for (uint64_t k = 0; k < kKeys; ++k) {
    const auto b = f.Buckets(k);
    equal01 += (b[0] == b[1]);
    equal12 += (b[1] == b[2]);
  }
  // Chance collision rate is kKeys / 65536 ≈ 0.3 expected per pair-of-keys…
  // i.e. about kKeys/65536 per key; allow generous slack.
  EXPECT_LT(equal01, kKeys / 1000);
  EXPECT_LT(equal12, kKeys / 1000);
}

TEST(HashFamilyTest, SeedsChangeMapping) {
  HashFamily<uint64_t> a(2, 1 << 16, 1), b(2, 1 << 16, 2);
  int same = 0;
  for (uint64_t k = 0; k < 1000; ++k) {
    same += (a.Bucket(k, 0) == b.Bucket(k, 0));
  }
  EXPECT_LT(same, 10);
}

TEST(HashFamilyTest, RoughlyUniformOccupancy) {
  constexpr uint64_t kBuckets = 64;
  HashFamily<uint64_t> f(2, kBuckets, 3);
  std::vector<int> counts(kBuckets, 0);
  constexpr int kKeys = 64000;
  for (uint64_t k = 0; k < kKeys; ++k) ++counts[f.Bucket(k, 0)];
  for (uint64_t b = 0; b < kBuckets; ++b) {
    EXPECT_NEAR(counts[b], kKeys / kBuckets, kKeys / kBuckets * 0.2) << b;
  }
}

TEST(HashFamilyTest, SupportsDifferentD) {
  for (uint32_t d = 2; d <= kMaxHashes; ++d) {
    HashFamily<uint64_t> f(d, 100, 1);
    EXPECT_EQ(f.d(), d);
    const auto b = f.Buckets(12345);
    for (uint32_t t = 0; t < d; ++t) EXPECT_LT(b[t], 100u);
  }
}

TEST(HashFamilyTest, BucketsMatchesBucket) {
  // Every fused entry point must agree with the per-table Bucket() and
  // take the tag from the t = 0 hash.
  constexpr size_t kKeys = 300;
  std::vector<uint64_t> keys(kKeys);
  for (size_t i = 0; i < kKeys; ++i) keys[i] = i * 0x9E3779B97F4A7C15ull;
  const BobHasher hasher;
  for (uint32_t d = 2; d <= kMaxHashes; ++d) {
    HashFamily<uint64_t> f(d, 512, 11);
    std::vector<std::array<uint64_t, kMaxHashes>> batch(kKeys);
    std::vector<std::array<uint64_t, kMaxHashes>> tagged_batch(kKeys);
    std::vector<uint8_t> batch_tags(kKeys);
    f.BucketsBatch(keys.data(), kKeys, batch.data());
    f.BucketsBatch(keys.data(), kKeys, tagged_batch.data(), batch_tags.data());
    // The family's t = 0 seed; the assertion on Bucket(k, 0) below checks
    // that this reconstruction of it is right.
    const uint64_t seed0 = SplitMix64(11 + 0x517CC1B727220A95ull);
    for (size_t i = 0; i < kKeys; ++i) {
      const uint64_t k = keys[i];
      const uint64_t h0 = hasher(k, seed0);
      ASSERT_EQ(FastRange64(h0, 512), f.Bucket(k, 0)) << k;
      uint8_t tag = 0;
      const auto plain = f.Buckets(k);
      const auto tagged = f.Buckets(k, &tag);
      EXPECT_EQ(tag, TagFromHash(h0)) << k;
      EXPECT_EQ(batch_tags[i], tag) << k;
      for (uint32_t t = 0; t < d; ++t) {
        const uint64_t want = f.Bucket(k, t);
        EXPECT_EQ(plain[t], want) << "d " << d << " key " << k;
        EXPECT_EQ(tagged[t], want) << "d " << d << " key " << k;
        EXPECT_EQ(batch[i][t], want) << "d " << d << " key " << k;
        EXPECT_EQ(tagged_batch[i][t], want) << "d " << d << " key " << k;
      }
    }
  }
}

}  // namespace
}  // namespace mccuckoo
