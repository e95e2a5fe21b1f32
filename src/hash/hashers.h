// Seedable key hashers.
//
// A Hasher maps (key, seed) -> uint64. The tables derive their d candidate
// buckets by running one Hasher under d decorrelated seeds (see
// hash_family.h), which is exactly how the paper instantiates BOB hash.

#ifndef MCCUCKOO_HASH_HASHERS_H_
#define MCCUCKOO_HASH_HASHERS_H_

#include <concepts>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "src/common/rng.h"
#include "src/hash/jenkins.h"
#include "src/hash/murmur3.h"
#include "src/hash/xxhash.h"

namespace mccuckoo {

/// Requirements for a key hasher usable by the tables.
template <typename H, typename Key>
concept SeedableHasher = requires(const H h, const Key& k, uint64_t seed) {
  { h(k, seed) } -> std::convertible_to<uint64_t>;
};

/// BOB hash (Jenkins lookup2) over the key's object representation for
/// trivially copyable keys, or over the character data for strings. This is
/// the paper-faithful default.
struct BobHasher {
  template <typename Key>
    requires std::is_trivially_copyable_v<Key>
  uint64_t operator()(const Key& key, uint64_t seed) const {
    return JenkinsLookup2x64(&key, sizeof(Key), seed);
  }

  uint64_t operator()(const std::string& key, uint64_t seed) const {
    return JenkinsLookup2x64(key.data(), key.size(), seed);
  }
  uint64_t operator()(std::string_view key, uint64_t seed) const {
    return JenkinsLookup2x64(key.data(), key.size(), seed);
  }
};

/// Jenkins lookup3 (hashlittle2) variant; stronger mixing, one pass.
struct Lookup3Hasher {
  template <typename Key>
    requires std::is_trivially_copyable_v<Key>
  uint64_t operator()(const Key& key, uint64_t seed) const {
    return JenkinsLookup3(&key, sizeof(Key), seed);
  }

  uint64_t operator()(const std::string& key, uint64_t seed) const {
    return JenkinsLookup3(key.data(), key.size(), seed);
  }
  uint64_t operator()(std::string_view key, uint64_t seed) const {
    return JenkinsLookup3(key.data(), key.size(), seed);
  }
};

/// Fast mixer for 64-bit integral keys (SplitMix64 finalizer). Used by the
/// wall-clock microbenchmarks where hashing cost matters; statistically
/// indistinguishable from BOB hash for the simulation metrics.
struct SplitMixHasher {
  uint64_t operator()(uint64_t key, uint64_t seed) const {
    return SplitMix64(key ^ (seed * 0x9E3779B97F4A7C15ull));
  }
};

/// XXH64-backed hasher (see src/hash/xxhash.h). 8-byte keys take the
/// inlined single-lane form; every key hashes to the same value as the
/// byte-stream XxHash64 over its object representation.
struct XxHasher {
  template <typename Key>
    requires std::is_trivially_copyable_v<Key>
  uint64_t operator()(const Key& key, uint64_t seed) const {
    if constexpr (sizeof(Key) == sizeof(uint64_t)) {
      uint64_t word;
      std::memcpy(&word, &key, sizeof(word));
      return XxHash64Word(word, seed);
    } else {
      return XxHash64(&key, sizeof(Key), seed);
    }
  }
  uint64_t operator()(const std::string& key, uint64_t seed) const {
    return XxHash64(key.data(), key.size(), seed);
  }
  uint64_t operator()(std::string_view key, uint64_t seed) const {
    return XxHash64(key.data(), key.size(), seed);
  }
};

/// MurmurHash3 x64_128-backed hasher (low half; see src/hash/murmur3.h).
struct Murmur3Hasher {
  template <typename Key>
    requires std::is_trivially_copyable_v<Key>
  uint64_t operator()(const Key& key, uint64_t seed) const {
    return Murmur3x64(&key, sizeof(Key), seed);
  }
  uint64_t operator()(const std::string& key, uint64_t seed) const {
    return Murmur3x64(key.data(), key.size(), seed);
  }
  uint64_t operator()(std::string_view key, uint64_t seed) const {
    return Murmur3x64(key.data(), key.size(), seed);
  }
};

/// Multiplication-free mixer in the spirit of the paper's FPGA build, which
/// replaced BOB hash with "a much simpler hash implementation that only
/// involves modulo and bit operations" (§IV.A.2): rotate/xor/add rounds
/// that synthesize to a few LUT levels. Weaker than the others — fine for
/// uniform keys, not for adversarial ones.
struct SimpleFpgaHasher {
  uint64_t operator()(uint64_t key, uint64_t seed) const {
    uint64_t x = key ^ seed;
    for (int round = 0; round < 3; ++round) {
      x ^= (x << 13) | (x >> 51);
      x += (x << 25) | (x >> 39);
      x ^= x >> 17;
      x += seed;
    }
    return x;
  }
};

}  // namespace mccuckoo

#endif  // MCCUCKOO_HASH_HASHERS_H_
