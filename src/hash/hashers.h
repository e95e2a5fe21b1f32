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
#include <type_traits>

#include "src/hash/jenkins.h"
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

}  // namespace mccuckoo

#endif  // MCCUCKOO_HASH_HASHERS_H_
