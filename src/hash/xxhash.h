// XXH64 — a fast modern 64-bit hash, provided as an alternative Hasher for
// the tables (the paper's access-count results are hash-agnostic as long as
// the family is uniform; wall-clock microbenchmarks are not).

#ifndef MCCUCKOO_HASH_XXHASH_H_
#define MCCUCKOO_HASH_XXHASH_H_

#include <cstddef>
#include <cstdint>

namespace mccuckoo {

/// XXH64 of `len` bytes at `data` under `seed`. Faithful reimplementation
/// of the reference algorithm (Yann Collet, BSD).
uint64_t XxHash64(const void* data, size_t len, uint64_t seed);

namespace xxh64 {

inline constexpr uint64_t kP1 = 0x9E3779B185EBCA87ull;
inline constexpr uint64_t kP2 = 0xC2B2AE3D27D4EB4Full;
inline constexpr uint64_t kP3 = 0x165667B19E3779F9ull;
inline constexpr uint64_t kP4 = 0x85EBCA77C2B2AE63ull;
inline constexpr uint64_t kP5 = 0x27D4EB2F165667C5ull;

inline uint64_t Rotl(uint64_t x, int r) { return (x << r) | (x >> (64 - r)); }

inline uint64_t Round(uint64_t acc, uint64_t input) {
  acc += input * kP2;
  acc = Rotl(acc, 31);
  return acc * kP1;
}

inline uint64_t Avalanche(uint64_t h) {
  h ^= h >> 33;
  h *= kP2;
  h ^= h >> 29;
  h *= kP3;
  h ^= h >> 32;
  return h;
}

}  // namespace xxh64

/// XXH64 of the 8 bytes of `word` (native byte order) under `seed`: the
/// reference algorithm's single-lane path for len == 8, inlined so a table
/// probing d sub-tables of a uint64_t key pays no call or length dispatch.
/// Equal to XxHash64(&word, 8, seed) bit for bit.
inline uint64_t XxHash64Word(uint64_t word, uint64_t seed) {
  uint64_t h = seed + xxh64::kP5 + 8;
  h ^= xxh64::Round(0, word);
  h = xxh64::Rotl(h, 27) * xxh64::kP1 + xxh64::kP4;
  return xxh64::Avalanche(h);
}

}  // namespace mccuckoo

#endif  // MCCUCKOO_HASH_XXHASH_H_
