#include "src/hash/xxhash.h"

#include <cstring>

namespace mccuckoo {

namespace {

using xxh64::kP1;
using xxh64::kP2;
using xxh64::kP3;
using xxh64::kP4;
using xxh64::kP5;
using xxh64::Rotl;
using xxh64::Round;

inline uint64_t Load64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline uint32_t Load32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline uint64_t MergeRound(uint64_t acc, uint64_t val) {
  acc ^= Round(0, val);
  return acc * kP1 + kP4;
}

}  // namespace

uint64_t XxHash64(const void* data, size_t len, uint64_t seed) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  const uint8_t* const end = p + len;
  uint64_t h;

  if (len >= 32) {
    uint64_t v1 = seed + kP1 + kP2;
    uint64_t v2 = seed + kP2;
    uint64_t v3 = seed;
    uint64_t v4 = seed - kP1;
    const uint8_t* const limit = end - 32;
    do {
      v1 = Round(v1, Load64(p));
      v2 = Round(v2, Load64(p + 8));
      v3 = Round(v3, Load64(p + 16));
      v4 = Round(v4, Load64(p + 24));
      p += 32;
    } while (p <= limit);
    h = Rotl(v1, 1) + Rotl(v2, 7) + Rotl(v3, 12) + Rotl(v4, 18);
    h = MergeRound(h, v1);
    h = MergeRound(h, v2);
    h = MergeRound(h, v3);
    h = MergeRound(h, v4);
  } else {
    h = seed + kP5;
  }

  h += static_cast<uint64_t>(len);

  while (p + 8 <= end) {
    h ^= Round(0, Load64(p));
    h = Rotl(h, 27) * kP1 + kP4;
    p += 8;
  }
  if (p + 4 <= end) {
    h ^= static_cast<uint64_t>(Load32(p)) * kP1;
    h = Rotl(h, 23) * kP2 + kP3;
    p += 4;
  }
  while (p < end) {
    h ^= static_cast<uint64_t>(*p) * kP5;
    h = Rotl(h, 11) * kP1;
    ++p;
  }

  return xxh64::Avalanche(h);
}

}  // namespace mccuckoo
