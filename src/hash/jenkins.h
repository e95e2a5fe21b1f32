// Bob Jenkins' lookup2 hash.
//
// The paper uses "BOB Hash" (burtleburtle.net/bob/hash/evahash.html), which
// is Jenkins' 1996 `lookup2` hash. This is a faithful, seedable
// reimplementation, so a d-hash family can be derived from one algorithm
// with d seeds exactly as the paper's experiments do.
//
// Everything is defined inline: the tables hash fixed-size keys on every
// operation, and with the length visible at the call site the tail switch
// folds to straight-line code and the d per-key evaluations interleave in
// the out-of-order window instead of serializing behind call overhead (the
// single hottest non-memory cost of a lookup).

#ifndef MCCUCKOO_HASH_JENKINS_H_
#define MCCUCKOO_HASH_JENKINS_H_

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace mccuckoo {

namespace jenkins_internal {

inline void Mix2(uint32_t& a, uint32_t& b, uint32_t& c) {
  a -= b; a -= c; a ^= (c >> 13);
  b -= c; b -= a; b ^= (a << 8);
  c -= a; c -= b; c ^= (b >> 13);
  a -= b; a -= c; a ^= (c >> 12);
  b -= c; b -= a; b ^= (a << 16);
  c -= a; c -= b; c ^= (b >> 5);
  a -= b; a -= c; a ^= (c >> 3);
  b -= c; b -= a; b ^= (a << 10);
  c -= a; c -= b; c ^= (b >> 15);
}

inline uint32_t Load32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;  // little-endian platform assumed (x86/ARM LE), as in evahash
}

}  // namespace jenkins_internal

/// Jenkins lookup2 ("evahash", 1996) over an arbitrary byte string.
/// Returns a 32-bit hash; `seed` is the `initval` of the original code.
inline uint32_t JenkinsLookup2(const void* data, size_t len, uint32_t seed) {
  using jenkins_internal::Load32;
  using jenkins_internal::Mix2;
  const uint8_t* k = static_cast<const uint8_t*>(data);
  uint32_t a = 0x9E3779B9u;
  uint32_t b = 0x9E3779B9u;
  uint32_t c = seed;
  size_t remaining = len;

  while (remaining >= 12) {
    a += Load32(k);
    b += Load32(k + 4);
    c += Load32(k + 8);
    Mix2(a, b, c);
    k += 12;
    remaining -= 12;
  }

  c += static_cast<uint32_t>(len);
  // The original tail: note c skips its lowest byte (reserved for length).
  switch (remaining) {
    case 11: c += static_cast<uint32_t>(k[10]) << 24; [[fallthrough]];
    case 10: c += static_cast<uint32_t>(k[9]) << 16; [[fallthrough]];
    case 9:  c += static_cast<uint32_t>(k[8]) << 8; [[fallthrough]];
    case 8:  b += static_cast<uint32_t>(k[7]) << 24; [[fallthrough]];
    case 7:  b += static_cast<uint32_t>(k[6]) << 16; [[fallthrough]];
    case 6:  b += static_cast<uint32_t>(k[5]) << 8; [[fallthrough]];
    case 5:  b += static_cast<uint32_t>(k[4]); [[fallthrough]];
    case 4:  a += static_cast<uint32_t>(k[3]) << 24; [[fallthrough]];
    case 3:  a += static_cast<uint32_t>(k[2]) << 16; [[fallthrough]];
    case 2:  a += static_cast<uint32_t>(k[1]) << 8; [[fallthrough]];
    case 1:  a += static_cast<uint32_t>(k[0]); [[fallthrough]];
    case 0:  break;
  }
  Mix2(a, b, c);
  return c;
}

/// 64-bit convenience built from two lookup2 passes with decorrelated
/// seeds. This mirrors the common practice of deriving wide hashes from BOB
/// hash on 32-bit hardware.
inline uint64_t JenkinsLookup2x64(const void* data, size_t len,
                                  uint64_t seed) {
  const uint32_t lo = JenkinsLookup2(data, len, static_cast<uint32_t>(seed));
  // Decorrelate the second pass from the first: golden-ratio offset of the
  // high seed half XORed with the low result.
  const uint32_t hi = JenkinsLookup2(
      data, len, static_cast<uint32_t>(seed >> 32) ^ lo ^ 0x9E3779B9u);
  return static_cast<uint64_t>(lo) | (static_cast<uint64_t>(hi) << 32);
}

}  // namespace mccuckoo

#endif  // MCCUCKOO_HASH_JENKINS_H_
