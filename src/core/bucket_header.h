// Cache-conscious per-bucket headers and the tag-probe kernels over them.
//
// The paper's model charges one on-chip read per counter and one off-chip
// read per bucket; it says nothing about how the *software* artifact lays
// those bits out in DRAM. Pre-refactor, a lookup on the blocked table paid
// real cache misses far in excess of the model: the counters and tombstones
// lived in two separate packed-word allocations (two extra lines per
// candidate bucket), the stash flags in a third, and the key compare walked
// every occupied slot of every probed bucket.
//
// The BucketHeader collapses the per-bucket screening state into one
// 16-byte, 16-byte-aligned block:
//
//       byte  0..7   tag[s]  - 8-bit key fingerprint of slot s's occupant
//       byte  8..15  meta[s] - bits 0..2: copy counter (0..d, d <= 4)
//                              bit  3:    tombstone mark
//                              bits 4..7: zero (reserved)
//
// Slots past slots_per_bucket are never written and stay all-zero, so
// whole-word (SWAR) and whole-vector (SSE2/AVX2) reductions over the full
// 8 lanes are exact without masking the tail. One aligned 16-byte load
// answers "which slots can possibly hold this key" — the off-chip slot
// line is then touched only for slots whose tag matches AND whose counter
// is non-zero, which for a random probe is ~l/256 false positives.
//
// Everything here is layout + pure functions; the per-slot store over the
// headers is counter_array.h's BucketHeaderArray, and the engine charges the
// paper's accounting where it reads and writes them.

#ifndef MCCUCKOO_CORE_BUCKET_HEADER_H_
#define MCCUCKOO_CORE_BUCKET_HEADER_H_

#include <cstdint>
#include <cstring>

// Compile-time probe selection. SSE2 is the x86-64 baseline; builds for
// other ISAs (or -DMCCUCKOO_PORTABLE_PROBE=ON, which defines
// MCCUCKOO_DISABLE_SIMD_PROBE) fall back to the portable SWAR kernel,
// which the differential tests pin to identical results.
#if defined(__SSE2__) && !defined(MCCUCKOO_DISABLE_SIMD_PROBE)
#define MCCUCKOO_SIMD_PROBE_SSE2 1
#include <emmintrin.h>
#if defined(__AVX2__)
#define MCCUCKOO_SIMD_PROBE_AVX2 1
#include <immintrin.h>
#endif
#endif

namespace mccuckoo {

/// One bucket's screening state: 8 slot tags + 8 slot meta bytes. The
/// 16-byte size and alignment let an SSE2 register load the whole header
/// (aligned), guarantee a header never straddles a cache line, and pack
/// four headers per 64-byte line.
struct alignas(16) BucketHeader {
  uint8_t tag[8];   ///< Key fingerprints; valid only where counter > 0.
  uint8_t meta[8];  ///< Counter bits 0..2, tombstone bit 3, bits 4..7 zero.
};

static_assert(sizeof(BucketHeader) == 16,
              "BucketHeader must be exactly one SSE2 register");
static_assert(alignof(BucketHeader) == 16,
              "aligned 16-byte loads require 16-byte alignment");
static_assert(64 % sizeof(BucketHeader) == 0,
              "headers must tile cache lines without straddling");

/// Bit masks over a meta word (8 meta bytes read as one uint64).
inline constexpr uint64_t kHdrCounterRep = 0x0707070707070707ull;
inline constexpr uint64_t kHdrTombRep = 0x0808080808080808ull;
inline constexpr uint64_t kHdrByteRep = 0x0101010101010101ull;

/// Low 3 bits of each meta byte.
inline constexpr uint8_t kHdrCounterMask = 0x07;
/// Tombstone bit of a meta byte.
inline constexpr uint8_t kHdrTombBit = 0x08;

/// The meta word / tag word of a header as plain integers. memcpy keeps the
/// loads well-typed for UBSan; it compiles to a single mov.
inline uint64_t HdrMetaWord(const BucketHeader& h) {
  uint64_t w;
  std::memcpy(&w, h.meta, sizeof(w));
  return w;
}
inline uint64_t HdrTagWord(const BucketHeader& h) {
  uint64_t w;
  std::memcpy(&w, h.tag, sizeof(w));
  return w;
}

/// 0x01 repeated over the low `l` bytes — the meta word of a bucket whose
/// `l` real slots all hold counter 1 (tails are zero by construction).
inline constexpr uint64_t HdrAllOnesWord(uint32_t l) {
  return l >= 8 ? kHdrByteRep : ((uint64_t{1} << (8 * l)) - 1) & kHdrByteRep;
}

/// 0x80 in every byte of `x` that is zero; exact per byte (no borrow
/// artifacts, Hacker's Delight 6-2).
inline uint64_t HdrZeroBytes(uint64_t x) {
  constexpr uint64_t k7f = 0x7F7F7F7F7F7F7F7Full;
  const uint64_t nonzero = ((x & k7f) + k7f) | x;  // bit 7 set <=> byte != 0
  return ~nonzero & 0x8080808080808080ull;
}

/// Compresses a 0x00/0x80-per-byte mask to one bit per byte (bit s = byte
/// s non-zero). The multiply routes byte s's 0x80 to output bit 56 + s;
/// all partial products land on distinct bit positions, so no carries.
inline uint32_t HdrByteMaskToBits(uint64_t m80) {
  return static_cast<uint32_t>((m80 * 0x0002040810204081ull) >> 56);
}

/// Portable probe kernel: bitmask (bit s set) of slots whose tag equals
/// `tag` and whose counter is non-zero. Pure SWAR — this is the reference
/// the SIMD kernels are differentially tested against.
inline uint32_t TagMatchMaskScalar(const BucketHeader& h, uint8_t tag) {
  const uint64_t eq80 = HdrZeroBytes(HdrTagWord(h) ^ (kHdrByteRep * tag));
  const uint64_t empty80 = HdrZeroBytes(HdrMetaWord(h) & kHdrCounterRep);
  return HdrByteMaskToBits(eq80 & ~empty80);
}

#if defined(MCCUCKOO_SIMD_PROBE_SSE2)
/// SSE2 probe kernel: one aligned 16-byte load covers tags and meta; the
/// two movemask halves give tag-equality (bits 0..7) and counter-emptiness
/// (bits 8..15) in one pass.
inline uint32_t TagMatchMaskSse2(const BucketHeader& h, uint8_t tag) {
  const __m128i v = _mm_load_si128(reinterpret_cast<const __m128i*>(&h));
  const __m128i eq =
      _mm_cmpeq_epi8(v, _mm_set1_epi8(static_cast<char>(tag)));
  const __m128i empty = _mm_cmpeq_epi8(
      _mm_and_si128(v, _mm_set1_epi8(kHdrCounterMask)), _mm_setzero_si128());
  const uint32_t eq_bits = static_cast<uint32_t>(_mm_movemask_epi8(eq));
  const uint32_t empty_bits = static_cast<uint32_t>(_mm_movemask_epi8(empty));
  return eq_bits & ~(empty_bits >> 8) & 0xFFu;
}
#endif  // MCCUCKOO_SIMD_PROBE_SSE2

#if defined(MCCUCKOO_SIMD_PROBE_AVX2)
/// AVX2 probe kernel: two candidate headers screened per 256-bit pass.
/// Used by the blocked table's lookup, which computes the match masks of
/// all d candidate buckets up front (good ILP; d is 2..4).
inline void TagMatchMask2Avx2(const BucketHeader& a, const BucketHeader& b,
                              uint8_t tag, uint32_t* mask_a,
                              uint32_t* mask_b) {
  const __m256i v = _mm256_inserti128_si256(
      _mm256_castsi128_si256(
          _mm_load_si128(reinterpret_cast<const __m128i*>(&a))),
      _mm_load_si128(reinterpret_cast<const __m128i*>(&b)), 1);
  const __m256i eq =
      _mm256_cmpeq_epi8(v, _mm256_set1_epi8(static_cast<char>(tag)));
  const __m256i empty =
      _mm256_cmpeq_epi8(_mm256_and_si256(v, _mm256_set1_epi8(kHdrCounterMask)),
                        _mm256_setzero_si256());
  const uint32_t eq_bits = static_cast<uint32_t>(_mm256_movemask_epi8(eq));
  const uint32_t empty_bits =
      static_cast<uint32_t>(_mm256_movemask_epi8(empty));
  const uint32_t live = eq_bits & ~(empty_bits >> 8);
  *mask_a = live & 0xFFu;
  *mask_b = (live >> 16) & 0xFFu;
}
#endif  // MCCUCKOO_SIMD_PROBE_AVX2

/// Match masks for all `d` candidate headers with the best kernel compiled
/// in (AVX2 pairs > SSE2 singles > scalar). Callers gate on the *runtime*
/// probe selection; this symbol always exists so the dispatch code needs
/// no preprocessor conditionals.
inline void SimdTagMatchMasks(const BucketHeader* const* h, uint32_t d,
                              uint8_t tag, uint32_t* out) {
#if defined(MCCUCKOO_SIMD_PROBE_AVX2)
  uint32_t t = 0;
  for (; t + 2 <= d; t += 2) {
    TagMatchMask2Avx2(*h[t], *h[t + 1], tag, &out[t], &out[t + 1]);
  }
  if (t < d) out[t] = TagMatchMaskSse2(*h[t], tag);
#elif defined(MCCUCKOO_SIMD_PROBE_SSE2)
  for (uint32_t t = 0; t < d; ++t) out[t] = TagMatchMaskSse2(*h[t], tag);
#else
  for (uint32_t t = 0; t < d; ++t) out[t] = TagMatchMaskScalar(*h[t], tag);
#endif
}

/// True when this binary carries a vector probe kernel.
inline constexpr bool kSimdProbeAvailable =
#if defined(MCCUCKOO_SIMD_PROBE_SSE2)
    true;
#else
    false;
#endif

/// Which probe kernel a table uses for tag screening. Chosen at
/// construction (TableOptions::probe) so one binary can run both variants
/// side by side — that is what the scalar-vs-SIMD differential tests and
/// the `.simd.` / `.scalar.` benchmark keys rely on.
enum class ProbeKind {
  kAuto,    ///< SIMD when compiled in, scalar otherwise (the default).
  kScalar,  ///< Force the portable SWAR kernel.
  kSimd,    ///< Require the vector kernel; Validate() rejects it when the
            ///< build carries none.
};

/// Resolves kAuto against what this binary was compiled with.
inline ProbeKind ResolveProbeKind(ProbeKind k) {
  if (k == ProbeKind::kAuto) {
    return kSimdProbeAvailable ? ProbeKind::kSimd : ProbeKind::kScalar;
  }
  return k;
}

/// Short stable name of the *resolved* kind ("simd" / "scalar"); bench
/// keys embed it so recorded numbers say which kernel produced them.
inline const char* ProbeKindToString(ProbeKind k) {
  switch (ResolveProbeKind(k)) {
    case ProbeKind::kSimd:   return "simd";
    case ProbeKind::kScalar: return "scalar";
    case ProbeKind::kAuto:   break;  // unreachable: ResolveProbeKind folds it
  }
  return "unknown";
}

}  // namespace mccuckoo

#endif  // MCCUCKOO_CORE_BUCKET_HEADER_H_
