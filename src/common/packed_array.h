// A densely packed array of fixed-width unsigned integers.
//
// MinCounter's kick-history counters (core/eviction.h) live here: the
// paper's premise is that such per-bucket counters sit in small on-chip
// SRAM, so each takes only its few bits (5 in [17]). Widths from 1 to 32
// bits are supported; an entry whose width does not divide 64 may straddle
// two words, and Get/Set handle that.

#ifndef MCCUCKOO_COMMON_PACKED_ARRAY_H_
#define MCCUCKOO_COMMON_PACKED_ARRAY_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace mccuckoo {

/// Fixed-width packed unsigned integer array.
class PackedArray {
 public:
  PackedArray() = default;

  /// Creates an array of `size` entries of `bits` bits each, zero-filled.
  /// Requires 1 <= bits <= 32.
  PackedArray(size_t size, uint32_t bits)
      : size_(size), bits_(bits), mask_((1ull << bits) - 1) {
    assert(bits >= 1 && bits <= 32);
    words_.assign((size * bits + 63) / 64, 0);
  }

  /// Number of entries.
  size_t size() const { return size_; }

  /// Bits per entry.
  uint32_t bits() const { return bits_; }

  /// Maximum storable value.
  uint64_t max_value() const { return mask_; }

  /// Bytes of backing storage (what would need to fit on-chip).
  size_t memory_bytes() const { return words_.size() * sizeof(uint64_t); }

  /// Reads entry `i`.
  uint64_t Get(size_t i) const {
    assert(i < size_);
    const size_t bit = i * bits_;
    const size_t word = bit >> 6;
    const uint32_t off = static_cast<uint32_t>(bit & 63);
    uint64_t v = words_[word] >> off;
    if (off + bits_ > 64) {
      v |= words_[word + 1] << (64 - off);
    }
    return v & mask_;
  }

  /// Writes entry `i` = v (v must fit in `bits`).
  void Set(size_t i, uint64_t v) {
    assert(i < size_);
    assert(v <= mask_);
    const size_t bit = i * bits_;
    const size_t word = bit >> 6;
    const uint32_t off = static_cast<uint32_t>(bit & 63);
    words_[word] = (words_[word] & ~(mask_ << off)) | (v << off);
    if (off + bits_ > 64) {
      const uint32_t hi = bits_ - (64 - off);
      const uint64_t himask = (1ull << hi) - 1;
      words_[word + 1] = (words_[word + 1] & ~himask) | (v >> (64 - off));
    }
  }

 private:
  size_t size_ = 0;
  uint32_t bits_ = 0;
  uint64_t mask_ = 0;
  std::vector<uint64_t> words_;
};

}  // namespace mccuckoo

#endif  // MCCUCKOO_COMMON_PACKED_ARRAY_H_
