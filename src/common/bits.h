// Small bit-manipulation helpers shared across modules.

#ifndef MCCUCKOO_COMMON_BITS_H_
#define MCCUCKOO_COMMON_BITS_H_

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace mccuckoo {

/// Maps a 64-bit hash value uniformly onto [0, n) without division
/// (Lemire's "fastrange"). Requires n > 0.
inline uint64_t FastRange64(uint64_t hash, uint64_t n) {
  return static_cast<uint64_t>(
      (static_cast<__uint128_t>(hash) * static_cast<__uint128_t>(n)) >> 64);
}

/// Number of bits needed to represent values in [0, v] (at least 1).
inline uint32_t BitWidthFor(uint64_t v) {
  uint32_t w = static_cast<uint32_t>(std::bit_width(v));
  return w == 0 ? 1u : w;
}

/// Rounds `v` up to the next multiple of `m` (m > 0).
inline uint64_t RoundUp(uint64_t v, uint64_t m) {
  return (v + m - 1) / m * m;
}

/// Integer ceiling division (b > 0).
inline uint64_t CeilDiv(uint64_t a, uint64_t b) { return (a + b - 1) / b; }

/// Fixed-size packed bit array over uint64_t words. Unlike
/// std::vector<bool>, the word layout is explicit: callers can prefetch the
/// word that holds a bit (`WordAddr`) and scan set bits a word at a time
/// (`ForEachSetBit`), which the stash-flag probe path relies on.
class BitArray {
 public:
  BitArray() = default;
  explicit BitArray(size_t num_bits)
      : num_bits_(num_bits), words_((num_bits + 63) / 64, 0) {}

  size_t size() const { return num_bits_; }
  size_t num_words() const { return words_.size(); }

  bool Test(size_t i) const {
    return (words_[i >> 6] >> (i & 63)) & 1u;
  }
  void Set(size_t i) { words_[i >> 6] |= uint64_t{1} << (i & 63); }
  void Reset(size_t i) { words_[i >> 6] &= ~(uint64_t{1} << (i & 63)); }

  /// Relaxed-atomic forms for a word that several threads touch at once,
  /// each setting or testing bits of its own: Set's plain |= and Test's
  /// plain load would race those accesses.
  bool AtomicTest(size_t i) const {
    return (__atomic_load_n(&words_[i >> 6], __ATOMIC_RELAXED) >> (i & 63)) &
           1u;
  }
  void AtomicSet(size_t i) {
    std::atomic_ref<uint64_t>(words_[i >> 6])
        .fetch_or(uint64_t{1} << (i & 63), std::memory_order_relaxed);
  }

  void ClearAll() { std::fill(words_.begin(), words_.end(), 0); }

  /// Pointer-wise storage exchange: no operand passes through a transient
  /// moved-from state, so a seqlock-validated reader racing the exchange
  /// always dereferences one of the two live word buffers.
  void Swap(BitArray& other) {
    std::swap(num_bits_, other.num_bits_);
    words_.swap(other.words_);
  }

  uint64_t Word(size_t w) const { return words_[w]; }

  /// Address of the word holding bit `i`, for software prefetch.
  const uint64_t* WordAddr(size_t i) const { return &words_[i >> 6]; }

  /// Calls `fn(bit_index)` for every set bit, in increasing order.
  template <typename Fn>
  void ForEachSetBit(Fn&& fn) const {
    for (size_t w = 0; w < words_.size(); ++w) {
      uint64_t word = words_[w];
      while (word != 0) {
        size_t bit = static_cast<size_t>(std::countr_zero(word));
        fn(w * 64 + bit);
        word &= word - 1;
      }
    }
  }

 private:
  size_t num_bits_ = 0;
  std::vector<uint64_t> words_;
};

}  // namespace mccuckoo

#endif  // MCCUCKOO_COMMON_BITS_H_
