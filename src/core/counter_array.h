// The on-chip copy-counter arrays (paper §III.C).
//
// One small counter per bucket (single-slot) or per slot (blocked) records
// how many live copies the occupying item currently has in the whole table:
// 0 = empty, 1..d = copy count. For d = 3 each counter is exactly 2 bits,
// which is what lets the whole array fit in on-chip SRAM next to a large
// off-chip table. Tombstone ("deleted") marks — used by
// DeletionMode::kTombstone — are treated as empty by insertion and as
// non-zero by the lookup Bloom rule.
//
// Software keeps each entry's counter, tombstone bit and key fingerprint in
// one byte (TagCounterArray for the single-slot table, BucketHeaderArray
// for the blocked one), so one load screens a candidate. The stores are
// plain storage: they charge nothing. The engine charges the paper's model
// (Figs 15-16's on-chip traffic) where it reads and writes them, in
// TableSkeleton and the layouts' probes, and computes the modeled packed
// size from the geometry (ModeledPackedBytes).
//
// Each mutator writes its whole byte with one relaxed atomic store, for the
// single writer and the striped writers alike. Striped writer locks
// guarantee that at most one writer mutates a given entry (the entry's
// bucket stripe is held for every counter, tombstone and tag change), and
// each entry is its own byte, so two writers never share a memory location:
// no CAS loop is needed, and since the whole byte is written at once, a
// compiler-widened read-modify-write can never resurrect a stale tag or
// tombstone nibble. Optimistic readers see either the old or the new byte
// (and validate through the seqlock), and TSan observes the stores as
// atomics.

#ifndef MCCUCKOO_CORE_COUNTER_ARRAY_H_
#define MCCUCKOO_CORE_COUNTER_ARRAY_H_

#include <atomic>
#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/common/prefetch.h"
#include "src/core/bucket_header.h"

namespace mccuckoo {

/// Modeled on-chip byte cost of `size` packed counters of `bits` bits each,
/// rounded up to whole 64-bit words: what the paper's hardware would spend,
/// not the arrays below, which also store tags and padding.
inline size_t ModeledPackedBytes(size_t size, uint32_t bits) {
  return ((size * bits + 63) / 64) * 8;
}

/// The blocked table's counter store, reorganized as cache-line-friendly
/// BucketHeaders (see bucket_header.h): slot s of bucket b lives in
/// headers_[b].meta[s] / .tag[s]. It offers TagCounterArray's per-slot
/// interface, so the insert/erase/eviction paths are written once for both
/// layouts; the lookup paths read whole headers through HeaderAt().
class BucketHeaderArray {
 public:
  /// `num_slots` slot entries grouped `slots_per_bucket` to a header.
  BucketHeaderArray(size_t num_slots, uint32_t slots_per_bucket)
      : headers_((num_slots + slots_per_bucket - 1) / slots_per_bucket),
        l_(slots_per_bucket),
        ones_word_(HdrAllOnesWord(slots_per_bucket)) {
    assert(slots_per_bucket >= 1 && slots_per_bucket <= 8);
  }

  /// Meta word for a bucket whose l slots all hold counter 1 (the
  /// kDisabled stash screen's "every candidate bucket full" test).
  uint64_t ones_word() const { return ones_word_; }

  /// Sets slot `i`'s counter to `v` and clears any tombstone. The tag byte
  /// is untouched: key writes flow through the skeleton's slot-store choke
  /// point, which calls SetTag() itself.
  void Set(size_t i, uint64_t v) {
    std::atomic_ref<uint8_t>(headers_[i / l_].meta[i % l_])
        .store(static_cast<uint8_t>(v) & kHdrCounterMask,
               std::memory_order_relaxed);
  }

  /// Marks slot `i` deleted (counter reads as 0, tombstone set).
  void MarkDeleted(size_t i) {
    std::atomic_ref<uint8_t>(headers_[i / l_].meta[i % l_])
        .store(kHdrTombBit, std::memory_order_relaxed);
  }

  /// Records the fingerprint of slot `i`'s occupant.
  void SetTag(size_t i, uint8_t tag) {
    std::atomic_ref<uint8_t>(headers_[i / l_].tag[i % l_])
        .store(tag, std::memory_order_relaxed);
  }

  uint64_t PeekCounter(size_t i) const {
    return headers_[i / l_].meta[i % l_] & kHdrCounterMask;
  }
  bool PeekTombstone(size_t i) const {
    return (headers_[i / l_].meta[i % l_] & kHdrTombBit) != 0;
  }
  uint8_t PeekTag(size_t i) const { return headers_[i / l_].tag[i % l_]; }

  /// The raw header of bucket `b` — the lookup kernels' entry point.
  const BucketHeader& HeaderAt(size_t b) const { return headers_[b]; }

  /// Warms the header of the bucket containing slot `i` (one line covers
  /// its tags, counters and tombstones).
  void Prefetch(size_t i) const {
    PrefetchLine<0, 3>(&headers_[i / l_]);
  }

  /// Pointer-wise storage exchange (see TagCounterArray::SwapStorage).
  void SwapStorage(BucketHeaderArray& other) {
    headers_.swap(other.headers_);
    std::swap(l_, other.l_);
    std::swap(ones_word_, other.ones_word_);
  }

 private:
  std::vector<BucketHeader> headers_;
  uint32_t l_;
  uint64_t ones_word_;
};

/// The single-slot table's counter store: one byte per bucket packing the
/// copy counter (bits 0..2), the tombstone mark (bit 3) and a 4-bit key
/// fingerprint (bits 4..7), so one byte read screens a candidate bucket.
/// Each mutator loads the byte and stores it whole, keeping the other
/// nibble (see the file comment).
class TagCounterArray {
 public:
  explicit TagCounterArray(size_t size) : bytes_(size, 0) {}

  size_t size() const { return bytes_.size(); }

  /// Sets counter `i` to `v`, clears any tombstone, keeps the tag nibble.
  void Set(size_t i, uint64_t v) {
    const uint8_t counter = static_cast<uint8_t>(v) & kHdrCounterMask;
    Store(i, static_cast<uint8_t>((Load(i) & 0xF0u) | counter));
  }

  /// Marks entry `i` deleted (counter 0, tombstone set, tag kept).
  void MarkDeleted(size_t i) {
    Store(i, static_cast<uint8_t>((Load(i) & 0xF0u) | kHdrTombBit));
  }

  /// Records the occupant's fingerprint (low nibble of an 8-bit tag),
  /// keeping counter and tombstone bits.
  void SetTag(size_t i, uint8_t tag) {
    Store(i, static_cast<uint8_t>((Load(i) & 0x0Fu) | (tag << 4)));
  }

  uint64_t PeekCounter(size_t i) const { return bytes_[i] & kHdrCounterMask; }
  bool PeekTombstone(size_t i) const {
    return (bytes_[i] & kHdrTombBit) != 0;
  }
  uint8_t PeekTag(size_t i) const { return bytes_[i] >> 4; }

  /// Warms entry `i`'s byte (batched-lookup stage 1). In the paper's model
  /// the counters are on-chip SRAM, so warming them costs nothing — in
  /// software they are ordinary DRAM, and the hint is what keeps the
  /// modeled "free" accesses actually cheap.
  void Prefetch(size_t i) const { PrefetchLine<0, 3>(&bytes_[i]); }

  /// Pointer-wise exchange of the storage with `other` (Rehash committing
  /// under live optimistic readers, TableSkeleton::CommitRebuild). No
  /// operand passes through a transient moved-from state.
  void SwapStorage(TagCounterArray& other) { bytes_.swap(other.bytes_); }

 private:
  uint8_t Load(size_t i) {
    return std::atomic_ref<uint8_t>(bytes_[i]).load(std::memory_order_relaxed);
  }
  void Store(size_t i, uint8_t byte) {
    std::atomic_ref<uint8_t>(bytes_[i]).store(byte, std::memory_order_relaxed);
  }

  std::vector<uint8_t> bytes_;
};

}  // namespace mccuckoo

#endif  // MCCUCKOO_CORE_COUNTER_ARRAY_H_
