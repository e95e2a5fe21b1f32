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
// for the blocked one), so one load screens a candidate. Both report the
// paper's packed on-chip size (ModeledPackedBytes) and charge every logical
// read/write to an AccessStats, so the experiment harness can report
// on-chip traffic separately (Figs 15-16).

#ifndef MCCUCKOO_CORE_COUNTER_ARRAY_H_
#define MCCUCKOO_CORE_COUNTER_ARRAY_H_

#include <atomic>
#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/common/bits.h"
#include "src/common/prefetch.h"
#include "src/core/bucket_header.h"
#include "src/mem/access_stats.h"

namespace mccuckoo {

/// Modeled on-chip byte cost of `size` packed counters of `bits` bits each,
/// rounded up to whole 64-bit words. The arrays below store tags and
/// padding the paper's hardware would not, so they report this *modeled*
/// figure and expose the real footprint separately.
inline size_t ModeledPackedBytes(size_t size, uint32_t bits) {
  return ((size * bits + 63) / 64) * 8;
}

/// The blocked table's counter store, reorganized as cache-line-friendly
/// BucketHeaders (see bucket_header.h): slot s of bucket b lives in
/// headers_[b].meta[s] / .tag[s]. The charged interface matches
/// TagCounterArray's (per-slot indexing, one AccessStats charge per logical
/// access), so the insert/erase/eviction paths are written once for both
/// layouts; the lookup paths bypass it via HeaderAt() + an explicit bulk
/// ChargeReads().
class BucketHeaderArray {
 public:
  /// `num_slots` slot entries grouped `slots_per_bucket` to a header.
  /// Counters hold 0..max_count; `stats` (may be null) receives on-chip
  /// charges and must outlive the array.
  BucketHeaderArray(size_t num_slots, uint32_t slots_per_bucket,
                    uint32_t max_count, AccessStats* stats)
      : headers_((num_slots + slots_per_bucket - 1) / slots_per_bucket),
        num_slots_(num_slots),
        l_(slots_per_bucket),
        ones_word_(HdrAllOnesWord(slots_per_bucket)),
        modeled_counter_bytes_(
            ModeledPackedBytes(num_slots, BitWidthFor(max_count))),
        modeled_tombstone_bytes_(ModeledPackedBytes(num_slots, 1)),
        stats_(stats) {
    assert(slots_per_bucket >= 1 && slots_per_bucket <= 8);
    assert(max_count <= kHdrCounterMask);
  }

  size_t size() const { return num_slots_; }
  size_t num_buckets() const { return headers_.size(); }
  uint32_t slots_per_bucket() const { return l_; }

  /// Meta word for a bucket whose l slots all hold counter 1 (the
  /// kDisabled stash screen's "every candidate bucket full" test).
  uint64_t ones_word() const { return ones_word_; }

  /// Counter value of slot `i` (0 for tombstoned entries). One on-chip read.
  uint64_t Get(size_t i) const {
    Charge(&AccessStats::onchip_reads);
    return PeekCounter(i);
  }

  /// True if slot `i` carries the "deleted" mark. One on-chip read.
  bool IsTombstone(size_t i) const {
    Charge(&AccessStats::onchip_reads);
    return PeekTombstone(i);
  }

  /// Sets slot `i`'s counter to `v` and clears any tombstone. One on-chip
  /// write. The tag byte is untouched: key writes flow through the tables'
  /// slot-store choke points, which call SetTag() themselves.
  void Set(size_t i, uint64_t v) {
    Charge(&AccessStats::onchip_writes);
    headers_[i / l_].meta[i % l_] =
        static_cast<uint8_t>(v) & kHdrCounterMask;
  }

  /// Marks slot `i` deleted (counter reads as 0, tombstone set).
  void MarkDeleted(size_t i) {
    Charge(&AccessStats::onchip_writes);
    headers_[i / l_].meta[i % l_] = kHdrTombBit;
  }

  /// Records the fingerprint of slot `i`'s occupant. Uncharged: tags are
  /// software-layout state with no counterpart in the paper's on-chip
  /// model, and charging them would break the accounting parity the
  /// differential tests pin down.
  void SetTag(size_t i, uint8_t tag) { headers_[i / l_].tag[i % l_] = tag; }

  /// Atomic variants for the multi-writer paths, uncharged. Every meta and
  /// tag byte is its own memory location owned by its bucket's stripe, and
  /// each update writes the whole byte, so a relaxed atomic store is exact
  /// (see TagCounterArray's atomic section) while neighbouring headers on
  /// the same line belong to other writers.
  void AtomicSet(size_t i, uint64_t v) {
    std::atomic_ref<uint8_t>(headers_[i / l_].meta[i % l_])
        .store(static_cast<uint8_t>(v) & kHdrCounterMask,
               std::memory_order_relaxed);
  }
  void AtomicMarkDeleted(size_t i) {
    std::atomic_ref<uint8_t>(headers_[i / l_].meta[i % l_])
        .store(kHdrTombBit, std::memory_order_relaxed);
  }
  void AtomicSetTag(size_t i, uint8_t tag) {
    std::atomic_ref<uint8_t>(headers_[i / l_].tag[i % l_])
        .store(tag, std::memory_order_relaxed);
  }

  /// Bulk on-chip read charge — the lookup paths read whole headers but
  /// must charge exactly what the per-slot model charged (d*l counter
  /// reads, doubled by the tombstone probe in kTombstone mode).
  void ChargeReads(uint64_t n) const {
    if (stats_ != nullptr) stats_->onchip_reads += n;
  }

  /// Uncharged accessors for tests / invariant validation / peeks.
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
  /// its tags, counters and tombstones). Uncharged, as in
  /// TagCounterArray::Prefetch.
  void Prefetch(size_t i) const {
    PrefetchLine<0, 3>(&headers_[i / l_]);
  }

  /// Pointer-wise storage exchange; each array keeps its own stats sink
  /// (see TagCounterArray::SwapStorage).
  void SwapStorage(BucketHeaderArray& other) {
    headers_.swap(other.headers_);
    std::swap(num_slots_, other.num_slots_);
    std::swap(l_, other.l_);
    std::swap(ones_word_, other.ones_word_);
    std::swap(modeled_counter_bytes_, other.modeled_counter_bytes_);
    std::swap(modeled_tombstone_bytes_, other.modeled_tombstone_bytes_);
  }

  /// Modeled on-chip bytes (counters + tombstones, packed as the paper's
  /// hardware would).
  size_t memory_bytes() const {
    return modeled_counter_bytes_ + modeled_tombstone_bytes_;
  }

  /// Modeled bytes for the counters alone (see TagCounterArray).
  size_t counter_bytes() const { return modeled_counter_bytes_; }

  /// Real DRAM footprint of the header storage (tags included).
  size_t storage_bytes() const {
    return headers_.size() * sizeof(BucketHeader);
  }

 private:
  void Charge(uint64_t AccessStats::* field) const {
    if (stats_ != nullptr) ++(stats_->*field);
  }

  std::vector<BucketHeader> headers_;
  size_t num_slots_;
  uint32_t l_;
  uint64_t ones_word_;
  size_t modeled_counter_bytes_;
  size_t modeled_tombstone_bytes_;
  AccessStats* stats_;
};

/// The single-slot table's counter store: one byte per bucket packing the
/// copy counter (bits 0..2), the tombstone mark (bit 3) and a 4-bit key
/// fingerprint (bits 4..7), so one byte read screens a candidate bucket.
/// The charged interface matches BucketHeaderArray's.
class TagCounterArray {
 public:
  TagCounterArray(size_t size, uint32_t max_count, AccessStats* stats)
      : bytes_(size, 0),
        modeled_counter_bytes_(
            ModeledPackedBytes(size, BitWidthFor(max_count))),
        modeled_tombstone_bytes_(ModeledPackedBytes(size, 1)),
        stats_(stats) {
    assert(max_count <= kHdrCounterMask);
  }

  size_t size() const { return bytes_.size(); }

  /// Counter value at `i` (0 for tombstoned entries). One on-chip read.
  uint64_t Get(size_t i) const {
    Charge(&AccessStats::onchip_reads);
    return PeekCounter(i);
  }

  /// True if entry `i` carries the "deleted" mark. One on-chip read.
  bool IsTombstone(size_t i) const {
    Charge(&AccessStats::onchip_reads);
    return PeekTombstone(i);
  }

  /// Sets counter `i` to `v`, clears any tombstone, keeps the tag. One
  /// on-chip write.
  void Set(size_t i, uint64_t v) {
    Charge(&AccessStats::onchip_writes);
    bytes_[i] = static_cast<uint8_t>(
        (bytes_[i] & 0xF0u) | (static_cast<uint8_t>(v) & kHdrCounterMask));
  }

  /// Marks entry `i` deleted (counter reads as 0, tombstone set, tag kept).
  void MarkDeleted(size_t i) {
    Charge(&AccessStats::onchip_writes);
    bytes_[i] = static_cast<uint8_t>((bytes_[i] & 0xF0u) | kHdrTombBit);
  }

  /// Records the occupant's fingerprint (low nibble of an 8-bit tag).
  /// Uncharged — see BucketHeaderArray::SetTag.
  void SetTag(size_t i, uint8_t tag) {
    bytes_[i] = static_cast<uint8_t>((bytes_[i] & 0x0Fu) | (tag << 4));
  }

  // --- Atomic update discipline (multi-writer paths) ----------------------
  // Striped writer locks guarantee that at most one writer mutates a given
  // entry (the entry's bucket stripe is held for every counter, tombstone
  // and tag change), and each entry is its own byte, so two writers never
  // share a memory location. Each transition below is therefore a relaxed
  // atomic load of the byte followed by a relaxed atomic store of the new
  // byte: no CAS loop is needed, since no other writer can interleave, and
  // the whole byte is written at once, so a compiler-widened
  // read-modify-write can never resurrect a stale tag or tombstone nibble.
  // Optimistic readers see either the old or the new byte (and validate
  // through the seqlock), and TSan observes the stores as atomics. They
  // are uncharged — the concurrent paths deliberately leave the
  // (non-atomic) AccessStats model untouched; the single-writer paths keep
  // the charged plain accessors above, byte for byte.

  /// Sets counter `i` to `v`, clears any tombstone, keeps the tag nibble.
  void AtomicSet(size_t i, uint64_t v) {
    std::atomic_ref<uint8_t> cell(bytes_[i]);
    const uint8_t cur = cell.load(std::memory_order_relaxed);
    const uint8_t counter = static_cast<uint8_t>(v) & kHdrCounterMask;
    cell.store(static_cast<uint8_t>((cur & 0xF0u) | counter),
               std::memory_order_relaxed);
  }

  /// Marks entry `i` deleted (counter 0, tombstone set, tag kept).
  void AtomicMarkDeleted(size_t i) {
    std::atomic_ref<uint8_t> cell(bytes_[i]);
    const uint8_t cur = cell.load(std::memory_order_relaxed);
    cell.store(static_cast<uint8_t>((cur & 0xF0u) | kHdrTombBit),
               std::memory_order_relaxed);
  }

  /// Records the occupant's fingerprint, keeping counter and tombstone
  /// bits.
  void AtomicSetTag(size_t i, uint8_t tag) {
    std::atomic_ref<uint8_t> cell(bytes_[i]);
    const uint8_t cur = cell.load(std::memory_order_relaxed);
    cell.store(static_cast<uint8_t>((cur & 0x0Fu) | (tag << 4)),
               std::memory_order_relaxed);
  }

  /// Bulk on-chip read charge (see BucketHeaderArray::ChargeReads).
  void ChargeReads(uint64_t n) const {
    if (stats_ != nullptr) stats_->onchip_reads += n;
  }

  /// Uncharged accessors.
  uint64_t PeekCounter(size_t i) const { return bytes_[i] & kHdrCounterMask; }
  bool PeekTombstone(size_t i) const {
    return (bytes_[i] & kHdrTombBit) != 0;
  }
  uint8_t PeekTag(size_t i) const { return bytes_[i] >> 4; }

  /// Warms entry `i`'s byte (batched-lookup stage 1). Uncharged: in the
  /// paper's model the counters are on-chip SRAM, so warming them costs
  /// nothing — in software they are ordinary DRAM, and the hint is what
  /// keeps the modeled "free" accesses actually cheap.
  void Prefetch(size_t i) const { PrefetchLine<0, 3>(&bytes_[i]); }

  /// Pointer-wise exchange of the storage with `other`; each array keeps
  /// its own stats sink (Rehash committing under live optimistic readers
  /// keeps the owning table's AccessStats identity-stable — see
  /// TableSkeleton::CommitRebuild). No operand passes through a
  /// transient moved-from state.
  void SwapStorage(TagCounterArray& other) {
    bytes_.swap(other.bytes_);
    std::swap(modeled_counter_bytes_, other.modeled_counter_bytes_);
    std::swap(modeled_tombstone_bytes_, other.modeled_tombstone_bytes_);
  }

  /// Modeled on-chip bytes (counters + tombstones, packed as the paper's
  /// hardware would).
  size_t memory_bytes() const {
    return modeled_counter_bytes_ + modeled_tombstone_bytes_;
  }

  /// Modeled bytes for the counters alone (the paper's reported cost
  /// excludes tombstones, which only exist in kTombstone mode).
  size_t counter_bytes() const { return modeled_counter_bytes_; }

  /// Real DRAM footprint (tags included).
  size_t storage_bytes() const { return bytes_.size(); }

 private:
  void Charge(uint64_t AccessStats::* field) const {
    if (stats_ != nullptr) ++(stats_->*field);
  }

  std::vector<uint8_t> bytes_;
  size_t modeled_counter_bytes_;
  size_t modeled_tombstone_bytes_;
  AccessStats* stats_;
};

}  // namespace mccuckoo

#endif  // MCCUCKOO_CORE_COUNTER_ARRAY_H_
