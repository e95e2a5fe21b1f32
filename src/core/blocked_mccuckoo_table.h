// Blocked multi-copy Cuckoo table (B-McCuckoo, paper §III.G).
//
// The multi-copy idea applied to the blocked layout: d sub-tables whose
// buckets hold l slots each (d = 3, l = 3 in the paper), one on-chip
// counter per *slot*, and one stash flag per *bucket*. Insertion follows
// Algorithm 1 (Fig 6): place one copy into an empty slot of every candidate
// bucket; if no copy found a home, overwrite counter-3 slots of the buckets
// with the highest counter sum while the inserted item trails the victim by
// two copies, then counter-2 slots, and only when all d*l candidate slot
// counters are 1 fall back to the random walk / stash. Lookup follows
// Algorithm 2: a bucket whose counters sum to zero is skipped entirely
// (bucket-level Bloom rule); otherwise the whole bucket is fetched in one
// access and scanned. Deletion follows Algorithm 3 and performs zero
// off-chip writes.
//
// Slot hints: each record stores, for every other sub-table, which slot its
// copy there occupies ((d-1) * log2(l) bits per slot, §III.G). The paper
// admits the hints "cannot be fully tracked" once third parties overwrite
// hinted slots; we therefore use them only to order the disambiguating
// bucket reads (a stale hint costs nothing — the read it orders returns the
// whole bucket and reveals the truth), never as an unverified source for
// counter updates. All placement decisions are made from the on-chip
// counters *before* any off-chip write, so every copy is written exactly
// once, hints included.

#ifndef MCCUCKOO_CORE_BLOCKED_MCCUCKOO_TABLE_H_
#define MCCUCKOO_CORE_BLOCKED_MCCUCKOO_TABLE_H_

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdint>
#include <vector>

#include "src/common/bits.h"
#include "src/common/prefetch.h"
#include "src/common/status.h"
#include "src/core/bucket_header.h"
#include "src/core/config.h"
#include "src/core/counter_array.h"
#include "src/core/table_skeleton.h"
#include "src/hash/hash_family.h"
#include "src/obs/metrics.h"

namespace mccuckoo {

/// Blocked multi-copy cuckoo hash table (d hashes, l slots per bucket). The
/// layout-independent entry points live in TableSkeleton.
template <typename Key, typename Value, typename Hasher = BobHasher>
  requires SeedableHasher<Hasher, Key>
class BlockedMcCuckooTable
    : public TableSkeleton<BlockedMcCuckooTable<Key, Value, Hasher>, Key,
                           Value, Hasher> {
  using Base = TableSkeleton<BlockedMcCuckooTable, Key, Value, Hasher>;
  friend Base;

 public:
  /// Sentinel for "no copy in that sub-table" in a record's hint array.
  static constexpr uint8_t kNoHint = 0xFF;

  /// One record slot. `hint[t]` is the slot index of this item's copy in
  /// sub-table t when that copy existed at write time (kNoHint otherwise);
  /// the entry for the record's own sub-table is unused.
  struct Slot {
    Key key{};
    Value value{};
    std::array<uint8_t, kMaxHashes> hint{kNoHint, kNoHint, kNoHint, kNoHint};
  };

  /// The skeleton's layout constant: on-chip copy counters drive the
  /// engine (the baseline CuckooTable has none).
  static constexpr bool kOnChipCounters = true;


 private:
  using typename Base::Candidates;
  using typename Base::CopySet;
  using typename Base::ProbeResult;

 public:
  /// The configuration conditions Create() reports as Status. The
  /// constructor enforces the same conditions with an unconditional abort,
  /// so Debug and Release builds agree on what direct construction with
  /// unsupported options does (it used to be a Debug-only assert).
  static Status CheckOptions(const TableOptions& options) {
    if (Status s = options.Validate(); !s.ok()) return s;
    if (options.slots_per_bucket < 2) {
      return Status::InvalidArgument(
          "BlockedMcCuckooTable needs slots_per_bucket >= 2; "
          "use McCuckooTable");
    }
    return Status::OK();
  }

  /// Constructs a table; `options` must satisfy CheckOptions() (aborts
  /// otherwise — use Create() for untrusted configuration).
  explicit BlockedMcCuckooTable(const TableOptions& options)
      : Base(options, /*rng_salt=*/0xB10CB10CB10CB10Cull),
        mem_{std::vector<Slot>(static_cast<size_t>(options.num_hashes) *
                               options.buckets_per_table *
                               options.slots_per_bucket),
             BitArray(static_cast<size_t>(options.num_hashes) *
                      options.buckets_per_table),
             BucketHeaderArray(static_cast<size_t>(options.num_hashes) *
                                   options.buckets_per_table *
                                   options.slots_per_bucket,
                               options.slots_per_bucket, options.num_hashes,
                               stats_.get())},
        probe_simd_(ResolveProbeKind(options.probe) == ProbeKind::kSimd) {}

  // --- Core operations (Insert, InsertOrAssign, Erase, Find and the
  // batched forms are TableSkeleton's) -------------------------------------

  /// Which tag-probe kernel this instance resolved to ("simd"/"scalar");
  /// bench keys embed it.
  const char* probe_variant() const { return probe_simd_ ? "simd" : "scalar"; }

 private:
  using Base::opts_;
  using Base::StashEmpty;
  using Base::stats_;

  static constexpr const char* kName = "BlockedMcCuckooTable";
  /// Bucket headers keep a key's whole 8-bit fingerprint.
  static constexpr uint8_t kTagMask = 0xFF;

  // --- TableSkeleton layout hooks -----------------------------------------

  const Slot& RecordAt(size_t idx) const { return mem_.slots[idx]; }
  Slot& RecordAt(size_t idx) { return mem_.slots[idx]; }
  uint32_t SlotsPerBucket() const { return opts_.slots_per_bucket; }

  /// The record every copy of a placed key shares: its hints name the
  /// slot of each of the `n` copies in `slots` (global slot indices), by
  /// sub-table.
  Slot CopyRecord(const Key& key, const Value& value, const size_t* slots,
                  uint32_t n) const {
    const uint32_t l = opts_.slots_per_bucket;
    Slot record;
    record.key = key;
    record.value = value;
    for (uint32_t i = 0; i < n; ++i) {
      record.hint[slots[i] / l / opts_.buckets_per_table] =
          static_cast<uint8_t>(slots[i] % l);
    }
    return record;
  }

  /// Batch stage 1's and scalar writes' prefetches (see
  /// TableSkeleton::StageCandidates and StageWriteCandidates):
  /// every candidate bucket's header and stash-flag word, then its slot
  /// lines (a bucket spans l * sizeof(Slot) bytes, possibly several cache
  /// lines).
  void PrefetchCandidates(const Candidates* cand, size_t n,
                          bool for_write) const {
    const uint32_t d = opts_.num_hashes;
    const uint32_t l = opts_.slots_per_bucket;
    for (size_t i = 0; i < n; ++i) {
      for (uint32_t t = 0; t < d; ++t) {
        // One line covers the bucket's whole header (tags, counters,
        // tombstones) — the old layout needed two counter words plus a
        // tombstone word from separate allocations.
        mem_.counters.Prefetch(cand[i].bucket[t] * l);
        // The stash-flag word is consulted during every probed bucket's
        // scan; packed flags make it one explicit line.
        PrefetchLine<0, 1>(mem_.flags.WordAddr(cand[i].bucket[t]));
      }
    }
    const size_t bucket_bytes = static_cast<size_t>(l) * sizeof(Slot);
    for (size_t i = 0; i < n; ++i) {
      for (uint32_t t = 0; t < d; ++t) {
        const char* base =
            reinterpret_cast<const char*>(&mem_.slots[cand[i].bucket[t] * l]);
        for (size_t off = 0; off < bucket_bytes; off += 64) {
          if (for_write) {
            PrefetchLine<1, 3>(base + off);
          } else {
            PrefetchLine<0, 1>(base + off);
          }
        }
      }
    }
  }

  /// Algorithm 2's main-table probe over precomputed candidates, behind
  /// every read form and the single-writer writes — the hot read path.
  /// `sink` receives the lookup metrics (bucket reads as probes, the hit
  /// slot's counter as its partition).
  ///
  /// Physically this touches one header line per candidate bucket plus the
  /// slot lines of tag-matching occupied slots; no stash-flag word is read
  /// here (the screen reads the flags of the buckets in read_mask, and only
  /// with a non-empty stash). The *modeled* accounting, charged by the
  /// kCharged instantiation, is that of a per-slot implementation: d*l
  /// on-chip counter reads (doubled by the tombstone probes in kTombstone
  /// mode), one off-chip read per probed bucket, and the probe rule —
  /// pruning skips zero-sum buckets, without pruning only buckets with
  /// nothing live (no occupants, no tombstones) are skipped. Racing writers
  /// may tear the uncharged reads: the optimistic callers discard the
  /// result via seqlock validation, and slot indices stay in range
  /// regardless (meta/tag bytes past l are never written, so no match bit
  /// can point there).
  template <bool kCharged, typename MetricsSink>
  ProbeResult ProbeMain(const Key& key, const Candidates& cand, Value* out,
                        MetricsSink& sink) const {
    const uint32_t d = opts_.num_hashes;
    const uint32_t l = opts_.slots_per_bucket;
    if constexpr (kCharged) {
      mem_.counters.ChargeReads(
          static_cast<uint64_t>(d) * l *
          (opts_.deletion_mode == DeletionMode::kTombstone ? 2 : 1));
    }
    const BucketHeader* hdr[kMaxHashes] = {};
    uint64_t meta[kMaxHashes] = {};
    uint32_t match[kMaxHashes] = {};
    for (uint32_t t = 0; t < d; ++t) {
      hdr[t] = &mem_.counters.HeaderAt(cand.bucket[t]);
      // Start the candidate slot lines toward the core while the headers
      // are screened: the hit path's header -> slot dependence is the
      // longest miss chain left. A pure overlap hint — the modeled reads
      // are decided by the probe rules alone, never by what is cached.
      __builtin_prefetch(&mem_.slots[cand.bucket[t] * l], 0, 1);
    }
    if (probe_simd_) {
      SimdTagMatchMasks(hdr, d, cand.tag, match);
    } else {
      for (uint32_t t = 0; t < d; ++t) {
        match[t] = TagMatchMaskScalar(*hdr[t], cand.tag);
      }
    }
    for (uint32_t t = 0; t < d; ++t) meta[t] = HdrMetaWord(*hdr[t]);

    ProbeResult r;
    uint32_t probes_total = 0;
    uint32_t read_mask = 0;
    for (uint32_t t = 0; t < d; ++t) {
      const bool occupied = (meta[t] & kHdrCounterRep) != 0;
      if (!occupied && (opts_.lookup_pruning_enabled || meta[t] == 0)) {
        continue;
      }
      if constexpr (kCharged) ChargeBucketRead();
      ++probes_total;
      read_mask |= 1u << t;
      for (uint32_t m = match[t]; m != 0; m &= m - 1) {
        const uint32_t s = static_cast<uint32_t>(__builtin_ctz(m));
        const size_t idx = cand.bucket[t] * l + s;
        const Slot& slot = mem_.slots[idx];
        if (slot.key == key) {
          if (out != nullptr) *out = slot.value;
          if constexpr (kMetricsEnabled) {
            sink.RecordLookupOutcome(
                probes_total,
                static_cast<int32_t>((meta[t] >> (8 * s)) & kHdrCounterMask));
          }
          r.hit = true;
          r.slot = idx;
          return r;
        }
      }
    }
    if constexpr (kMetricsEnabled) sink.RecordLookupOutcome(probes_total, -1);
    r.read_mask = read_mask;
    if (!StashEmpty()) {  // the screen reads the counter facts only then
      for (uint32_t t = 0; t < d; ++t) {
        r.all_sole = r.all_sole &&
                     (meta[t] & kHdrCounterRep) == mem_.counters.ones_word();
        r.any_true_empty = r.any_true_empty || meta[t] == 0;
      }
    }
    return r;
  }

  /// Fetches a whole bucket: one off-chip access regardless of l ([33]).
  void ChargeBucketRead() const { ++stats_->offchip_reads; }

  // --- Copy location (the skeleton's placement and eviction call it) -------

  /// Finds the v-1 slots besides `known_slot` holding copies of `key`
  /// (fingerprint `tag`, claimed candidate buckets `cand`, all counters
  /// equal v). Candidate slots are the value-v slots of the other
  /// candidate buckets; buckets are resolved first where the record in
  /// `known_slot` hints a copy, and a bucket whose remaining candidates
  /// must all be copies (pigeonhole) is not read.
  template <typename Ctx>
  CopySet LocateOtherCopies(Ctx& ctx, const Key& key, uint8_t tag,
                            const std::array<size_t, kMaxHashes>& cand,
                            size_t known_slot, uint64_t v) {
    const uint32_t d = opts_.num_hashes;
    const uint32_t l = opts_.slots_per_bucket;
    const size_t known_bucket = known_slot / l;
    const std::array<uint8_t, kMaxHashes>& hints = mem_.slots[known_slot].hint;

    // Group: candidate slots with counter == v, per bucket, excluding the
    // bucket of `known_slot` (one copy per bucket at most).
    struct BucketGroup {
      size_t bucket;
      std::array<uint32_t, 8> slots;
      uint32_t n_slots = 0;
    };
    // Hinted buckets are queued first: their read almost always confirms a
    // copy immediately.
    std::array<BucketGroup, kMaxHashes> groups{};
    uint32_t n_groups = 0;
    uint32_t total_slots = 0;
    for (int pass = 0; pass < 2; ++pass) {
      for (uint32_t t = 0; t < d; ++t) {
        if (cand[t] == known_bucket) continue;
        if ((hints[t] != kNoHint) != (pass == 0)) continue;
        BucketGroup g{};
        g.bucket = cand[t];
        for (uint32_t s = 0; s < l; ++s) {
          if (ctx.Counter(mem_.counters, g.bucket * l + s) == v) {
            g.slots[g.n_slots++] = s;
          }
        }
        if (g.n_slots == 0) continue;
        groups[n_groups++] = g;
        total_slots += g.n_slots;
      }
    }

    const uint32_t need = static_cast<uint32_t>(v) - 1;
    CopySet out{};
    assert(total_slots >= need);
    uint32_t unresolved = total_slots;
    for (uint32_t gi = 0; gi < n_groups && out.count < need; ++gi) {
      const BucketGroup& g = groups[gi];
      // Pigeonhole: if every unresolved candidate slot must be a copy,
      // take them without reading. (A key has at most one copy per bucket,
      // so this can only trigger when each remaining group has one slot.)
      if (unresolved == need - out.count) {
        bool single_slots = true;
        for (uint32_t gj = gi; gj < n_groups; ++gj) {
          if (groups[gj].n_slots != 1) single_slots = false;
        }
        if (single_slots) {
          for (uint32_t gj = gi; gj < n_groups; ++gj) {
            out.pos[out.count++] = groups[gj].bucket * l + groups[gj].slots[0];
          }
          break;
        }
      }
      ctx.Charge(&AccessStats::offchip_reads);
      for (uint32_t i = 0; i < g.n_slots; ++i) {
        const size_t idx = g.bucket * l + g.slots[i];
        if (mem_.counters.PeekTag(idx) == tag && mem_.slots[idx].key == key) {
          out.pos[out.count++] = idx;
          break;  // at most one copy per bucket
        }
      }
      unresolved -= g.n_slots;
    }
    assert(out.count == need);
    return out;
  }

  /// Every copy of `key`, found at global slot `known_slot` among its
  /// claimed candidates `cand`, for erase/update: one charged counter read
  /// gives the copy count, and the found record's stored hints order the
  /// disambiguation reads.
  template <typename Ctx>
  CopySet LocateAllCopies(Ctx& ctx, const Key& key, const Candidates& cand,
                          size_t known_slot) {
    CopySet out = LocateOtherCopies(ctx, key, cand.tag, cand.bucket,
                                    known_slot,
                                    ctx.Counter(mem_.counters, known_slot));
    out.pos[out.count++] = known_slot;
    return out;
  }

  /// The reader-visible storage: slots, per-bucket stash flags and bucket
  /// headers. A Rehash commit under live optimistic readers swaps it
  /// pointer-wise and retires the old one whole
  /// (TableSkeleton::CommitRebuild).
  struct Storage {
    std::vector<Slot> slots;
    // One stash flag per bucket (off-chip). Packed uint64_t words, not
    // std::vector<bool>: the word holding a flag is prefetchable alongside
    // the bucket's slot lines, and rebuilds scan set bits a word at a time.
    BitArray flags;
    // Per-bucket headers: slot tags + counters + tombstones in one aligned
    // 16-byte block per bucket (see bucket_header.h).
    BucketHeaderArray counters;
    void Swap(Storage& o) {
      slots.swap(o.slots);
      flags.Swap(o.flags);
      counters.SwapStorage(o.counters);
    }
  };
  Storage mem_;
  // Resolved TableOptions::probe — true when lookups use the vector
  // tag-match kernel. Same results and charges either way; a rebuild
  // resolves the same options to the same kernel.
  bool probe_simd_;
};

}  // namespace mccuckoo

#endif  // MCCUCKOO_CORE_BLOCKED_MCCUCKOO_TABLE_H_
