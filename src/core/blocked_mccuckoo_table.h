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
#include <thread>
#include <vector>

#include "src/common/bits.h"
#include "src/common/prefetch.h"
#include "src/common/status.h"
#include "src/core/bucket_header.h"
#include "src/core/config.h"
#include "src/core/counter_array.h"
#include "src/core/eviction.h"
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


 private:
  // Nested aggregates are defined before the operations: the
  // candidate-reusing member signatures below mention them.
  using typename Base::Candidates;
  using typename Base::ProbeResult;

  /// A (sub-table, bucket, slot) position, held as (bucket index, slot).
  struct Position {
    size_t bucket = 0;
    uint32_t slot = 0;
    bool operator==(const Position& o) const {
      return bucket == o.bucket && slot == o.slot;
    }
  };

  struct CopySet {
    std::array<Position, kMaxHashes> pos;
    uint32_t count = 0;
  };

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
  using Base::AlternateBuckets;
  using Base::ClaimAlternates;
  using Base::ComputeCandidates;
  using Base::kick_history_;
  using Base::kNoBucket;
  using Base::opts_;
  using Base::redundant_writes_;
  using Base::rng_;
  using Base::SeqOpen;
  using Base::size_;
  using Base::StashEmpty;
  using Base::StashOverflow;
  using Base::stats_;
  using typename Base::ChainStats;

  static constexpr const char* kName = "BlockedMcCuckooTable";
  /// Bucket headers keep a key's whole 8-bit fingerprint.
  static constexpr uint8_t kTagMask = 0xFF;

  // --- TableSkeleton layout hooks -----------------------------------------

  size_t NumBuckets() const { return mem_.flags.size(); }
  const Slot& RecordAt(size_t idx) const { return mem_.slots[idx]; }
  Slot& RecordAt(size_t idx) { return mem_.slots[idx]; }
  /// Atomic: other writers may be setting other bits of the same word.
  bool FlagAt(size_t bucket) const { return mem_.flags.AtomicTest(bucket); }

  /// Clears every set stash flag: a word-at-a-time scan of the set bits,
  /// one charged write per flag actually cleared.
  void ClearStashFlags() {
    mem_.flags.ForEachSetBit([&](size_t bucket) {
      SeqOpen(bucket);
      ++stats_->offchip_writes;
    });
    mem_.flags.ClearAll();
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

  size_t SlotIndex(const Position& p) const {
    return p.bucket * opts_.slots_per_bucket + p.slot;
  }

  size_t BucketOf(size_t slot) const { return slot / opts_.slots_per_bucket; }

  Position PositionOf(size_t slot) const {
    const uint32_t l = opts_.slots_per_bucket;
    return Position{slot / l, static_cast<uint32_t>(slot % l)};
  }

  /// A record for (key, value) whose only hint names its own position.
  Slot SoleRecord(const Key& key, const Value& value, const Position& p) const {
    Slot record;
    record.key = key;
    record.value = value;
    record.hint[p.bucket / opts_.buckets_per_table] =
        static_cast<uint8_t>(p.slot);
    return record;
  }

  /// Fetches a whole bucket: one off-chip access regardless of l ([33]).
  void ChargeBucketRead() const { ++stats_->offchip_reads; }

  // --- the write engine (one per layout, compiled per writer context) -----

  /// Writes one slot (record + hints share the slot's memory word) and
  /// its header tag `tag` in the same seqlock window, so readers never see
  /// a fresh key behind a stale fingerprint. The tag store is layout
  /// state, not a modeled access (uncharged).
  template <typename Ctx>
  void WriteSlot(Ctx& ctx, const Position& p, const Slot& record,
                 uint8_t tag) {
    ctx.Open(p.bucket);
    ctx.Charge(&AccessStats::offchip_writes);
    const size_t idx = SlotIndex(p);
    mem_.slots[idx] = record;
    ctx.SetTag(idx, tag);
  }

  /// Sets bucket `bucket`'s stash flag: one off-chip write. Up to 64
  /// buckets, owned by up to 64 stripes, share one flag word.
  template <typename Ctx>
  void SetFlag(Ctx& ctx, size_t bucket) {
    ctx.Open(bucket);
    ctx.Charge(&AccessStats::offchip_writes);
    ctx.SetBit(mem_.flags, bucket);
  }

  /// Algorithm 1's placement phases, decided entirely on-chip before any
  /// write. Returns the number of copies placed (0 = none). A victim whose
  /// other copies another writer holds is skipped; the caller restarts
  /// when that leaves a non-sole-copy candidate unplaced.
  template <typename Ctx>
  uint32_t TryPlace(Ctx& ctx, const Key& key, const Value& value,
                    const Candidates& cand) {
    const uint32_t d = opts_.num_hashes;
    const uint32_t l = opts_.slots_per_bucket;

    std::array<Position, kMaxHashes> placed{};
    std::array<bool, kMaxHashes> bucket_taken{};
    uint32_t n_placed = 0;

    // Phase 1: one copy into an empty slot of every candidate bucket.
    for (uint32_t t = 0; t < d; ++t) {
      for (uint32_t s = 0; s < l; ++s) {
        const Position p{cand.bucket[t], s};
        if (ctx.Counter(mem_.counters, SlotIndex(p)) == 0) {
          placed[n_placed++] = p;
          bucket_taken[t] = true;
          break;
        }
      }
    }

    // Phase 2: overwrite redundant copies, most-redundant victim first,
    // while the victim keeps a two-copy lead (V >= n_placed + 2). Counters
    // are re-read per round (one insert can hit the same victim twice).
    while (n_placed < d) {
      int best_t = -1;
      Position best_pos{};
      uint64_t best_v = 0;
      uint64_t best_sum = 0;
      for (uint32_t t = 0; t < d; ++t) {
        if (bucket_taken[t]) continue;
        uint64_t sum = 0;
        uint64_t bucket_best_v = 0;
        uint32_t bucket_best_s = 0;
        for (uint32_t s = 0; s < l; ++s) {
          const uint64_t c =
              ctx.Counter(mem_.counters, cand.bucket[t] * l + s);
          sum += c;
          if (c > bucket_best_v) {
            bucket_best_v = c;
            bucket_best_s = s;
          }
        }
        // Bucket availability is judged by the counter sum (§III.G); the
        // victim inside it is the highest-counter slot.
        if (bucket_best_v > best_v ||
            (bucket_best_v == best_v && sum > best_sum)) {
          best_v = bucket_best_v;
          best_sum = sum;
          best_t = static_cast<int>(t);
          best_pos = Position{cand.bucket[t], bucket_best_s};
        }
      }
      if (best_t < 0 || best_v < 2 || best_v < n_placed + 2) break;
      bucket_taken[best_t] = true;
      if (OverwriteRedundantCopy(ctx, best_pos, best_v)) {
        placed[n_placed++] = best_pos;
      }
    }

    if (n_placed == 0) return 0;
    // Write the record once per placed copy (hints included) and set the
    // copies' counters.
    Slot record;
    record.key = key;
    record.value = value;
    for (uint32_t i = 0; i < n_placed; ++i) {
      record.hint[placed[i].bucket / opts_.buckets_per_table] =
          static_cast<uint8_t>(placed[i].slot);
    }
    for (uint32_t i = 0; i < n_placed; ++i) {
      WriteSlot(ctx, placed[i], record, cand.tag);  // opens the stripe
      ctx.SetCounter(SlotIndex(placed[i]), n_placed);
    }
    ctx.Add(redundant_writes_, n_placed - 1);
    return n_placed;
  }

  /// Displaces the redundant copy at `victim` (counter `v` >= 2): reads its
  /// bucket to learn the victim's key and hints, then decrements the
  /// victim's other copies. The slot itself is left for the caller to
  /// overwrite. Fails, before any mutation, when another writer holds one
  /// of those copies.
  template <typename Ctx>
  bool OverwriteRedundantCopy(Ctx& ctx, const Position& victim, uint64_t v) {
    assert(v >= 2);
    ctx.Charge(&AccessStats::offchip_reads);
    const size_t idx = SlotIndex(victim);
    const Slot record = mem_.slots[idx];
    const std::array<size_t, kMaxHashes> alt =
        AlternateBuckets(record.key, victim.bucket);
    if (!ClaimAlternates(ctx, alt, victim.bucket)) return false;
    const CopySet others =
        LocateOtherCopies(ctx, record.key, mem_.counters.PeekTag(idx), alt,
                          victim, v, record.hint);
    for (uint32_t i = 0; i < others.count; ++i) {
      ctx.Open(others.pos[i].bucket);
      ctx.SetCounter(SlotIndex(others.pos[i]), v - 1);
    }
    return true;
  }

  /// Finds the v-1 positions besides `known` holding copies of `key`
  /// (fingerprint `tag`, claimed candidate buckets `cand`, all counters
  /// equal v). Candidate slots are the value-v slots of the other
  /// candidate buckets; buckets are resolved hint-first, and a bucket whose
  /// remaining candidates must all be copies (pigeonhole) is not read.
  template <typename Ctx>
  CopySet LocateOtherCopies(Ctx& ctx, const Key& key, uint8_t tag,
                            const std::array<size_t, kMaxHashes>& cand,
                            const Position& known, uint64_t v,
                            const std::array<uint8_t, kMaxHashes>& hints) {
    const uint32_t d = opts_.num_hashes;
    const uint32_t l = opts_.slots_per_bucket;

    // Group: candidate slots with counter == v, per bucket, excluding the
    // bucket that contains `known` (one copy per bucket at most).
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
        if (cand[t] == known.bucket) continue;
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
            out.pos[out.count++] = Position{groups[gj].bucket,
                                              groups[gj].slots[0]};
          }
          break;
        }
      }
      ctx.Charge(&AccessStats::offchip_reads);
      for (uint32_t i = 0; i < g.n_slots; ++i) {
        const Position p{g.bucket, g.slots[i]};
        const size_t idx = SlotIndex(p);
        if (mem_.counters.PeekTag(idx) == tag && mem_.slots[idx].key == key) {
          out.pos[out.count++] = p;
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
    const Position known = PositionOf(known_slot);
    CopySet out = LocateOtherCopies(ctx, key, cand.tag, cand.bucket, known,
                                    ctx.Counter(mem_.counters, known_slot),
                                    mem_.slots[known_slot].hint);
    out.pos[out.count++] = known;
    return out;
  }

  /// Random walk at slot granularity, single writer only: eviction targets
  /// are sole copies (all candidate slot counters are 1 when this is
  /// reached). The victim bucket follows the configured policy — uniform
  /// random, MinCounter's coldest, or bubbling's deterministic level cycle
  /// — the slot within it is uniform. On maxloop overrun the in-hand item
  /// gets one final placement attempt and is otherwise stashed — candidate
  /// buckets provably all-ones.
  template <typename Ctx>
  InsertResult RandomWalkInsert(Ctx& ctx, Key key, Value value,
                                uint32_t* chain_len_out) {
    size_t exclude_bucket = kNoBucket;
    int32_t from_level = -1;  // bubbling: level the in-hand item left
    uint32_t chain = 0;
    for (uint32_t loop = 0; loop < opts_.maxloop; ++loop) {
      Candidates cand = ComputeCandidates(key);
      if (loop > 0 && TryPlace(ctx, key, value, cand) > 0) {
        ctx.Add(size_, size_t{1});
        *chain_len_out = chain;
        return InsertResult::kInserted;
      }
      const uint32_t t =
          opts_.eviction_policy == EvictionPolicy::kBubble
              ? PickBubbleVictim(cand.bucket, opts_.num_hashes,
                                 exclude_bucket, from_level)
              : PickVictim(cand.bucket, opts_.num_hashes, exclude_bucket,
                           kick_history_, rng_);
      const uint32_t s =
          static_cast<uint32_t>(rng_.Below(opts_.slots_per_bucket));
      const Position p{cand.bucket[t], s};
      ctx.Charge(&AccessStats::offchip_reads);
      Slot victim = mem_.slots[SlotIndex(p)];
      WriteSlot(ctx, p, SoleRecord(key, value, p), cand.tag);
      // Counter stays 1: the slot still holds a sole copy.
      ctx.Kick(cand.bucket[t]);
      exclude_bucket = cand.bucket[t];
      from_level = static_cast<int32_t>(t);
      key = std::move(victim.key);
      value = std::move(victim.value);
      ++chain;
    }
    // The loop's last iteration evicted one more victim without giving the
    // newly carried item a placement attempt of its own. Complete that step
    // before stashing: otherwise an item with an empty or redundant
    // candidate lands in the stash, and the kDisabled stash screen — which
    // relies on every stashed key having seen all-ones counters — would
    // veto that key's own lookups.
    *chain_len_out = chain;
    const Candidates cand = ComputeCandidates(key);
    if (TryPlace(ctx, key, value, cand) > 0) {
      ctx.Add(size_, size_t{1});
      return InsertResult::kInserted;
    }
    return StashOverflow(ctx, key, value, cand, /*dead_end=*/false, 0);
  }

  /// Counter-aware BFS at slot granularity: a counter-0 slot is a free
  /// terminal, a counter >= 2 slot a redundant one (displacing it only
  /// decrements the occupant's other copies), a counter-1 slot an interior
  /// node whose children are the occupant's alternate slots. Node ids are
  /// global slot indices. Entered only when TryPlace placed nothing and
  /// every candidate slot of the in-hand key holds a sole copy, so all d*l
  /// candidate slots are valid interior roots. Expanding a node costs one
  /// charged bucket fetch (occupant key + hints); the occupant's alternate
  /// buckets are screened slot-by-slot entirely on-chip. Search, claim and
  /// apply run as in McCuckooTable::BfsInsert.
  template <typename Ctx>
  InsertResult BfsInsert(Ctx& ctx, const Key& key, const Value& value,
                         const Candidates& cand, ChainStats* chain) {
    const uint32_t d = opts_.num_hashes;
    const uint32_t l = opts_.slots_per_bucket;
    std::array<uint64_t, kMaxHashes * 8> roots{};
    uint32_t n_roots = 0;
    for (uint32_t t = 0; t < d; ++t) {
      for (uint32_t s = 0; s < l; ++s) {
        roots[n_roots++] = static_cast<uint64_t>(cand.bucket[t] * l + s);
      }
    }
    chain->budget = ctx.BfsBudget();
    bool dead_end = false;
    for (int attempt = 0; attempt < Ctx::kChainAttempts; ++attempt) {
      BfsPathResult path;
      {
        SeqlockReadCritical crit;  // unclaimed buckets mutate underneath
        path = BfsFindPath(
            roots.data(), n_roots, chain->budget,
            [&](uint64_t id, auto&& emit, auto&& terminal) {
              const size_t slot_idx = static_cast<size_t>(id);
              const size_t bucket = slot_idx / l;
              ctx.Charge(&AccessStats::offchip_reads);  // one bucket fetch
              const std::array<size_t, kMaxHashes> oc =
                  AlternateBuckets(mem_.slots[slot_idx].key, bucket);
              for (uint32_t t = 0; t < d; ++t) {
                const size_t alt = oc[t];
                if (alt == bucket) continue;
                for (uint32_t s = 0; s < l; ++s) {
                  const size_t alt_idx = alt * l + s;
                  if (ctx.Counter(mem_.counters, alt_idx) != 1) {
                    terminal(alt_idx);  // 0 = free, >= 2 = redundant copy
                    return;
                  }
                  // The child is expanded a few iterations from now:
                  // fetching it here overlaps the whole frontier's DRAM
                  // latency.
                  __builtin_prefetch(&mem_.slots[alt_idx], 0, 1);
                  emit(alt_idx);
                }
              }
            });
      }
      chain->nodes += path.nodes_expanded;
      ctx.ObserveBfs(path.found);
      if (!path.found) {
        dead_end = true;
        break;
      }
      const size_t mark = ctx.Mark();
      bool applied = ctx.ClaimChain(path);
      const size_t terminal = static_cast<size_t>(path.terminal);
      const uint64_t term_v =
          applied ? mem_.counters.PeekCounter(terminal) : 0;
      applied = applied && term_v != 1;  // else no longer a terminal
      // Apply backward: the last interior occupant moves into the
      // terminal, each predecessor into its successor, the new key into
      // the root. A relocated occupant is a sole copy, so its record is
      // rewritten with a fresh hint set pointing only at its new position.
      size_t dst = terminal;
      for (size_t i = path.node.size(); applied && i-- > 0;) {
        const size_t src = static_cast<size_t>(path.node[i]);
        const Position dst_pos = PositionOf(dst);
        const Slot& moved = mem_.slots[src];  // read during the search
        if (dst == terminal && term_v >= 2) {
          // Redundant terminal: displace one copy of the occupant, which
          // decrements its other copies' counters (zero relocations).
          applied = OverwriteRedundantCopy(ctx, dst_pos, term_v);
          if (!applied) break;
        }
        WriteSlot(ctx, dst_pos, SoleRecord(moved.key, moved.value, dst_pos),
                  mem_.counters.PeekTag(src));  // opens the bucket's stripe
        if (dst == terminal) {
          ctx.SetCounter(dst, 1);  // the moved item is a sole copy
        }
        // Interior destinations already held a sole copy: counter stays 1.
        ctx.Kick(src / l);
        dst = src;
      }
      if (applied) {
        const Position root = PositionOf(path.node.front());
        WriteSlot(ctx, root, SoleRecord(key, value, root), cand.tag);
        ctx.Add(size_, size_t{1});
        chain->len = static_cast<uint32_t>(path.node.size());
        return InsertResult::kInserted;
      }
      ctx.Release(mark);
      std::this_thread::yield();
    }
    return StashOverflow(ctx, key, value, cand, dead_end, chain->nodes);
  }

  /// The reader-visible storage: slots, per-bucket stash flags and bucket
  /// headers. A Rehash commit under live optimistic readers swaps it
  /// pointer-wise and retires the old one whole
  /// (TableSkeleton::CommitRebuildLockFree).
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
