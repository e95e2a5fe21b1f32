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
#include <memory>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <span>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "src/common/bits.h"
#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/core/bucket_header.h"
#include "src/core/config.h"
#include "src/core/counter_array.h"
#include "src/core/eviction.h"
#include "src/core/growth.h"
#include "src/core/read_out.h"
#include "src/core/seqlock.h"
#include "src/core/stash.h"
#include "src/hash/hash_family.h"
#include "src/mem/access_stats.h"
#include "src/obs/heatmap.h"
#include "src/obs/latency_recorder.h"
#include "src/obs/metrics.h"
#include "src/obs/span_recorder.h"
#include "src/obs/trace_recorder.h"

namespace mccuckoo {

/// Blocked multi-copy cuckoo hash table (d hashes, l slots per bucket).
template <typename Key, typename Value, typename Hasher = BobHasher,
          typename Family = HashFamily<Key, Hasher>>
  requires SeedableHasher<Hasher, Key>
class BlockedMcCuckooTable {
 public:
  /// Exposed template parameters (used by wrappers/adapters).
  using KeyType = Key;
  using ValueType = Value;
  using HasherType = Hasher;

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
  // Nested aggregates are defined before the operations: the batched and
  // candidate-reusing member signatures below mention them.

  /// Global candidate bucket indices (bucket index space, not slot space)
  /// plus the key's fingerprint, derived in the same hashing pass.
  struct Candidates {
    std::array<size_t, kMaxHashes> bucket;
    uint8_t tag = 0;
  };

  /// A (sub-table, bucket, slot) position, held as (bucket index, slot).
  struct Position {
    size_t bucket = 0;
    uint32_t slot = 0;
    bool operator==(const Position& o) const {
      return bucket == o.bucket && slot == o.slot;
    }
  };

  /// Counters and flags observed during an operation, for stash screening.
  struct CandidateView {
    std::array<size_t, kMaxHashes> bucket{};
    std::array<uint64_t, kMaxHashes> sum{};        // counter sum per bucket
    std::array<bool, kMaxHashes> bloom_nonzero{};  // any counter or tombstone
    std::array<bool, kMaxHashes> all_ones{};       // every slot counter == 1
    std::array<bool, kMaxHashes> bucket_read{};
    std::array<bool, kMaxHashes> flag_value{};
    uint32_t d = 0;
    // Probe accounting for the metrics layer. Blocked lookups fetch whole
    // buckets, so "probes" counts bucket reads; hit_value is the found
    // slot's counter (its partition).
    uint32_t probes_total = 0;
    int32_t hit_value = -1;
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
      : opts_(options),
        family_(options.num_hashes, options.buckets_per_table, options.seed),
        slots_(static_cast<size_t>(options.num_hashes) *
               options.buckets_per_table * options.slots_per_bucket),
        flags_(static_cast<size_t>(options.num_hashes) *
               options.buckets_per_table),
        counters_(slots_.size(), options.slots_per_bucket, options.num_hashes,
                  stats_.get()),
        probe_simd_(ResolveProbeKind(options.probe) == ProbeKind::kSimd),
        rng_(SplitMix64(options.seed ^ 0xB10CB10CB10CB10Cull)),
        growth_(options.growth) {
    if (Status s = CheckOptions(options); !s.ok()) {
      std::fprintf(stderr, "BlockedMcCuckooTable: %s\n", s.message().c_str());
      std::abort();
    }
    if (options.eviction_policy == EvictionPolicy::kMinCounter) {
      kick_history_ =
          KickHistory(flags_.size(), options.kick_counter_bits, stats_.get());
    }
    latency_->set_sample_period(options.latency_sample_period);
  }

  /// Validating factory for untrusted configuration.
  static Result<BlockedMcCuckooTable> Create(const TableOptions& options) {
    if (Status s = CheckOptions(options); !s.ok()) return s;
    return BlockedMcCuckooTable(options);
  }

  // --- Core operations ---------------------------------------------------

  /// Inserts a key assumed not to be present (see McCuckooTable::Insert).
  InsertResult Insert(const Key& key, const Value& value) {
    ScopedLatencySample lat(latency_.get(), LatencyOp::kInsert);
    return InsertWithCandidates(key, value, ComputeCandidates(key));
  }

  /// Inserts or, if the key exists (main table or stash), updates every copy.
  /// On kUpdated the replaced value is written through `previous` (when
  /// non-null); otherwise `*previous` is left untouched.
  InsertResult InsertOrAssign(const Key& key, const Value& value,
                              Value* previous = nullptr) {
    CandidateView view;
    Position pos;
    if (FindInMain(key, ComputeCandidates(key), previous, &view, &pos)) {
      CopySet copies = LocateAllCopies(key, pos, CounterAt(pos));
      for (uint32_t i = 0; i < copies.count; ++i) {
        WriteSlotValue(copies.pos[i], key, value);
      }
      SeqFlush();
      return InsertResult::kUpdated;
    }
    if (ShouldProbeStash(view)) {
      ChargeStashProbe();
      const bool in_stash = stash_.Find(key, previous);
      metrics_->RecordStashProbe(in_stash);
      if (in_stash) {
        ChargeStashWrite();
        SeqOpenAux();
        stash_.Insert(key, value);
        SeqFlush();
        return InsertResult::kUpdated;
      }
    }
    return Insert(key, value);
  }

  /// Looks `key` up (Algorithm 2, Fig 7).
  bool Find(const Key& key, Value* out = nullptr) const {
    ScopedLatencySample lat(latency_.get(), LatencyOp::kFind);
    return FindImpl(key, ComputeCandidates(key), out, *metrics_);
  }

  bool Contains(const Key& key) const { return Find(key, nullptr); }

  // --- Batched operations (software-pipelined) ---------------------------
  //
  // Same two-stage pipeline as McCuckooTable: stage 1 hashes a tile of
  // keys and prefetches every candidate bucket's slot lines and counter
  // words; stage 2 replays the unchanged scalar per-key logic. Algorithm
  // 2's bucket-sum skipping and the AccessStats accounting are bit-
  // identical to a scalar loop.

  /// Internal pipeline depth. 16 keys, not 64: a blocked bucket spans
  /// l * sizeof(Slot) bytes (several lines), so large tiles overflow L1
  /// before stage 2 replays the first keys — see the sizing comment on
  /// McCuckooTable::kBatchTile.
  static constexpr size_t kBatchTile = 16;

  /// Batched lookup; equivalent to calling Find per key, in order. Returns
  /// the number of keys found.
  size_t FindBatch(std::span<const Key> keys, Value* out, bool* found) const {
    ScopedLatencySample lat(latency_.get(), LatencyOp::kFindBatch);
    size_t hits = 0;
    std::array<Candidates, kBatchTile> cand;
    // Lookup metrics accumulate on the stack and publish once per batch
    // (see McCuckooTable::FindBatch).
    LookupTally tally;
    for (size_t base = 0; base < keys.size(); base += kBatchTile) {
      const size_t n = std::min(kBatchTile, keys.size() - base);
      StageCandidates(&keys[base], n, cand.data(), /*for_write=*/false);
      for (size_t i = 0; i < n; ++i) {
        const bool hit =
            FindImpl(keys[base + i], cand[i],
                     out != nullptr ? &out[base + i] : nullptr, tally);
        if (found != nullptr) found[base + i] = hit;
        hits += hit ? 1 : 0;
      }
    }
    tally.FlushTo(*metrics_);
    return hits;
  }

  /// Batched membership test.
  size_t ContainsBatch(std::span<const Key> keys, bool* found) const {
    return FindBatch(keys, nullptr, found);
  }

  /// Batched mutation-free lookup (sharded/concurrent reader path).
  size_t FindBatchNoStats(std::span<const Key> keys, Value* out,
                          bool* found) const {
    ScopedLatencySample lat(latency_.get(), LatencyOp::kFindBatch);
    size_t hits = 0;
    std::array<Candidates, kBatchTile> cand;
    LookupTally tally;
    for (size_t base = 0; base < keys.size(); base += kBatchTile) {
      const size_t n = std::min(kBatchTile, keys.size() - base);
      StageCandidates(&keys[base], n, cand.data(), /*for_write=*/false);
      for (size_t i = 0; i < n; ++i) {
        const bool hit =
            FindNoStatsImpl(keys[base + i], cand[i],
                            out != nullptr ? &out[base + i] : nullptr, tally);
        if (found != nullptr) found[base + i] = hit;
        hits += hit ? 1 : 0;
      }
    }
    tally.FlushTo(*metrics_);
    return hits;
  }

  /// Batched insertion; equivalent to calling Insert per key, in order.
  void InsertBatch(std::span<const Key> keys, std::span<const Value> values,
                   InsertResult* results = nullptr) {
    ScopedLatencySample lat(latency_.get(), LatencyOp::kInsertBatch);
    assert(keys.size() == values.size());
    std::array<Candidates, kBatchTile> cand;
    for (size_t base = 0; base < keys.size(); base += kBatchTile) {
      const size_t n = std::min(kBatchTile, keys.size() - base);
      StageCandidates(&keys[base], n, cand.data(), /*for_write=*/true);
      for (size_t i = 0; i < n; ++i) {
        const uint64_t epoch = rehash_epoch_;
        const InsertResult r =
            InsertWithCandidates(keys[base + i], values[base + i], cand[i]);
        if (results != nullptr) results[base + i] = r;
        // An auto-growth rehash inside the insert replaced the geometry
        // and hash seeds; the remaining staged candidates were computed
        // against the old ones and must be re-derived.
        if (rehash_epoch_ != epoch && i + 1 < n) {
          StageCandidates(&keys[base + i + 1], n - i - 1, &cand[i + 1],
                          /*for_write=*/true);
        }
      }
    }
  }

  /// Statistics-free const lookup (see McCuckooTable::FindNoStats): the
  /// ShardedMcCuckoo locked reader path. Performs no mutation.
  bool FindNoStats(const Key& key, Value* out = nullptr) const {
    return FindNoStatsImpl(key, ComputeCandidates(key), out, *metrics_);
  }

  // --- Optimistic (seqlock-validated) read path --------------------------
  // Same protocol as McCuckooTable; stripes cover whole buckets here.

  /// Attaches (or, with null, detaches) the wrapper-owned version array.
  void AttachSeqlock(SeqlockArray* seq) { seq_ = seq; }

  /// Sizing hint for the version array: one potential stripe per bucket.
  size_t seqlock_domain() const { return flags_.size(); }

  /// Lock-free lookup attempt (see McCuckooTable::TryFindOptimistic).
  OptimisticResult TryFindOptimistic(const Key& key,
                                     Value* out = nullptr) const {
    static_assert(
        std::is_trivially_copyable_v<Key> && std::is_trivially_copyable_v<Value>,
        "optimistic reads require trivially copyable Key and Value");
    // One sample candidate per attempt (see McCuckooTable).
    ScopedLatencySample lat(latency_.get(), LatencyOp::kFind);
    if (seq_ == nullptr) return OptimisticResult::kContended;
    size_t stripes[kMaxHashes + 1];
    uint32_t versions[kMaxHashes + 1];
    size_t n = 0;
    stripes[n] = seq_->aux_stripe();
    versions[n] = seq_->ReadBegin(stripes[n]);
    if (SeqlockArray::IsWriting(versions[n])) {
      return OptimisticResult::kContended;
    }
    ++n;
    // Candidates under the recorded aux version, bounds-checked before any
    // probe (see McCuckooTable::TryFindOptimistic): Rehash replaces the
    // geometry and hash seeds wholesale, and a torn-epoch bucket index
    // must not escape into the slot probe.
    uint32_t d;
    Candidates cand;
    {
      SeqlockReadCritical crit;
      d = opts_.num_hashes;
      cand = ComputeCandidates(key);
      for (uint32_t t = 0; t < d; ++t) {
        if (cand.bucket[t] >= flags_.size()) {
          return OptimisticResult::kContended;
        }
      }
    }
    for (uint32_t t = 0; t < d; ++t) {
      const size_t s = seq_->StripeOf(cand.bucket[t]);
      bool dup = false;
      for (size_t j = 1; j < n; ++j) {
        if (stripes[j] == s) {
          dup = true;
          break;
        }
      }
      if (dup) continue;
      stripes[n] = s;
      versions[n] = seq_->ReadBegin(s);
      if (SeqlockArray::IsWriting(versions[n])) {
        return OptimisticResult::kContended;
      }
      ++n;
    }
    Value tmp{};
    LookupTally tally;
    MainOutcome mo;
    {
      SeqlockReadCritical crit;
      mo = FindNoStatsMain(key, cand, &tmp, tally);
    }
    if (!seq_->Validate(stripes, versions, n)) {
      return OptimisticResult::kContended;
    }
    if (mo == MainOutcome::kCheckStash) return OptimisticResult::kContended;
    tally.FlushTo(*metrics_);
    if (mo == MainOutcome::kHit) {
      if (out != nullptr) *out = tmp;
      return OptimisticResult::kHit;
    }
    return OptimisticResult::kMiss;
  }

  /// All-or-nothing optimistic batch lookup over one tile (see
  /// McCuckooTable::TryFindBatchOptimistic). Returns the hit count or -1.
  int64_t TryFindBatchOptimistic(std::span<const Key> keys, Value* out,
                                 bool* found) const {
    ScopedLatencySample lat(latency_.get(), LatencyOp::kFindBatch);
    static_assert(
        std::is_trivially_copyable_v<Key> && std::is_trivially_copyable_v<Value>,
        "optimistic reads require trivially copyable Key and Value");
    assert(keys.size() <= kBatchTile);
    if (seq_ == nullptr) return -1;
    if (keys.empty()) return 0;
    const size_t n_keys = keys.size();
    std::array<size_t, kBatchTile * kMaxHashes + 1> stripes;
    std::array<uint32_t, kBatchTile * kMaxHashes + 1> versions;
    size_t n = 0;
    stripes[n] = seq_->aux_stripe();
    versions[n] = seq_->ReadBegin(stripes[n]);
    if (SeqlockArray::IsWriting(versions[n])) return -1;
    ++n;
    // Candidates under the recorded aux version, bounds-checked before any
    // probe (see McCuckooTable::TryFindOptimistic).
    uint32_t d;
    std::array<Candidates, kBatchTile> cand;
    {
      SeqlockReadCritical crit;
      d = opts_.num_hashes;
      StageCandidates(keys.data(), n_keys, cand.data(), /*for_write=*/false);
      for (size_t i = 0; i < n_keys; ++i) {
        for (uint32_t t = 0; t < d; ++t) {
          if (cand[i].bucket[t] >= flags_.size()) return -1;
        }
      }
    }
    for (size_t i = 0; i < n_keys; ++i) {
      for (uint32_t t = 0; t < d; ++t) {
        const size_t s = seq_->StripeOf(cand[i].bucket[t]);
        stripes[n] = s;
        versions[n] = seq_->ReadBegin(s);
        if (SeqlockArray::IsWriting(versions[n])) return -1;
        ++n;
      }
    }
    std::array<Value, kBatchTile> tmpv{};
    std::array<bool, kBatchTile> tmpf{};
    LookupTally tally;
    size_t hits = 0;
    {
      SeqlockReadCritical crit;
      for (size_t i = 0; i < n_keys; ++i) {
        const MainOutcome mo =
            FindNoStatsMain(keys[i], cand[i], &tmpv[i], tally);
        if (mo == MainOutcome::kCheckStash) return -1;
        tmpf[i] = (mo == MainOutcome::kHit);
        hits += tmpf[i] ? 1 : 0;
      }
    }
    if (!seq_->Validate(stripes.data(), versions.data(), n)) return -1;
    tally.FlushTo(*metrics_);
    for (size_t i = 0; i < n_keys; ++i) {
      if (found != nullptr) found[i] = tmpf[i];
      if (out != nullptr && tmpf[i]) out[i] = tmpv[i];
    }
    return static_cast<int64_t>(hits);
  }

 private:
  /// See McCuckooTable::MainOutcome.
  enum class MainOutcome : uint8_t { kHit, kMiss, kCheckStash };

  /// Main-table part of FindNoStats over precomputed candidates —
  /// everything except the stash probe itself (see McCuckooTable). `sink`
  /// is the live TableMetrics for scalar calls, a stack-local LookupTally
  /// for batches and optimistic attempts.
  template <typename MetricsSink>
  MainOutcome FindNoStatsMain(const Key& key, const Candidates& cand,
                              Value* out, MetricsSink& sink) const {
    const uint32_t d = opts_.num_hashes;
    const uint32_t l = opts_.slots_per_bucket;
    // One aligned header load per candidate bucket answers occupancy,
    // tombstones and tag matches together; the slot lines are touched only
    // for tag-matching occupied slots. Racing writers may tear these reads
    // — the optimistic callers discard the result via seqlock validation,
    // and slot indices stay in range regardless (meta/tag bytes past l are
    // never written, so no match bit can point there).
    const BucketHeader* hdr[kMaxHashes] = {};
    uint64_t meta[kMaxHashes];
    uint32_t match[kMaxHashes];
    for (uint32_t t = 0; t < d; ++t) {
      hdr[t] = &counters_.HeaderAt(cand.bucket[t]);
      // Start the candidate slot lines toward the core while the headers
      // are screened: the hit path's header -> slot dependence is the
      // longest miss chain left. A pure overlap hint — the modeled reads
      // are decided by the probe rules alone, never by what is cached.
      __builtin_prefetch(&slots_[cand.bucket[t] * l], 0, 1);
    }
    if (probe_simd_) {
      SimdTagMatchMasks(hdr, d, cand.tag, match);
    } else {
      for (uint32_t t = 0; t < d; ++t) {
        match[t] = TagMatchMaskScalar(*hdr[t], cand.tag);
      }
    }
    for (uint32_t t = 0; t < d; ++t) meta[t] = HdrMetaWord(*hdr[t]);

    bool any_zero_bucket = false;
    bool all_buckets_all_ones = true;
    bool read_flag_zero = false;
    bool found = false;
    uint32_t probes_total = 0;
    int32_t hit_value = -1;
    for (uint32_t t = 0; t < d && !found; ++t) {
      const bool occupied = (meta[t] & kHdrCounterRep) != 0;
      if ((meta[t] & kHdrCounterRep) != counters_.ones_word()) {
        all_buckets_all_ones = false;
      }
      if (meta[t] == 0) any_zero_bucket = true;  // no occupants, no tombs
      if (opts_.lookup_pruning_enabled && !occupied) continue;
      if (meta[t] != 0) ++probes_total;  // one bucket fetch
      if (!flags_.Test(cand.bucket[t])) read_flag_zero = true;
      for (uint32_t m = match[t]; m != 0; m &= m - 1) {
        const uint32_t s = static_cast<uint32_t>(__builtin_ctz(m));
        const Slot& slot = slots_[cand.bucket[t] * l + s];
        if (slot.key == key) {
          if (out != nullptr) *out = slot.value;
          hit_value =
              static_cast<int32_t>((meta[t] >> (8 * s)) & kHdrCounterMask);
          found = true;
          break;
        }
      }
    }
    if constexpr (kMetricsEnabled) {
      sink.RecordLookupOutcome(probes_total, hit_value);
    }
    if (found) return MainOutcome::kHit;
    // The empty() read is a plain size check, memory-safe even when racing
    // a writer; optimistic callers validate the aux stripe before trusting
    // it.
    if (stash_.empty()) return MainOutcome::kMiss;
    if (opts_.stash_kind == StashKind::kOnchipChs) {
      return MainOutcome::kCheckStash;
    }
    if (opts_.stash_screen_enabled) {
      if (opts_.deletion_mode == DeletionMode::kDisabled &&
          !all_buckets_all_ones) {
        return MainOutcome::kMiss;
      }
      if (opts_.deletion_mode == DeletionMode::kTombstone &&
          any_zero_bucket) {
        return MainOutcome::kMiss;
      }
      if (read_flag_zero) return MainOutcome::kMiss;
    }
    return MainOutcome::kCheckStash;
  }

  /// FindNoStats body over precomputed candidates: the main-table probe
  /// plus, when the screen allows it, the actual stash probe.
  template <typename MetricsSink>
  bool FindNoStatsImpl(const Key& key, const Candidates& cand, Value* out,
                       MetricsSink& sink) const {
    switch (FindNoStatsMain(key, cand, out, sink)) {
      case MainOutcome::kHit:
        return true;
      case MainOutcome::kMiss:
        return false;
      case MainOutcome::kCheckStash:
        break;
    }
    const bool hit = stash_.Find(key, out);
    sink.RecordStashProbe(hit);
    return hit;
  }

 public:
  /// Deletes `key` (Algorithm 3, Fig 8): zero off-chip writes.
  bool Erase(const Key& key) {
    ScopedLatencySample lat(latency_.get(), LatencyOp::kErase);
    if (opts_.deletion_mode == DeletionMode::kDisabled) {
      std::fprintf(stderr,
                   "BlockedMcCuckooTable::Erase called with "
                   "DeletionMode::kDisabled\n");
      std::abort();
    }
    CandidateView view;
    Position pos;
    if (FindInMain(key, ComputeCandidates(key), nullptr, &view, &pos)) {
      CopySet copies = LocateAllCopies(key, pos, CounterAt(pos));
      for (uint32_t i = 0; i < copies.count; ++i) {
        SeqOpen(copies.pos[i].bucket);
        const size_t idx = SlotIndex(copies.pos[i]);
        if (opts_.deletion_mode == DeletionMode::kTombstone) {
          counters_.MarkDeleted(idx);
        } else {
          counters_.Set(idx, 0);
        }
      }
      --size_;
      SeqFlush();
      metrics_->RecordErase();
      return true;
    }
    if (ShouldProbeStash(view)) {
      ChargeStashProbe();
      SeqOpenAux();
      const bool hit = stash_.Erase(key);
      SeqFlush();
      metrics_->RecordStashProbe(hit);
      if (hit) {
        ChargeStashWrite();
        ++stale_stash_flag_keys_;
        metrics_->RecordErase();
        return true;
      }
    }
    return false;
  }

  /// Full rehash into a table of `new_buckets_per_table` buckets per
  /// sub-table under a fresh hash family seeded by `new_seed` — the costly
  /// remedy for insertion failures that the stash exists to avoid (§I.2),
  /// provided for completeness and for growing a long-lived table. Reads
  /// out every live item (charged: one read per old bucket plus the
  /// re-insertion traffic) and rebuilds through the pipelined InsertBatch;
  /// stashed items are re-inserted after the main-table items. Fails
  /// without touching the table if the new capacity cannot hold the
  /// current items.
  Status Rehash(uint64_t new_buckets_per_table, uint64_t new_seed) {
    const uint64_t t0 = MetricsNowNs();
    TableOptions new_opts = opts_;
    new_opts.buckets_per_table = new_buckets_per_table;
    new_opts.seed = new_seed;
    Status s = new_opts.Validate();
    if (!s.ok()) return s;
    if (new_opts.capacity() < TotalItems()) {
      return Status::InvalidArgument(
          "rehash target smaller than the current item count");
    }
    // "Reading out all inserted items and using a different set of hash
    // functions to put them into a bigger table" (§I.2).
    std::vector<Key> keys;
    std::vector<Value> values;
    keys.reserve(TotalItems());
    values.reserve(TotalItems());
    stats_->offchip_reads += flags_.size();  // full scan, one read per bucket
    ForEachMainItem([&](const Key& k, const Value& v) {
      keys.push_back(k);
      values.push_back(v);
    });
    for (const auto& [k, v] : stash_.Items()) {
      ++stats_->offchip_reads;
      keys.push_back(k);
      values.push_back(v);
    }

    // The rebuild runs with growth disabled: a re-insertion overflow must
    // not recursively rehash the table being built. The caller-visible
    // growth config is restored onto the rebuilt options before commit.
    TableOptions build_opts = new_opts;
    build_opts.growth.enabled = false;
    BlockedMcCuckooTable rebuilt(build_opts);
    rebuilt.InsertBatch(keys, values);
    rebuilt.opts_.growth = new_opts.growth;
    // Discard any degraded-state signal the growth-disabled rebuild
    // raised; the live policy re-evaluates pressure after the commit.
    rebuilt.metrics_->SetGrowthSuppressed(false);
    // Keep lifetime counters across the rebuild.
    rebuilt.redundant_writes_ += redundant_writes_;
    rebuilt.first_collision_items_ = first_collision_items_;
    rebuilt.first_failure_items_ = first_failure_items_;
    const size_t moved_items = keys.size();
    SeqlockArray* seq = seq_;
    if (seq == nullptr) {
      *rebuilt.stats_ += *stats_;
      rebuilt.metrics_->MergeFrom(*metrics_);
      // Latency samples and the span timeline describe this table's
      // lifetime too — carry them like the metrics. The recorder object
      // itself survives the move (see McCuckooTable::Rehash).
      latency_->MergeFrom(*rebuilt.latency_);
      std::unique_ptr<LatencyRecorder> saved_latency = std::move(latency_);
      rebuilt.spans_ = std::move(spans_);
      // The policy and epoch describe this table's lifetime, not the
      // scratch rebuild's: carry them across the wholesale move.
      const uint64_t epoch = rehash_epoch_ + 1;
      GrowthPolicy saved_growth = std::move(growth_);
      *this = std::move(rebuilt);
      latency_ = std::move(saved_latency);
      growth_ = std::move(saved_growth);
      rehash_epoch_ = epoch;
      metrics_->RecordRehash(MetricsNowNs() - t0);
      spans_.Record(SpanKind::kRehash, t0, MetricsNowNs(), moved_items);
      return Status::OK();
    }
    // The attached version array survives the rebuild (mask mapping is
    // size-independent); the swap reallocates every slot, so it runs under
    // the aux stripe to invalidate in-flight optimistic reads. The
    // concurrent wrappers' exclusive sections already hold the aux stripe
    // open around the whole call; only open it here when no outer writer
    // does, so the stripe stays odd through the commit either way
    // (WriteBegin is a blind increment — double-opening would flip it even).
    const bool aux_held =
        SeqlockArray::IsWriting(seq->Version(seq->aux_stripe()));
    if (!aux_held) seq->WriteBegin(seq->aux_stripe());
    CommitRebuildLockFree(std::move(rebuilt));  // leaves seq_ untouched
    if (!aux_held) seq->WriteEnd(seq->aux_stripe());
    metrics_->RecordRehash(MetricsNowNs() - t0);
    spans_.Record(SpanKind::kRehash, t0, MetricsNowNs(), moved_items);
    return Status::OK();
  }

  // --- Stash maintenance ---------------------------------------------------

  /// Attempts to move stashed items back into free/redundant slots.
  size_t TryDrainStash() {
    size_t drained = 0;
    for (const auto& [k, v] : stash_.Items()) {
      Candidates cand = ComputeCandidates(k);
      if (TryPlace(k, v, cand) > 0) {
        SeqOpenAux();
        stash_.Erase(k);
        ChargeStashWrite();
        ++size_;
        ++drained;
      }
      SeqFlush();  // per item: slot copies and stash removal together
    }
    return drained;
  }

  /// Resets all stash flags and re-marks current stash items (§III.F).
  void RebuildStashFlags() {
    // Word-at-a-time scan of the set bits; one charged write per flag
    // actually cleared, as before. Cleared and re-set flags publish
    // together (SeqFlush at the end): a reader validating in between
    // would false-miss a stashed key.
    flags_.ForEachSetBit([&](size_t bucket) {
      SeqOpen(bucket);
      ++stats_->offchip_writes;
    });
    flags_.ClearAll();
    for (const auto& [k, v] : stash_.Items()) {
      (void)v;
      Candidates cand = ComputeCandidates(k);
      for (uint32_t t = 0; t < opts_.num_hashes; ++t) SetFlag(cand.bucket[t]);
    }
    stale_stash_flag_keys_ = 0;
    SeqFlush();
  }

  // --- Introspection -------------------------------------------------------

  size_t size() const { return size_; }
  size_t stash_size() const { return stash_.size(); }
  size_t TotalItems() const { return size_ + stash_.size(); }
  uint64_t capacity() const { return slots_.size(); }
  double load_factor() const {
    return static_cast<double>(TotalItems()) / static_cast<double>(capacity());
  }
  const TableOptions& options() const { return opts_; }
  const AccessStats& stats() const { return *stats_; }
  void ResetStats() { *stats_ = AccessStats{}; }

  /// Point-in-time metrics copy with the occupancy/capacity gauges filled
  /// (all zeros under -DMCCUCKOO_NO_METRICS).
  MetricsSnapshot SnapshotMetrics() const {
    MetricsSnapshot s = metrics_->Snapshot();
    s.occupancy_items = TotalItems();
    s.capacity_slots = capacity();
    latency_->FoldInto(&s);
    for (size_t k = 0; k < kSpanKinds; ++k) {
      s.span_counts[k] += spans_.Totals()[k];
    }
    return s;
  }

  /// Clears the metrics, the kick-chain trace ring, the latency samples,
  /// and the span ring.
  void ResetMetrics() {
    metrics_->Reset();
    trace_.Clear();
    latency_->Reset();
    spans_.Clear();
  }

  /// Kick-chain trace ring (post-mortem inspection of recent chains).
  const TraceRecorder& trace() const { return trace_; }

  /// Span timeline ring (growth/rehash/reseed/dead-end/spill events).
  const SpanRecorder& spans() const { return spans_; }

  /// Sampled op-latency recorder.
  LatencyRecorder& latency() const { return *latency_; }

  /// Scans the table into an occupancy/counter heatmap at the requested
  /// region resolution. Regions are runs of whole buckets; counter_values
  /// counts slots by counter value (a blocked bucket has l counters).
  HeatmapSnapshot Heatmap(size_t regions = 64) const {
    HeatmapSnapshot h;
    const size_t buckets = flags_.size();
    const uint32_t l = opts_.slots_per_bucket;
    if (regions == 0) regions = 1;
    if (regions > buckets) regions = buckets;
    h.region_occupied.assign(regions, 0);
    h.region_slots.assign(regions, 0);
    h.total_buckets = buckets;
    h.total_slots = slots_.size();
    const size_t per_region = (buckets + regions - 1) / regions;
    for (size_t bucket = 0; bucket < buckets; ++bucket) {
      const size_t region = bucket / per_region;
      h.region_slots[region] += l;
      for (uint32_t slot = 0; slot < l; ++slot) {
        const uint64_t c = counters_.PeekCounter(bucket * l + slot);
        const size_t cv = c < kMetricsPartitions ? c : kMetricsPartitions - 1;
        ++h.counter_values[cv];
        if (c != 0) {
          ++h.region_occupied[region];
          ++h.occupied_slots;
        }
      }
    }
    return h;
  }

  /// Which tag-probe kernel this instance resolved to ("simd"/"scalar");
  /// bench keys embed it.
  const char* probe_variant() const { return probe_simd_ ? "simd" : "scalar"; }

  uint64_t first_collision_items() const { return first_collision_items_; }
  uint64_t first_failure_items() const { return first_failure_items_; }
  uint64_t redundant_writes() const { return redundant_writes_; }
  uint64_t stale_stash_flag_keys() const { return stale_stash_flag_keys_; }

  /// Times a CHS-style on-chip stash exceeded its capacity — events where a
  /// real deployment would have had to rehash (§II.B).
  uint64_t forced_rehash_events() const { return forced_rehash_events_; }
  size_t onchip_memory_bytes() const {
    return counters_.counter_bytes() + kick_history_.memory_bytes();
  }

  /// Invokes `fn(key, value)` once per live key (main table + stash), in
  /// unspecified order. Uncharged maintenance/snapshot path.
  template <typename Fn>
  void ForEachItem(Fn&& fn) const {
    ForEachMainItem(fn);
    for (const auto& [k, v] : stash_.Items()) fn(k, v);
  }

  /// Number of live copies of `key` (uncharged; testing).
  uint32_t CountCopies(const Key& key) const {
    Candidates cand = ComputeCandidates(key);
    uint32_t copies = 0;
    for (uint32_t t = 0; t < opts_.num_hashes; ++t) {
      for (uint32_t s = 0; s < opts_.slots_per_bucket; ++s) {
        const size_t idx = cand.bucket[t] * opts_.slots_per_bucket + s;
        if (counters_.PeekCounter(idx) > 0 && slots_[idx].key == key) ++copies;
      }
    }
    return copies;
  }

  /// Exhaustive structural check (uncharged; testing).
  Status ValidateInvariants() const {
    std::unordered_map<Key, std::vector<size_t>> copies;
    const uint64_t nb = opts_.buckets_per_table;
    const uint32_t l = opts_.slots_per_bucket;
    for (size_t idx = 0; idx < slots_.size(); ++idx) {
      const uint64_t c = counters_.PeekCounter(idx);
      if (counters_.PeekTombstone(idx)) {
        if (opts_.deletion_mode != DeletionMode::kTombstone) {
          return Status::Internal("tombstone outside kTombstone mode");
        }
        continue;
      }
      if (c == 0) continue;
      if (c > opts_.num_hashes) {
        return Status::Internal("counter exceeds d at " + std::to_string(idx));
      }
      const size_t bucket = idx / l;
      const uint32_t t = static_cast<uint32_t>(bucket / nb);
      const uint64_t b = bucket % nb;
      if (family_.Bucket(slots_[idx].key, t) != b) {
        return Status::Internal("occupant does not hash to bucket " +
                                std::to_string(idx));
      }
      // Every occupied slot's header tag must fingerprint its occupant —
      // the probe kernels rely on a mismatch proving a different key.
      if (counters_.PeekTag(idx) != family_.TagOf(slots_[idx].key)) {
        return Status::Internal("stale header tag at " + std::to_string(idx));
      }
      copies[slots_[idx].key].push_back(idx);
    }
    for (const auto& [k, positions] : copies) {
      // At most one copy per bucket.
      std::vector<size_t> buckets;
      for (size_t idx : positions) buckets.push_back(idx / l);
      std::sort(buckets.begin(), buckets.end());
      if (std::adjacent_find(buckets.begin(), buckets.end()) !=
          buckets.end()) {
        return Status::Internal("two copies of one key in one bucket");
      }
      for (size_t idx : positions) {
        if (counters_.PeekCounter(idx) != positions.size()) {
          return Status::Internal("counter != copy count at " +
                                  std::to_string(idx));
        }
        if (!(slots_[idx].value == slots_[positions.front()].value)) {
          return Status::Internal("diverged copy values for a key");
        }
      }
    }
    if (copies.size() != size_) {
      return Status::Internal("size_ does not match live distinct keys");
    }
    return Status::OK();
  }

  /// Debug-only consistency check for tests: runs ValidateInvariants and
  /// additionally verifies that every stashed key still has its stash flag
  /// set at every candidate bucket (flags are set on all candidates at
  /// stash time and only cleared by rebuilds, so a missing flag would make
  /// the key invisible to screened lookups). Flags may be stale-set — they
  /// are sticky by design — but never missing for a stashed key. Compiles
  /// to a no-op in release builds.
  Status CheckInvariants() const {
#ifdef NDEBUG
    return Status::OK();
#else
    if (Status s = ValidateInvariants(); !s.ok()) return s;
    if (opts_.stash_kind == StashKind::kOffchip) {
      for (const auto& [k, v] : stash_.Items()) {
        const Candidates cand = ComputeCandidates(k);
        for (uint32_t t = 0; t < opts_.num_hashes; ++t) {
          if (!flags_.Test(cand.bucket[t])) {
            return Status::Internal(
                "stashed key lacks a candidate stash flag at bucket " +
                std::to_string(cand.bucket[t]));
          }
          // Without deletions the screen additionally relies on every
          // stashed key's candidate buckets staying all-ones forever: the
          // key was stashed only after TryPlace saw every slot at counter
          // 1, and a counter-1 slot can never fall to 0 nor climb past 1.
          if (opts_.deletion_mode == DeletionMode::kDisabled) {
            for (uint32_t s = 0; s < opts_.slots_per_bucket; ++s) {
              const size_t si = SlotIndex(Position{cand.bucket[t], s});
              if (counters_.PeekCounter(si) != 1) {
                return Status::Internal(
                    "stashed key candidate bucket " +
                    std::to_string(cand.bucket[t]) + " slot " +
                    std::to_string(s) + " has counter " +
                    std::to_string(counters_.PeekCounter(si)) +
                    " != 1 under kDisabled; the stash screen would veto "
                    "lookups");
              }
            }
          }
        }
      }
    }
    return Status::OK();
#endif
  }

  /// Read-only view of the auto-growth state machine (tests/diagnostics).
  const GrowthPolicy& growth_policy() const { return growth_; }

  /// Bumps on every committed Rehash (manual or auto-growth); batch paths
  /// use it to detect a mid-batch geometry/seed change.
  uint64_t rehash_epoch() const { return rehash_epoch_; }

 private:
  /// Charges one stash probe: an off-chip read for the paper's off-chip
  /// stash, an on-chip read for the classic CHS stash.
  void ChargeStashProbe() {
    ++stats_->stash_probes;
    if (opts_.stash_kind == StashKind::kOffchip) {
      ++stats_->offchip_reads;
    } else {
      ++stats_->onchip_reads;
    }
  }

  /// Charges one stash mutation (store/erase).
  void ChargeStashWrite() {
    if (opts_.stash_kind == StashKind::kOffchip) {
      ++stats_->offchip_writes;
    } else {
      ++stats_->onchip_writes;
    }
  }

  static constexpr size_t kNoBucket = static_cast<size_t>(-1);

  Candidates ComputeCandidates(const Key& key) const {
    Candidates c{};
    // Fused: the tag falls out of the hash evaluation the family already
    // does for the bucket indices (for DoubleHashFamily this path is also
    // 2 hashes instead of 2 per sub-table).
    const std::array<uint64_t, kMaxHashes> b = family_.Buckets(key, &c.tag);
    for (uint32_t t = 0; t < opts_.num_hashes; ++t) {
      c.bucket[t] = static_cast<size_t>(t) * opts_.buckets_per_table + b[t];
    }
    return c;
  }

  // --- batching stage 1: hash + prefetch ---------------------------------

  /// Hashes `n` keys via the family's batch entry point and prefetches
  /// every candidate bucket's slot lines (a bucket spans l * sizeof(Slot)
  /// bytes, possibly several cache lines) plus the bucket's counter words.
  /// Pure hint stage; charges nothing.
  void StageCandidates(const Key* keys, size_t n, Candidates* cand,
                       bool for_write) const {
    std::array<std::array<uint64_t, kMaxHashes>, kBatchTile> buckets;
    std::array<uint8_t, kBatchTile> tags;
    family_.BucketsBatch(keys, n, buckets.data(), tags.data());
    const uint32_t d = opts_.num_hashes;
    const uint32_t l = opts_.slots_per_bucket;
    for (size_t i = 0; i < n; ++i) {
      cand[i].tag = tags[i];
      for (uint32_t t = 0; t < d; ++t) {
        cand[i].bucket[t] = static_cast<size_t>(t) * opts_.buckets_per_table +
                            buckets[i][t];
      }
    }
    for (size_t i = 0; i < n; ++i) {
      for (uint32_t t = 0; t < d; ++t) {
        // One line covers the bucket's whole header (tags, counters,
        // tombstones) — the old layout needed two counter words plus a
        // tombstone word from separate allocations.
        counters_.Prefetch(cand[i].bucket[t] * l);
        // The stash-flag word is consulted during every probed bucket's
        // scan; packed flags make it one explicit line.
        __builtin_prefetch(flags_.WordAddr(cand[i].bucket[t]), 0, 1);
      }
    }
    const size_t bucket_bytes = static_cast<size_t>(l) * sizeof(Slot);
    for (size_t i = 0; i < n; ++i) {
      for (uint32_t t = 0; t < d; ++t) {
        const char* base =
            reinterpret_cast<const char*>(&slots_[cand[i].bucket[t] * l]);
        for (size_t off = 0; off < bucket_bytes; off += 64) {
          if (for_write) {
            __builtin_prefetch(base + off, 1, 3);
          } else {
            __builtin_prefetch(base + off, 0, 1);
          }
        }
      }
    }
  }

  /// Scalar Find body over precomputed candidates — the hot read path.
  /// `sink` is the live TableMetrics for scalar calls, a stack-local
  /// LookupTally for batches.
  ///
  /// Physically this touches one header line per candidate bucket plus the
  /// slot lines of tag-matching occupied slots; the stash-flag words are
  /// read only on the miss path. The *modeled* accounting is bit-identical
  /// to the per-slot implementation it replaces: d*l on-chip counter reads
  /// (doubled by the tombstone probes in kTombstone mode), one off-chip
  /// read per probed bucket, and the same probe rule — pruning skips
  /// zero-sum buckets, without pruning only buckets with nothing live (no
  /// occupants, no tombstones) are skipped.
  template <typename MetricsSink>
  bool FindImpl(const Key& key, const Candidates& cand, Value* out,
                MetricsSink& sink) const {
    const uint32_t d = opts_.num_hashes;
    const uint32_t l = opts_.slots_per_bucket;
    counters_.ChargeReads(
        static_cast<uint64_t>(d) * l *
        (opts_.deletion_mode == DeletionMode::kTombstone ? 2 : 1));

    const BucketHeader* hdr[kMaxHashes] = {};
    uint64_t meta[kMaxHashes];
    uint32_t match[kMaxHashes];
    for (uint32_t t = 0; t < d; ++t) {
      hdr[t] = &counters_.HeaderAt(cand.bucket[t]);
      // Start the candidate slot lines toward the core while the headers
      // are screened: the hit path's header -> slot dependence is the
      // longest miss chain left. A pure overlap hint — the modeled reads
      // are decided by the probe rules alone, never by what is cached.
      __builtin_prefetch(&slots_[cand.bucket[t] * l], 0, 1);
    }
    if (probe_simd_) {
      SimdTagMatchMasks(hdr, d, cand.tag, match);
    } else {
      for (uint32_t t = 0; t < d; ++t) {
        match[t] = TagMatchMaskScalar(*hdr[t], cand.tag);
      }
    }
    for (uint32_t t = 0; t < d; ++t) meta[t] = HdrMetaWord(*hdr[t]);

    auto* self = const_cast<BlockedMcCuckooTable*>(this);
    uint32_t probes_total = 0;
    for (uint32_t t = 0; t < d; ++t) {
      const bool occupied = (meta[t] & kHdrCounterRep) != 0;
      if (!occupied && (opts_.lookup_pruning_enabled || meta[t] == 0)) {
        continue;
      }
      self->ChargeBucketRead();
      ++probes_total;
      for (uint32_t m = match[t]; m != 0; m &= m - 1) {
        const uint32_t s = static_cast<uint32_t>(__builtin_ctz(m));
        const Slot& slot = slots_[cand.bucket[t] * l + s];
        if (slot.key == key) {
          if (out != nullptr) *out = slot.value;
          if constexpr (kMetricsEnabled) {
            sink.RecordLookupOutcome(
                probes_total,
                static_cast<int32_t>((meta[t] >> (8 * s)) & kHdrCounterMask));
          }
          return true;
        }
      }
    }
    if constexpr (kMetricsEnabled) sink.RecordLookupOutcome(probes_total, -1);
    if (ShouldProbeStashHdr(cand, meta, d)) {
      self->ChargeStashProbe();
      const bool hit = stash_.Find(key, out);
      sink.RecordStashProbe(hit);
      return hit;
    }
    return false;
  }

  /// ShouldProbeStash over the header meta words (§III.E/F, Algorithm 2).
  /// Same rules as the CandidateView form; the per-bucket flags are read
  /// lazily here, only after the counter rules pass and only for buckets
  /// the probe loop above would have fetched.
  bool ShouldProbeStashHdr(const Candidates& cand, const uint64_t* meta,
                           uint32_t d) const {
    if (stash_.empty()) return false;
    if (opts_.stash_kind == StashKind::kOnchipChs) return true;  // free probe
    if (!opts_.stash_screen_enabled) return true;

    if (opts_.deletion_mode == DeletionMode::kDisabled) {
      for (uint32_t t = 0; t < d; ++t) {
        if ((meta[t] & kHdrCounterRep) != counters_.ones_word()) return false;
      }
      // All-ones buckets all have sum > 0, so each was probed and its
      // flag is decisive.
      for (uint32_t t = 0; t < d; ++t) {
        if (!flags_.Test(cand.bucket[t])) return false;
      }
      return true;
    }
    if (opts_.deletion_mode == DeletionMode::kTombstone) {
      // True all-zero buckets (no tombstones) still prove "never inserted".
      for (uint32_t t = 0; t < d; ++t) {
        if (meta[t] == 0) return false;
      }
    }
    for (uint32_t t = 0; t < d; ++t) {
      const bool probed = opts_.lookup_pruning_enabled
                              ? (meta[t] & kHdrCounterRep) != 0
                              : meta[t] != 0;
      if (probed && !flags_.Test(cand.bucket[t])) return false;
    }
    return true;
  }

  /// Scalar Insert body over precomputed candidates.
  InsertResult InsertWithCandidates(const Key& key, const Value& value,
                                    const Candidates& cand) {
    const uint64_t t0 = MetricsNowNs();
    const uint32_t placed = TryPlace(key, value, cand);
    if (placed > 0) {
      ++size_;
      SeqFlush();
      metrics_->RecordInsert(/*chain_len=*/0, MetricsNowNs() - t0);
      growth_.ObserveInsert(/*overflowed=*/false, 0, opts_.maxloop);
      MaybeGrow();
      return InsertResult::kInserted;
    }
    if (first_collision_items_ == 0) {
      first_collision_items_ = TotalItems() + 1;
    }
    const bool bfs = opts_.eviction_policy == EvictionPolicy::kBfs;
    uint32_t chain_len = 0;
    uint32_t bfs_nodes = 0;
    uint32_t bfs_budget = 0;
    const InsertResult r =
        bfs ? BfsInsert(key, value, cand, &chain_len, &bfs_nodes, &bfs_budget)
            : RandomWalkInsert(key, value, &chain_len);
    // Whole chain published at once (see McCuckooTable).
    SeqFlush();
    metrics_->RecordInsert(chain_len, MetricsNowNs() - t0);
    metrics_->RecordPolicyChain(
        static_cast<uint32_t>(opts_.eviction_policy), chain_len);
    if (bfs) metrics_->RecordBfsNodes(bfs_nodes);
    growth_.ObserveInsert(r != InsertResult::kInserted, chain_len,
                          opts_.maxloop, bfs_nodes, bfs_budget);
    MaybeGrow();
    return r;
  }

  /// Evaluates the growth policy after an insertion and acts on its
  /// decision. Called with no stripes open (SeqFlush done): Rehash opens
  /// the aux stripe itself when the outer writer section does not already
  /// hold it, so a grow commits safely under live optimistic readers.
  void MaybeGrow() {
    const GrowthDecision d = growth_.Decide(
        {TotalItems(), opts_.capacity(), stash_.size(),
         opts_.buckets_per_table});
    if (d.action == GrowthAction::kNone) return;
    if (d.action == GrowthAction::kSuppressed) {
      metrics_->SetGrowthSuppressed(true);
      return;
    }
    Status s;
    const uint64_t grow_t0 = MetricsNowNs();
    try {
      s = Rehash(d.new_buckets_per_table, growth_.NextSeed(opts_.seed));
    } catch (const std::bad_alloc&) {
      s = Status::ResourceExhausted("auto-growth allocation failed");
    }
    if (s.ok()) {
      growth_.OnRehashSuccess(d.action);
      metrics_->RecordGrowthRehash(d.action == GrowthAction::kReseed);
      metrics_->SetGrowthSuppressed(false);
      spans_.Record(d.action == GrowthAction::kReseed ? SpanKind::kReseed
                                                      : SpanKind::kGrowth,
                    grow_t0, MetricsNowNs(), d.new_buckets_per_table);
    } else {
      growth_.OnRehashFailure();
      metrics_->RecordGrowthFailure();
      metrics_->SetGrowthSuppressed(true);
    }
  }

  size_t SlotIndex(const Position& p) const {
    return p.bucket * opts_.slots_per_bucket + p.slot;
  }

  uint64_t CounterAt(const Position& p) const {
    return counters_.Get(SlotIndex(p));
  }

  static uint32_t TableOf(size_t bucket, uint64_t buckets_per_table) {
    return static_cast<uint32_t>(bucket / buckets_per_table);
  }

  // --- seqlock writer hooks -----------------------------------------------
  //
  // Stripes are at bucket granularity (the reader validates whole candidate
  // buckets); every reader-visible mutation opens its bucket's stripe, and
  // the operation publishes all opened stripes at once via SeqFlush() — see
  // McCuckooTable's hooks for the kick-chain rationale. All no-ops when no
  // SeqlockArray is attached.

  void SeqOpen(size_t bucket) {
    if (seq_ != nullptr) seq_open_.Open(*seq_, seq_->StripeOf(bucket));
  }

  void SeqOpenAux() {
    if (seq_ != nullptr) seq_open_.Open(*seq_, seq_->aux_stripe());
  }

  void SeqFlush() {
    if (seq_ != nullptr) seq_open_.CloseAll(*seq_);
  }

  // --- charged memory choke points ----------------------------------------

  /// Fetches a whole bucket: one off-chip access regardless of l ([33]).
  void ChargeBucketRead() { ++stats_->offchip_reads; }

  /// Writes one slot (record + hints share the slot's memory word) and
  /// refreshes its header tag in the same seqlock window, so readers never
  /// see a fresh key behind a stale fingerprint. The tag store is layout
  /// state, not a modeled access (uncharged).
  void WriteSlot(const Position& p, const Slot& record) {
    SeqOpen(p.bucket);
    ++stats_->offchip_writes;
    const size_t idx = SlotIndex(p);
    slots_[idx] = record;
    counters_.SetTag(idx, family_.TagOf(record.key));
  }

  /// Value-only update preserving the stored hints.
  void WriteSlotValue(const Position& p, const Key& key, const Value& value) {
    SeqOpen(p.bucket);
    ++stats_->offchip_writes;
    Slot& s = slots_[SlotIndex(p)];
    s.key = key;
    s.value = value;
  }

  void SetFlag(size_t bucket) {
    SeqOpen(bucket);
    ++stats_->offchip_writes;
    flags_.Set(bucket);
  }

  // --- insertion -------------------------------------------------------------

  /// Algorithm 1's placement phases, decided entirely on-chip before any
  /// write. Returns the number of copies placed (0 = collision).
  uint32_t TryPlace(const Key& key, const Value& value,
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
        if (counters_.Get(SlotIndex(p)) == 0) {
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
              counters_.Get(cand.bucket[t] * l + s);
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
      OverwriteRedundantCopy(best_pos, best_v);
      placed[n_placed++] = best_pos;
      bucket_taken[best_t] = true;
    }

    if (n_placed == 0) return 0;
    CommitPlacement(key, value, placed, n_placed);
    return n_placed;
  }

  /// Writes the record once per placed copy (hints included) and sets the
  /// copies' counters.
  void CommitPlacement(const Key& key, const Value& value,
                       const std::array<Position, kMaxHashes>& placed,
                       uint32_t n_placed) {
    Slot record;
    record.key = key;
    record.value = value;
    record.hint.fill(kNoHint);
    for (uint32_t i = 0; i < n_placed; ++i) {
      const uint32_t t = TableOf(placed[i].bucket, opts_.buckets_per_table);
      record.hint[t] = static_cast<uint8_t>(placed[i].slot);
    }
    for (uint32_t i = 0; i < n_placed; ++i) {
      WriteSlot(placed[i], record);  // opens the bucket's stripe
      counters_.Set(SlotIndex(placed[i]), n_placed);
    }
    redundant_writes_ += n_placed - 1;
  }

  /// Displaces the redundant copy at `victim` (counter `v` >= 2): reads its
  /// bucket to learn the victim's key and hints, then decrements the
  /// victim's other copies. The slot itself is left for the caller to
  /// overwrite (counter updated by CommitPlacement).
  void OverwriteRedundantCopy(const Position& victim, uint64_t v) {
    assert(v >= 2);
    ChargeBucketRead();
    const Slot record = slots_[SlotIndex(victim)];
    CopySet others = LocateOtherCopies(record.key, victim, v, &record.hint);
    for (uint32_t i = 0; i < others.count; ++i) {
      SeqOpen(others.pos[i].bucket);
      counters_.Set(SlotIndex(others.pos[i]), v - 1);
    }
  }

  /// Finds the v-1 positions besides `known` holding copies of `key` (all
  /// counters equal v). Candidate slots are the value-v slots of key's
  /// candidate buckets; buckets are resolved hint-first, and a bucket whose
  /// remaining candidates must all be copies (pigeonhole) is not read.
  CopySet LocateOtherCopies(const Key& key, const Position& known, uint64_t v,
                            const std::array<uint8_t, kMaxHashes>* hints) {
    const uint32_t d = opts_.num_hashes;
    const uint32_t l = opts_.slots_per_bucket;
    Candidates cand = ComputeCandidates(key);

    // Group: candidate slots with counter == v, per bucket, excluding
    // `known` and excluding the bucket that contains `known` (one copy per
    // bucket at most).
    struct BucketGroup {
      size_t bucket;
      uint32_t table;
      std::array<uint32_t, 8> slots;
      uint32_t n_slots = 0;
      bool hinted = false;
    };
    // Hinted buckets are queued first: their read almost always confirms a
    // copy immediately.
    std::array<BucketGroup, kMaxHashes> groups{};
    uint32_t n_groups = 0;
    uint32_t total_slots = 0;
    for (int pass = 0; pass < 2; ++pass) {
      for (uint32_t t = 0; t < d; ++t) {
        if (cand.bucket[t] == known.bucket) continue;
        const bool hinted = hints != nullptr && (*hints)[t] != kNoHint;
        if (hinted != (pass == 0)) continue;
        BucketGroup g{};
        g.bucket = cand.bucket[t];
        g.table = t;
        for (uint32_t s = 0; s < l; ++s) {
          if (counters_.Get(g.bucket * l + s) == v) g.slots[g.n_slots++] = s;
        }
        if (g.n_slots == 0) continue;
        g.hinted = hinted;
        groups[n_groups++] = g;
        total_slots += g.n_slots;
      }
    }

    const uint32_t need = static_cast<uint32_t>(v) - 1;
    CopySet out{};
    if (need == 0) return out;
    assert(total_slots >= need);

    uint32_t confirmed = 0;
    uint32_t unresolved = total_slots;
    for (uint32_t gi = 0; gi < n_groups && confirmed < need; ++gi) {
      const BucketGroup& g = groups[gi];
      // Pigeonhole: if every unresolved candidate slot must be a copy,
      // take them without reading. (A key has at most one copy per bucket,
      // so this can only trigger when each remaining group has one slot.)
      if (unresolved == need - confirmed) {
        bool single_slots = true;
        for (uint32_t gj = gi; gj < n_groups; ++gj) {
          if (groups[gj].n_slots != 1) single_slots = false;
        }
        if (single_slots) {
          for (uint32_t gj = gi; gj < n_groups; ++gj) {
            out.pos[out.count++] =
                Position{groups[gj].bucket, groups[gj].slots[0]};
            ++confirmed;
          }
          break;
        }
      }
      ChargeBucketRead();
      for (uint32_t i = 0; i < g.n_slots; ++i) {
        const Position p{g.bucket, g.slots[i]};
        if (slots_[SlotIndex(p)].key == key) {
          out.pos[out.count++] = p;
          ++confirmed;
          break;  // at most one copy per bucket
        }
      }
      unresolved -= g.n_slots;
    }
    assert(confirmed == need);
    return out;
  }

  CopySet LocateAllCopies(const Key& key, const Position& known, uint64_t v) {
    // The found record's stored hints order the disambiguation reads.
    const std::array<uint8_t, kMaxHashes> hints =
        slots_[SlotIndex(known)].hint;
    CopySet out = LocateOtherCopies(key, known, v, &hints);
    out.pos[out.count++] = known;
    return out;
  }

  /// Shared insertion-failure tail (see McCuckooTable::StashOverflow): the
  /// caller guarantees the item's candidate slots are all sole copies and
  /// records its own trace event.
  InsertResult StashOverflow(const Key& key, const Value& value) {
    if (first_failure_items_ == 0) first_failure_items_ = TotalItems() + 1;
    ChargeStashWrite();
    SeqOpenAux();
    stash_.Insert(key, value);
    spans_.RecordInstant(SpanKind::kStashSpill, stash_.size());
    if (opts_.stash_kind == StashKind::kOffchip) {
      Candidates cand = ComputeCandidates(key);
      for (uint32_t t = 0; t < opts_.num_hashes; ++t) SetFlag(cand.bucket[t]);
    } else if (stash_.size() > opts_.onchip_stash_capacity) {
      ++forced_rehash_events_;  // a real CHS deployment would rehash here
    }
    return opts_.stash_enabled ? InsertResult::kStashed : InsertResult::kFailed;
  }

  /// Random walk at slot granularity: eviction targets are sole copies
  /// (all candidate slot counters are 1 when this is reached). The victim
  /// bucket follows the configured policy — uniform random, MinCounter's
  /// coldest, or bubbling's deterministic level cycle — the slot within it
  /// is uniform. On maxloop overrun the in-hand item gets one final
  /// placement attempt and is otherwise stashed — candidate buckets
  /// provably all-ones.
  InsertResult RandomWalkInsert(Key key, Value value,
                                uint32_t* chain_len_out) {
    size_t exclude_bucket = kNoBucket;
    int32_t from_level = -1;  // bubbling: level the in-hand item left
    uint32_t chain = 0;
    KickChainEvent ev{};  // populated only when metrics are compiled in
    for (uint32_t loop = 0; loop < opts_.maxloop; ++loop) {
      Candidates cand = ComputeCandidates(key);
      if (loop > 0) {
        const uint32_t placed = TryPlace(key, value, cand);
        if (placed > 0) {
          ++size_;
          *chain_len_out = chain;
          if constexpr (kMetricsEnabled) {
            ev.chain_len = chain;
            ev.n_steps = static_cast<uint32_t>(
                std::min<size_t>(chain, kMaxTraceSteps));
            trace_.Record(ev);
          }
          return InsertResult::kInserted;
        }
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
      if constexpr (kMetricsEnabled) {
        if (chain < kMaxTraceSteps) {
          ev.step[chain] = KickStep{
              static_cast<uint64_t>(cand.bucket[t]),
              static_cast<uint32_t>(counters_.PeekCounter(SlotIndex(p)))};
        }
      }
      ChargeBucketRead();
      Slot victim = slots_[SlotIndex(p)];
      Slot record;
      record.key = key;
      record.value = value;
      record.hint.fill(kNoHint);
      record.hint[t] = static_cast<uint8_t>(s);
      WriteSlot(p, record);
      // Counter stays 1: the slot still holds a sole copy.
      ++stats_->kickouts;
      if (kick_history_.enabled()) kick_history_.Increment(cand.bucket[t]);
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
    {
      const Candidates cand = ComputeCandidates(key);
      const uint32_t placed = TryPlace(key, value, cand);
      if (placed > 0) {
        ++size_;
        *chain_len_out = chain;
        if constexpr (kMetricsEnabled) {
          ev.chain_len = chain;
          ev.n_steps =
              static_cast<uint32_t>(std::min<size_t>(chain, kMaxTraceSteps));
          trace_.Record(ev);
        }
        return InsertResult::kInserted;
      }
    }
    *chain_len_out = chain;
    if constexpr (kMetricsEnabled) {
      ev.chain_len = chain;
      ev.n_steps =
          static_cast<uint32_t>(std::min<size_t>(chain, kMaxTraceSteps));
      ev.stashed = true;
      trace_.Record(ev);
      trace_.NoteStashed();
    }
    return StashOverflow(key, value);
  }

  /// Counter-aware BFS at slot granularity (see McCuckooTable::BfsInsert
  /// for the terminal rules). Node ids are global slot indices. Entered
  /// only when TryPlace placed nothing, which proves every candidate slot
  /// of the in-hand key holds a sole copy (phase 1 fills empties, phase 2
  /// with n_placed == 0 takes any counter >= 2), so all d*l candidate
  /// slots are valid interior roots. Expanding a node costs one charged
  /// bucket fetch (occupant key + hints); the occupant's alternate buckets
  /// are screened slot-by-slot entirely on-chip.
  InsertResult BfsInsert(const Key& key, const Value& value,
                         const Candidates& cand, uint32_t* chain_len_out,
                         uint32_t* nodes_out, uint32_t* budget_out) {
    const uint32_t d = opts_.num_hashes;
    const uint32_t l = opts_.slots_per_bucket;
    std::array<uint64_t, kMaxHashes * 8> roots{};
    uint32_t n_roots = 0;
    for (uint32_t t = 0; t < d; ++t) {
      for (uint32_t s = 0; s < l; ++s) {
        roots[n_roots++] = static_cast<uint64_t>(cand.bucket[t] * l + s);
      }
    }
    *budget_out = bfs_throttle_.Budget(BfsNodeBudget(opts_.maxloop));
    const BfsPathResult path = BfsFindPath(
        roots.data(), n_roots, *budget_out,
        [&](uint64_t id, auto&& emit, auto&& terminal) {
          const size_t slot_idx = static_cast<size_t>(id);
          const size_t bucket = slot_idx / l;
          ChargeBucketRead();  // the occupant's record, one bucket fetch
          const Key okey = slots_[slot_idx].key;
          const Candidates oc = ComputeCandidates(okey);
          for (uint32_t t = 0; t < d; ++t) {
            const size_t alt = oc.bucket[t];
            if (alt == bucket) continue;
            for (uint32_t s = 0; s < l; ++s) {
              const size_t alt_idx = alt * l + s;
              const uint64_t c = counters_.Get(alt_idx);
              if (c != 1) {
                terminal(alt_idx);  // 0 = free, >= 2 = redundant copy
                return;
              }
              // Overlap the frontier's DRAM latency (see McCuckooTable).
              __builtin_prefetch(&slots_[alt_idx], 0, 1);
              emit(alt_idx);
            }
          }
        });
    *nodes_out = path.nodes_expanded;
    bfs_throttle_.Observe(path.found);
    if (!path.found) {
      *chain_len_out = 0;
      if constexpr (kMetricsEnabled) {
        KickChainEvent ev{};
        ev.stashed = true;
        trace_.Record(ev);
        trace_.NoteStashed();
      }
      spans_.RecordInstant(SpanKind::kBfsDeadEnd, path.nodes_expanded);
      return StashOverflow(key, value);
    }
    // Apply backward: the last interior occupant moves into the terminal,
    // each predecessor into its successor, the new key into the root. A
    // relocated occupant is a sole copy, so its record is rewritten with a
    // fresh hint set pointing only at its new position.
    KickChainEvent ev{};
    auto position_of = [l](uint64_t id) {
      return Position{static_cast<size_t>(id) / l,
                      static_cast<uint32_t>(id % l)};
    };
    size_t dst = static_cast<size_t>(path.terminal);
    const uint64_t term_v = counters_.PeekCounter(dst);
    for (size_t i = path.node.size(); i-- > 0;) {
      const size_t src = static_cast<size_t>(path.node[i]);
      const Position dst_pos = position_of(dst);
      Slot record = slots_[src];  // read during the search
      record.hint.fill(kNoHint);
      record.hint[TableOf(dst_pos.bucket, opts_.buckets_per_table)] =
          static_cast<uint8_t>(dst_pos.slot);
      if (dst == static_cast<size_t>(path.terminal) && term_v >= 2) {
        // Redundant terminal: displace one copy of the occupant, which
        // decrements its other copies' counters (zero relocations).
        OverwriteRedundantCopy(dst_pos, term_v);
      }
      WriteSlot(dst_pos, record);  // opens the bucket's stripe
      if (dst == static_cast<size_t>(path.terminal)) {
        counters_.Set(dst, 1);  // the moved item is a sole copy
      }
      // Interior destinations already held a sole copy: counter stays 1.
      ++stats_->kickouts;
      if (kick_history_.enabled()) kick_history_.Increment(src / l);
      if constexpr (kMetricsEnabled) {
        if (i < kMaxTraceSteps) {
          ev.step[i] = KickStep{
              static_cast<uint64_t>(src / l),
              static_cast<uint32_t>(counters_.PeekCounter(src))};
        }
      }
      dst = src;
    }
    const Position root_pos = position_of(path.node.front());
    Slot record;
    record.key = key;
    record.value = value;
    record.hint.fill(kNoHint);
    record.hint[TableOf(root_pos.bucket, opts_.buckets_per_table)] =
        static_cast<uint8_t>(root_pos.slot);
    WriteSlot(root_pos, record);
    ++size_;
    const uint32_t chain = static_cast<uint32_t>(path.node.size());
    *chain_len_out = chain;
    if constexpr (kMetricsEnabled) {
      ev.chain_len = chain;
      ev.n_steps =
          static_cast<uint32_t>(std::min<size_t>(chain, kMaxTraceSteps));
      trace_.Record(ev);
    }
    return InsertResult::kInserted;
  }

  // --- lookup -----------------------------------------------------------------

  /// Algorithm 2's main-table probe, over precomputed candidates. On a
  /// hit, fills `*pos` and returns true. Fills `*view` for stash screening
  /// either way.
  bool FindInMain(const Key& key, const Candidates& cand, Value* out,
                  CandidateView* view, Position* pos) {
    const uint32_t d = opts_.num_hashes;
    const uint32_t l = opts_.slots_per_bucket;
    CandidateView& v = *view;
    v.d = d;
    // The model reads every candidate slot's counter, plus its tombstone
    // mark in kTombstone mode; the headers deliver them in one line per
    // bucket but the modeled charge is unchanged.
    counters_.ChargeReads(
        static_cast<uint64_t>(d) * l *
        (opts_.deletion_mode == DeletionMode::kTombstone ? 2 : 1));

    std::array<std::array<uint64_t, 8>, kMaxHashes> slot_counter{};
    for (uint32_t t = 0; t < d; ++t) {
      v.bucket[t] = cand.bucket[t];
      v.bucket_read[t] = false;
      v.flag_value[t] = false;
      const uint64_t meta = HdrMetaWord(counters_.HeaderAt(cand.bucket[t]));
      uint64_t sum = 0;
      for (uint32_t s = 0; s < l; ++s) {
        slot_counter[t][s] = (meta >> (8 * s)) & kHdrCounterMask;
        sum += slot_counter[t][s];
      }
      v.sum[t] = sum;
      v.bloom_nonzero[t] = meta != 0;  // any occupant or tombstone
      v.all_ones[t] = (meta & kHdrCounterRep) == counters_.ones_word();
    }

    for (uint32_t t = 0; t < d; ++t) {
      if (opts_.lookup_pruning_enabled && v.sum[t] == 0) continue;
      if (!opts_.lookup_pruning_enabled && v.sum[t] == 0 &&
          !v.bloom_nonzero[t]) {
        continue;  // nothing live to read even without pruning
      }
      ChargeBucketRead();
      ++v.probes_total;
      v.bucket_read[t] = true;
      v.flag_value[t] = flags_.Test(cand.bucket[t]);
      for (uint32_t s = 0; s < l; ++s) {
        if (slot_counter[t][s] == 0) continue;  // empty/tombstone: stale data
        const size_t idx = cand.bucket[t] * l + s;
        // Fingerprint screen: an occupied slot's tag always reflects its
        // occupant, so a mismatch proves a different key without touching
        // the slot line.
        if (counters_.PeekTag(idx) != cand.tag) continue;
        const Position p{cand.bucket[t], s};
        const Slot& slot = slots_[idx];
        if (slot.key == key) {
          if (out != nullptr) *out = slot.value;
          if (pos != nullptr) *pos = p;
          v.hit_value = static_cast<int32_t>(slot_counter[t][s]);
          return true;
        }
      }
    }
    return false;
  }

  /// Stash screening at bucket granularity (§III.E/F and Algorithm 2).
  bool ShouldProbeStash(const CandidateView& v) const {
    if (stash_.empty()) return false;
    if (opts_.stash_kind == StashKind::kOnchipChs) return true;  // free probe
    if (!opts_.stash_screen_enabled) return true;

    if (opts_.deletion_mode == DeletionMode::kDisabled) {
      // A stashed key saw every candidate slot at counter 1; without
      // deletions sole copies stay sole and empties stay... filled only by
      // full buckets, so any non-all-ones bucket vetoes the probe.
      for (uint32_t t = 0; t < v.d; ++t) {
        if (!v.all_ones[t]) return false;
      }
      for (uint32_t t = 0; t < v.d; ++t) {
        if (v.bucket_read[t] && !v.flag_value[t]) return false;
      }
      return true;
    }
    if (opts_.deletion_mode == DeletionMode::kTombstone) {
      // True all-zero buckets (no tombstones) still prove "never inserted".
      for (uint32_t t = 0; t < v.d; ++t) {
        if (!v.bloom_nonzero[t]) return false;
      }
    }
    for (uint32_t t = 0; t < v.d; ++t) {
      if (v.bucket_read[t] && !v.flag_value[t]) return false;
    }
    return true;
  }

  /// Invokes `fn(key, value)` once per live key of the main table (stash
  /// excluded), in ascending order of the key's first slot: the read-out
  /// Rehash and ForEachItem share (see read_out.h). A key holds at most
  /// one slot per candidate bucket. Uncharged.
  template <typename Fn>
  void ForEachMainItem(Fn&& fn) const {
    const uint32_t l = opts_.slots_per_bucket;
    ForEachDistinctOccupant(
        slots_.size(), opts_.buckets_per_table * l, opts_.num_hashes,
        [this](size_t idx) -> uint64_t { return counters_.PeekCounter(idx); },
        [this, l](size_t idx, uint32_t t) {
          const Key& key = slots_[idx].key;
          const Candidates cand = ComputeCandidates(key);
          for (uint32_t u = 0; u < t; ++u) {
            for (uint32_t s = 0; s < l; ++s) {
              const size_t j = cand.bucket[u] * l + s;
              if (counters_.PeekCounter(j) > 0 && slots_[j].key == key) {
                return true;
              }
            }
          }
          return false;
        },
        [&](size_t idx) { fn(slots_[idx].key, slots_[idx].value); });
  }

  /// Commits a Rehash-rebuilt table while optimistic readers may be
  /// probing this one (caller holds the aux stripe odd). Reader-visible
  /// storage — slots, stash flags and counters — is exchanged
  /// pointer-wise, so a racing reader sees the old or the new buffer but
  /// never a transient moved-from state, and the replaced epoch is parked
  /// in retired_ so lagging readers keep dereferencing live memory. The
  /// stats_/metrics_ heap objects stay identity-stable — a lagging reader
  /// flushes its tally through the pre-commit pointer after validation — so
  /// the rebuild's deltas are merged into them rather than replacing them
  /// (see McCuckooTable::CommitRebuildLockFree). NOTE: keep in sync with
  /// the member list — a member missed here keeps its pre-rehash value.
  void CommitRebuildLockFree(BlockedMcCuckooTable&& rebuilt) {
    slots_.swap(rebuilt.slots_);
    flags_.Swap(rebuilt.flags_);
    counters_.SwapStorage(rebuilt.counters_);
    retired_.push_back(RetiredStorage{std::move(rebuilt.slots_),
                                      std::move(rebuilt.flags_),
                                      std::move(rebuilt.counters_)});
    opts_ = rebuilt.opts_;
    family_ = std::move(rebuilt.family_);
    *stats_ += *rebuilt.stats_;
    metrics_->MergeFrom(*rebuilt.metrics_);
    latency_->MergeFrom(*rebuilt.latency_);
    trace_ = std::move(rebuilt.trace_);
    // spans_ deliberately keeps this table's ring — it is a lifetime
    // timeline; the rehash span lands in it right after this commit.
    kick_history_.AdoptStorage(std::move(rebuilt.kick_history_));
    stash_ = std::move(rebuilt.stash_);
    rng_ = std::move(rebuilt.rng_);
    probe_simd_ = rebuilt.probe_simd_;
    // The rebuild just freed space, so any dead-end streak is stale.
    bfs_throttle_ = {};
    size_ = rebuilt.size_;
    first_collision_items_ = rebuilt.first_collision_items_;
    first_failure_items_ = rebuilt.first_failure_items_;
    redundant_writes_ = rebuilt.redundant_writes_;
    stale_stash_flag_keys_ = rebuilt.stale_stash_flag_keys_;
    forced_rehash_events_ = rebuilt.forced_rehash_events_;
    ++rehash_epoch_;
    // seq_, seq_open_, retired_ and growth_ deliberately keep this table's
    // values (the policy's backoff/reseed state spans rebuilds).
  }

  TableOptions opts_;
  Family family_;
  std::vector<Slot> slots_;
  // One stash flag per bucket (off-chip). Packed uint64_t words, not
  // std::vector<bool>: the word holding a flag is prefetchable alongside
  // the bucket's slot lines, and rebuilds scan set bits a word at a time.
  BitArray flags_;
  // Heap-allocated so the pointer handed to CounterArray /
  // KickHistory stays valid when the table is moved (Rehash,
  // snapshot loading, factory returns).
  mutable std::unique_ptr<AccessStats> stats_ =
      std::make_unique<AccessStats>();
  // Same pattern for the metrics: atomics are immovable, the unique_ptr
  // keeps the table movable and lets const read paths record.
  mutable std::unique_ptr<TableMetrics> metrics_ =
      std::make_unique<TableMetrics>();
  // Sampled op-latency recorder: heap-held for the same identity-stability
  // reason as metrics_ (const read paths record through it across Rehash
  // commits). Sample period applied from opts_ in the constructor body.
  mutable std::unique_ptr<LatencyRecorder> latency_ =
      std::make_unique<LatencyRecorder>();
  TraceRecorder trace_;
  // Growth/rehash/dead-end/spill timeline (writer-exclusion threading
  // model, like trace_).
  SpanRecorder spans_;
  // Per-bucket headers: slot tags + counters + tombstones in one aligned
  // 16-byte block per bucket (see bucket_header.h).
  BucketHeaderArray counters_;
  // Resolved TableOptions::probe — true when lookups use the vector
  // tag-match kernel. Same results and charges either way.
  bool probe_simd_;
  KickHistory kick_history_;
  Stash<Key, Value> stash_;
  Xoshiro256 rng_;
  BfsThrottle bfs_throttle_;
  // Optimistic-read support: non-owning version array attached by the
  // concurrent wrapper (null in single-threaded use) and the set of
  // stripes the in-flight mutation holds odd until its SeqFlush().
  SeqlockArray* seq_ = nullptr;
  SeqlockWriterSet seq_open_;
  // Storage epochs retired by Rehash while a seqlock was attached. Never
  // accessed again (the CounterArray's stats pointer inside is dangling by
  // design) — held only so lagging optimistic readers dereference live
  // memory; freed when the table is destroyed.
  struct RetiredStorage {
    std::vector<Slot> slots;
    BitArray flags;
    BucketHeaderArray counters;
  };
  std::vector<RetiredStorage> retired_;

  size_t size_ = 0;
  uint64_t first_collision_items_ = 0;
  uint64_t first_failure_items_ = 0;
  uint64_t redundant_writes_ = 0;
  uint64_t stale_stash_flag_keys_ = 0;
  uint64_t forced_rehash_events_ = 0;
  // Auto-growth state. Declared last and preserved across both Rehash
  // commit paths: the policy tracks this table's lifetime (backoff,
  // reseed quota), not any single geometry's.
  GrowthPolicy growth_;
  uint64_t rehash_epoch_ = 0;
};

}  // namespace mccuckoo

#endif  // MCCUCKOO_CORE_BLOCKED_MCCUCKOO_TABLE_H_
