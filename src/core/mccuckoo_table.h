// Multi-copy Cuckoo hash table (McCuckoo) — the paper's core contribution.
//
// A d-ary, one-slot-per-bucket cuckoo table that, instead of committing an
// inserted item to a single bucket, writes a copy into *every* free
// candidate bucket and tracks each bucket occupant's total copy count in a
// compact on-chip counter array. The counters then drive every operation:
//
//  * Insertion (§III.B.1) — principles:
//      1. occupy all empty candidate buckets;
//      2. never overwrite a bucket of value 1 (a sole copy);
//      3. overwrite the rest in decreasing counter order while the victim
//         still has at least two more copies than the inserted item
//         (V >= n_x + 2).
//    A real collision only occurs when all candidates hold sole copies;
//    then a counter-guided random walk relocates items, and maxloop
//    overruns go to an off-chip stash.
//  * Lookup (§III.B.2) — candidates are partitioned by counter value;
//    partitions smaller than their value are impossible and skipped; a
//    partition of size S and value V needs at most S - V + 1 probes. With
//    deletions disabled, a zero counter anywhere proves the key was never
//    inserted (Bloom property: zero off-chip accesses).
//  * Deletion (§III.B.3) — all V copies are located, then only their on-chip
//    counters are reset (or tombstoned): zero off-chip writes.
//  * Stash screening (§III.E/F) — a 1-bit flag per bucket (stored with the
//    bucket, read back for free during lookups) plus the rule "a stashed
//    item always saw all-ones counters" suppress almost every stash probe.
//
// One point the paper leaves implicit is made explicit here: overwriting a
// redundant copy of victim B (counter V >= 2) requires decrementing B's
// *other* copies' counters, whose positions are only learned by reading B's
// key from the overwritten bucket (the read cost visible in Fig 10a) and
// then identifying B's copies inside the value-V partition of B's
// candidates — by pigeonhole inference when the partition has exactly V
// members, by further reads otherwise. See LocateOtherCopies().

#ifndef MCCUCKOO_CORE_MCCUCKOO_TABLE_H_
#define MCCUCKOO_CORE_MCCUCKOO_TABLE_H_

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdint>
#include <memory>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <new>
#include <span>
#include <string>
#include <thread>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/core/config.h"
#include "src/core/counter_array.h"
#include "src/core/eviction.h"
#include "src/core/growth.h"
#include "src/core/lock_stripes.h"
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

static_assert(kMaxHashes + 1 <= kMetricsPartitions,
              "partition metric arrays must cover counter values 0..d");

/// Multi-copy cuckoo hash table. Key must be equality-comparable and
/// hashable by Hasher; Key and Value must be copyable. Not thread-safe (see
/// ShardedMcCuckoo for the concurrent front-end).
template <typename Key, typename Value, typename Hasher = BobHasher,
          typename Family = HashFamily<Key, Hasher>>
  requires SeedableHasher<Hasher, Key>
class McCuckooTable {
 public:
  /// Exposed template parameters (used by wrappers/adapters).
  using KeyType = Key;
  using ValueType = Value;
  using HasherType = Hasher;

  /// One off-chip bucket: the stored record plus the 1-bit stash flag that
  /// shares the bucket's memory word (§III.E). Occupancy is defined by the
  /// on-chip counter, not by the bucket itself.
  struct Bucket {
    Key key{};
    Value value{};
    bool stash_flag = false;
  };

 private:
  // Nested aggregates are defined before the operations: the batched and
  // candidate-reusing member signatures below mention them.

  /// The d global bucket indices of a key (index = t * buckets_per_table +
  /// h_t(key); distinct across sub-tables by construction), plus the key's
  /// 8-bit fingerprint (derived for free from the same hash evaluation;
  /// the counter store keeps its low nibble per bucket for probe screening).
  struct Candidates {
    std::array<size_t, kMaxHashes> idx;
    uint8_t tag = 0;
  };

  /// Candidate indices plus their counters/tombstones as read (once, all
  /// charged) at the start of an operation, and which were bucket-read.
  struct CandidateView {
    std::array<size_t, kMaxHashes> idx{};
    std::array<uint64_t, kMaxHashes> counter{};
    std::array<bool, kMaxHashes> tombstone{};
    std::array<bool, kMaxHashes> bucket_read{};  // flag available?
    std::array<bool, kMaxHashes> flag_value{};
    uint32_t d = 0;
    // Probe accounting for the metrics layer (stack-local tallies; the
    // atomics are only touched once per operation in RecordLookupMetrics).
    std::array<uint8_t, kMaxHashes + 1> probes_by_value{};
    uint32_t probes_total = 0;
    int32_t hit_value = -1;  // partition value the key was found in
  };

  /// Up to d global indices holding copies of one key.
  struct CopySet {
    std::array<size_t, kMaxHashes> idx;
    uint32_t count = 0;
  };

 public:
  /// The configuration conditions Create() reports as Status. The
  /// constructor enforces the same conditions with an unconditional abort,
  /// so Debug and Release builds agree on what direct construction with
  /// unsupported options does (it used to be a Debug-only assert).
  static Status CheckOptions(const TableOptions& options) {
    if (Status s = options.Validate(); !s.ok()) return s;
    if (options.slots_per_bucket != 1) {
      return Status::InvalidArgument(
          "McCuckooTable is single-slot; use BlockedMcCuckooTable");
    }
    return Status::OK();
  }

  /// Constructs a table; `options` must satisfy CheckOptions() (aborts
  /// otherwise — use Create() for untrusted configuration).
  explicit McCuckooTable(const TableOptions& options)
      : opts_(options),
        family_(options.num_hashes, options.buckets_per_table, options.seed),
        table_(options.num_hashes * options.buckets_per_table),
        counters_(options.num_hashes * options.buckets_per_table,
                  options.num_hashes, stats_.get()),
        rng_(SplitMix64(options.seed ^ 0xA5A5A5A5A5A5A5A5ull)),
        growth_(options.growth) {
    if (Status s = CheckOptions(options); !s.ok()) {
      std::fprintf(stderr, "McCuckooTable: %s\n", s.message().c_str());
      std::abort();
    }
    if (options.eviction_policy == EvictionPolicy::kMinCounter) {
      kick_history_ = KickHistory(table_.size(), options.kick_counter_bits,
                                  stats_.get());
    }
    latency_->set_sample_period(options.latency_sample_period);
  }

  /// Validating factory for untrusted configuration.
  static Result<McCuckooTable> Create(const TableOptions& options) {
    if (Status s = CheckOptions(options); !s.ok()) return s;
    return McCuckooTable(options);
  }

  // --- Core operations -------------------------------------------------

  /// Inserts a key assumed not to be present (the common case in the
  /// paper's workloads; duplicate keys corrupt the copy invariants — use
  /// InsertOrAssign when presence is unknown).
  InsertResult Insert(const Key& key, const Value& value) {
    ScopedLatencySample lat(latency_.get(), LatencyOp::kInsert);
    return InsertWithCandidates(key, value, ComputeCandidates(key));
  }

  /// Inserts or, if the key exists (main table or stash), updates every
  /// copy of it. On kUpdated the replaced value is written through
  /// `previous` (when non-null); otherwise `*previous` is left untouched.
  InsertResult InsertOrAssign(const Key& key, const Value& value,
                              Value* previous = nullptr) {
    CandidateView view;
    int64_t found = FindInMain(key, ComputeCandidates(key), previous, &view);
    if (found >= 0) {
      CopySet copies = LocateAllCopies(key, static_cast<size_t>(found),
                                       view.counter[FindSlot(view, found)]);
      for (uint32_t i = 0; i < copies.count; ++i) {
        StoreBucket(copies.idx[i], key, value);
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

  /// Looks `key` up; writes the value through `out` when found (out may be
  /// null). Mutates only the access statistics.
  bool Find(const Key& key, Value* out = nullptr) const {
    ScopedLatencySample lat(latency_.get(), LatencyOp::kFind);
    return FindImpl(key, ComputeCandidates(key), out, *metrics_);
  }

  /// Convenience wrapper over Find.
  bool Contains(const Key& key) const { return Find(key, nullptr); }

  // --- Batched operations (software-pipelined) ---------------------------
  //
  // The scalar operations above issue one dependent miss chain per key:
  // hash -> counter word -> candidate bucket. The batched variants break
  // the chain in two stages per tile of up to kBatchTile keys: stage 1
  // hashes every key and __builtin_prefetch-es all candidate buckets and
  // their on-chip counter words; stage 2 replays the *unchanged* scalar
  // per-key logic against now-warm lines. The counter-partition
  // probe-skipping rules, stash screening, and AccessStats accounting are
  // bit-identical to a scalar loop over the same keys (differential-tested)
  // — prefetching only hides latency, it never reads for the algorithm.

  /// Internal pipeline depth: tiles bound the candidate scratch space and
  /// keep the prefetch distance within what outstanding-miss buffers cover.
  /// The bound is an L1 budget, not a miss-buffer one: a tile touches
  /// d lines per key (bucket + its counter word, which usually share a
  /// set), so at d = 3 a 64-key tile stages ~64 * 3 * 2 * 64B = 24 KB —
  /// most of a 32 KB L1d — and by the time stage 2 replays key 0 its lines
  /// have been evicted by keys 40+ (the batch64/batch32 load95 regression).
  /// 16 keys * 3 candidates * 2 lines = 6 KB leaves room for the probe
  /// loop's own working set, and 48 outstanding prefetches still cover the
  /// ~10 line-fill buffers of current cores.
  static constexpr size_t kBatchTile = 16;

  /// Batched lookup. For key i, found[i] is set and, on a hit, out[i]
  /// receives the value (out may be null; found must not be). Returns the
  /// number of keys found. Equivalent to calling Find per key, in order.
  size_t FindBatch(std::span<const Key> keys, Value* out, bool* found) const {
    ScopedLatencySample lat(latency_.get(), LatencyOp::kFindBatch);
    size_t hits = 0;
    std::array<Candidates, kBatchTile> cand;
    // Lookup metrics accumulate on the stack and publish once per batch:
    // same totals as per-key recording, a fraction of the atomic RMWs.
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

  /// Batched membership test: FindBatch without value extraction.
  size_t ContainsBatch(std::span<const Key> keys, bool* found) const {
    return FindBatch(keys, nullptr, found);
  }

  /// Batched mutation-free lookup (the sharded/concurrent reader path):
  /// equivalent to calling FindNoStats per key, in order.
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

  /// Batched insertion of keys assumed not to be present; results[i] (when
  /// results is non-null) receives the per-key outcome. Equivalent to
  /// calling Insert per key, in order — kick-out chains and stash spills
  /// behave exactly as in the scalar path.
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

  /// Statistics-free const lookup: same candidate/partition/stash-screen
  /// logic as Find but through the uncharged accessors, so it performs no
  /// mutation whatsoever. This is ShardedMcCuckoo's locked read path —
  /// many readers may call it under a shard's shared lock while its writer
  /// is excluded. Not meant for experiments: it records no access counts.
  bool FindNoStats(const Key& key, Value* out = nullptr) const {
    return FindNoStatsImpl(key, ComputeCandidates(key), out, *metrics_);
  }

  // --- Optimistic (seqlock-validated) read path --------------------------

  /// Attaches (or, with null, detaches) the seqlock version array the
  /// concurrent wrapper owns. While attached, every mutation opens the
  /// stripes of the buckets it touches (odd version = in flight) and
  /// publishes them at its commit point; TryFindOptimistic can then run
  /// without any lock. Single-threaded users never call this and pay only
  /// a null check per mutation choke point.
  void AttachSeqlock(SeqlockArray* seq) { seq_ = seq; }

  /// Attaches (or detaches) the striped writer-lock array for the
  /// multi-writer path (see lock_stripes.h). Must be congruent with the
  /// attached SeqlockArray (same sizing hint): holding a lock stripe grants
  /// exclusive writer rights over the matching seqlock stripe, which is
  /// what keeps the blind non-RMW version bumps valid under many writers.
  void AttachLockStripes(LockStripeArray* locks) { locks_ = locks; }

  /// Sizing hint for the version array covering this table's buckets.
  size_t seqlock_domain() const { return table_.size(); }

  /// Lock-free lookup attempt: records the versions of the candidate
  /// stripes (plus the aux stripe covering the stash), runs the
  /// statistics-free probe, and only reports kHit/kMiss if every recorded
  /// version was even and unchanged afterwards. Any writer overlap — or a
  /// probe that would need the stash — yields kContended and the caller
  /// retries or takes the shared lock. Requires an attached SeqlockArray
  /// and a single concurrent writer (the wrapper's mutex).
  OptimisticResult TryFindOptimistic(const Key& key,
                                     Value* out = nullptr) const {
    // Each optimistic attempt is one latency sample candidate; a
    // contended attempt that gets retried or falls back to the locked
    // Find is timed as its own (short) attempt.
    ScopedLatencySample lat(latency_.get(), LatencyOp::kFind);
    // Torn reads of the bucket during a racing write are discarded after
    // validation, but reading a partially-updated non-trivial type (e.g.
    // std::string mid-reallocation) would be UB before validation happens.
    static_assert(
        std::is_trivially_copyable_v<Key> && std::is_trivially_copyable_v<Value>,
        "optimistic reads require trivially copyable Key and Value");
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
    // The candidate computation reads the geometry and hash seeds, which
    // Rehash replaces wholesale under the aux stripe (recorded above, so a
    // concurrent swap fails validation). The bounds check keeps a
    // torn-epoch index from escaping into the probe; bucket storage
    // replaced by a racing Rehash stays dereferenceable regardless (see
    // retired_).
    uint32_t d;
    Candidates cand;
    {
      SeqlockReadCritical crit;
      d = opts_.num_hashes;
      cand = ComputeCandidates(key);
      for (uint32_t t = 0; t < d; ++t) {
        if (cand.idx[t] >= table_.size()) return OptimisticResult::kContended;
      }
    }
    for (uint32_t t = 0; t < d; ++t) {
      const size_t s = seq_->StripeOf(cand.idx[t]);
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
    // Probe into locals: neither the out-parameter nor the shared metrics
    // may observe a result that fails validation.
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

  /// All-or-nothing optimistic batch lookup over one tile (keys.size() <=
  /// kBatchTile): stages prefetches, records the versions of every touched
  /// stripe, probes all keys, then validates once. Returns the hit count
  /// with out/found filled, or -1 if any stripe was (or became) active or
  /// any key needed the stash — the caller re-runs the tile under the lock.
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
    // Versions for every (key, candidate) stripe plus aux, recorded before
    // any data read. Duplicates are validated twice — harmless.
    std::array<size_t, kBatchTile * kMaxHashes + 1> stripes;
    std::array<uint32_t, kBatchTile * kMaxHashes + 1> versions;
    size_t n = 0;
    stripes[n] = seq_->aux_stripe();
    versions[n] = seq_->ReadBegin(stripes[n]);
    if (SeqlockArray::IsWriting(versions[n])) return -1;
    ++n;
    // Candidates under the recorded aux version, bounds-checked before any
    // probe (see TryFindOptimistic).
    uint32_t d;
    std::array<Candidates, kBatchTile> cand;
    {
      SeqlockReadCritical crit;
      d = opts_.num_hashes;
      StageCandidates(keys.data(), n_keys, cand.data(), /*for_write=*/false);
      for (size_t i = 0; i < n_keys; ++i) {
        for (uint32_t t = 0; t < d; ++t) {
          if (cand[i].idx[t] >= table_.size()) return -1;
        }
      }
    }
    for (size_t i = 0; i < n_keys; ++i) {
      for (uint32_t t = 0; t < d; ++t) {
        const size_t s = seq_->StripeOf(cand[i].idx[t]);
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
  /// What the main-table portion of a statistics-free lookup concluded.
  /// kCheckStash means "miss in the buckets, and the stash screen could not
  /// rule the stash out": the locked path probes the stash, the optimistic
  /// path bails out instead (the stash's unordered_map must never be
  /// traversed concurrently with a writer).
  enum class MainOutcome : uint8_t { kHit, kMiss, kCheckStash };

  /// Main-table part of FindNoStats over precomputed candidates: counters,
  /// partitions, bucket probes, and the stash screen — everything except
  /// the stash probe itself. `sink` is the live TableMetrics for scalar
  /// calls, a stack-local LookupTally for batches and optimistic attempts.
  template <typename MetricsSink>
  MainOutcome FindNoStatsMain(const Key& key, const Candidates& cand,
                              Value* out, MetricsSink& sink) const {
    const uint32_t d = opts_.num_hashes;
    uint64_t counter[kMaxHashes];
    bool tomb[kMaxHashes];
    bool any_zero = false, any_gt1 = false;
    for (uint32_t t = 0; t < d; ++t) {
      counter[t] = counters_.PeekCounter(cand.idx[t]);
      tomb[t] = counters_.PeekTombstone(cand.idx[t]);
      if (counter[t] == 0 && !tomb[t]) any_zero = true;
      if (counter[t] > 1) any_gt1 = true;
    }
    // Probe tallies, recorded once on the way out (atomics are fine from
    // the shared-lock reader path; AccessStats would not be).
    uint32_t probes_total = 0;
    std::array<uint8_t, kMaxHashes + 1> probes_by_value{};
    auto record_lookup = [&](int32_t hit_value) {
      if constexpr (kMetricsEnabled) {
        sink.RecordLookupOutcome(probes_total, hit_value);
        for (uint32_t val = 1; val <= d; ++val) {
          sink.RecordPartitionProbes(val, probes_by_value[val]);
        }
      }
    };
    if (opts_.lookup_pruning_enabled && any_zero &&
        opts_.deletion_mode != DeletionMode::kResetCounters) {
      record_lookup(-1);
      return MainOutcome::kMiss;
    }
    // The empty() read is a plain size check, memory-safe even when racing
    // a writer; optimistic callers validate the aux stripe before trusting
    // any conclusion drawn from it (including the probe skips below).
    const bool stash_empty = stash_.empty();
    const uint8_t tag_nibble = cand.tag & 0x0Fu;
    bool read_flag_zero = false;
    for (uint64_t value = d; value >= 1; --value) {
      uint32_t members[kMaxHashes];
      uint32_t s = 0;
      for (uint32_t t = 0; t < d; ++t) {
        if (!tomb[t] && counter[t] == value) members[s++] = t;
      }
      if (s < value && opts_.lookup_pruning_enabled) continue;
      const uint32_t probes =
          opts_.lookup_pruning_enabled ? s - static_cast<uint32_t>(value) + 1
                                       : s;
      for (uint32_t i = 0; i < probes; ++i) {
        ++probes_total;
        ++probes_by_value[value];
        const size_t idx = cand.idx[members[i]];
        if (counters_.PeekTag(idx) != tag_nibble && stash_empty) {
          // Fingerprint mismatch proves the occupant is a different key;
          // with the stash empty its flag can never matter, so the one
          // DRAM line this probe models is never touched. Probe tallies
          // still count it — the model performed this read.
          continue;
        }
        const Bucket& b = table_[idx];
        if (b.key == key) {
          if (out != nullptr) *out = b.value;
          record_lookup(static_cast<int32_t>(value));
          return MainOutcome::kHit;
        }
        if (!b.stash_flag) read_flag_zero = true;
      }
    }
    record_lookup(-1);
    // Stash screen, mirroring ShouldProbeStash.
    if (stash_empty) return MainOutcome::kMiss;
    if (opts_.stash_kind == StashKind::kOnchipChs) {
      return MainOutcome::kCheckStash;
    }
    if (opts_.stash_screen_enabled) {
      if (opts_.deletion_mode == DeletionMode::kDisabled &&
          (any_zero || any_gt1)) {
        return MainOutcome::kMiss;
      }
      if (opts_.deletion_mode == DeletionMode::kTombstone && any_zero) {
        return MainOutcome::kMiss;
      }
      if (read_flag_zero) return MainOutcome::kMiss;
    }
    return MainOutcome::kCheckStash;
  }

  /// FindNoStats body over precomputed candidates (shared with the batched
  /// no-stats path): the main-table probe plus, when the screen allows it,
  /// the actual stash probe.
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
  /// Deletes `key`. Requires a deletion-enabled mode; in multi-copy tables
  /// this performs zero off-chip writes (only counters change, §III.B.3).
  bool Erase(const Key& key) {
    ScopedLatencySample lat(latency_.get(), LatencyOp::kErase);
    if (opts_.deletion_mode == DeletionMode::kDisabled) {
      std::fprintf(stderr,
                   "McCuckooTable::Erase called with DeletionMode::kDisabled; "
                   "construct the table with kResetCounters or kTombstone\n");
      std::abort();
    }
    CandidateView view;
    const int64_t found = FindInMain(key, ComputeCandidates(key), nullptr,
                                     &view);
    if (found >= 0) {
      const size_t fidx = static_cast<size_t>(found);
      const uint64_t v = view.counter[FindSlot(view, found)];
      CopySet copies = LocateAllCopies(key, fidx, v);
      for (uint32_t i = 0; i < copies.count; ++i) {
        SeqOpen(copies.idx[i]);
        if (opts_.deletion_mode == DeletionMode::kTombstone) {
          counters_.MarkDeleted(copies.idx[i]);
        } else {
          counters_.Set(copies.idx[i], 0);
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
        // Flags are Bloom-like and not cleared (§III.F); false positives
        // accumulate until RebuildStashFlags().
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
    stats_->offchip_reads += table_.size();  // full scan of the old table
    ForEachMainItem([&](const Key& k, const Value& v) {
      keys.push_back(k);
      values.push_back(v);
    });
    for (const auto& [k, v] : stash_.Items()) {
      ++stats_->offchip_reads;
      keys.push_back(k);
      values.push_back(v);
    }

    McCuckooTable rebuilt = ScratchRebuild(new_opts);
    rebuilt.InsertBatch(keys, values);
    CommitRehash(std::move(rebuilt), t0, keys.size());
    return Status::OK();
  }

  // --- Stash maintenance (§III.E/F) -------------------------------------

  /// Attempts to move stashed items back into the main table (no new
  /// kick-out chains are started: only free/redundant buckets are used).
  /// Returns how many items left the stash. Flags are left set (sticky).
  size_t TryDrainStash() {
    size_t drained = 0;
    for (const auto& [k, v] : stash_.Items()) {
      Candidates cand = ComputeCandidates(k);
      const uint32_t placed = TryPlace(k, v, cand);
      if (placed > 0) {
        SeqOpenAux();
        stash_.Erase(k);
        ChargeStashWrite();
        ++size_;
        ++drained;
      }
      SeqFlush();  // per item: bucket copies and stash removal together
    }
    return drained;
  }

  /// Resets every stash flag and re-marks the candidates of the items
  /// currently stashed, re-synchronizing the screen after stash deletions
  /// (§III.F). Charges one off-chip write per flag actually changed.
  void RebuildStashFlags() {
    // Cleared and re-set flags publish together: a reader validating
    // between the clear and the re-mark would false-miss a stashed key.
    for (size_t idx = 0; idx < table_.size(); ++idx) {
      Bucket& b = table_[idx];
      if (b.stash_flag) {
        SeqOpen(idx);
        b.stash_flag = false;
        ++stats_->offchip_writes;
      }
    }
    for (const auto& [k, v] : stash_.Items()) {
      (void)v;
      Candidates cand = ComputeCandidates(k);
      for (uint32_t t = 0; t < opts_.num_hashes; ++t) SetFlag(cand.idx[t]);
    }
    stale_stash_flag_keys_ = 0;
    SeqFlush();
  }

  // --- Introspection ----------------------------------------------------

  /// Live keys resident in the main table (excludes the stash).
  size_t size() const { return size_; }

  /// Keys currently parked in the stash.
  size_t stash_size() const { return stash_.size(); }

  /// Live keys anywhere (main table + stash).
  size_t TotalItems() const { return size_ + stash_.size(); }

  /// Total buckets (= key capacity for the single-slot layout).
  uint64_t capacity() const { return table_.size(); }

  /// Distinct-items-to-buckets ratio, the paper's "load ratio".
  double load_factor() const {
    return static_cast<double>(TotalItems()) / static_cast<double>(capacity());
  }

  const TableOptions& options() const { return opts_; }
  const AccessStats& stats() const { return *stats_; }
  void ResetStats() { *stats_ = AccessStats{}; }

  /// Point-in-time metrics copy with the occupancy/capacity gauges filled
  /// (all zeros under -DMCCUCKOO_NO_METRICS). Safe to call concurrently
  /// with readers; pair with writer exclusion for exact totals.
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
  /// and the span ring (AccessStats are separate; see ResetStats).
  void ResetMetrics() {
    metrics_->Reset();
    trace_.Clear();
    latency_->Reset();
    spans_.Clear();
  }

  /// Kick-chain trace ring (post-mortem inspection of recent chains).
  const TraceRecorder& trace() const { return trace_; }

  /// Span timeline ring (growth/rehash/reseed/dead-end/spill events) —
  /// feed Events() to ExportChromeTrace for a chrome://tracing view.
  const SpanRecorder& spans() const { return spans_; }

  /// Sampled op-latency recorder (configure via
  /// TableOptions::latency_sample_period or set_sample_period).
  LatencyRecorder& latency() const { return *latency_; }

  /// Scans the table into an occupancy/counter heatmap at the requested
  /// region resolution (full-table scan; scrape-time cost only).
  HeatmapSnapshot Heatmap(size_t regions = 64) const {
    HeatmapSnapshot h;
    const size_t buckets = table_.size();
    if (regions == 0) regions = 1;
    if (regions > buckets) regions = buckets;
    h.region_occupied.assign(regions, 0);
    h.region_slots.assign(regions, 0);
    h.total_buckets = buckets;
    h.total_slots = buckets;  // single-slot layout
    const size_t per_region = (buckets + regions - 1) / regions;
    for (size_t idx = 0; idx < buckets; ++idx) {
      const size_t region = idx / per_region;
      ++h.region_slots[region];
      const uint8_t c = counters_.PeekCounter(idx);
      const size_t cv = c < kMetricsPartitions ? c : kMetricsPartitions - 1;
      ++h.counter_values[cv];
      if (c != 0) {
        ++h.region_occupied[region];
        ++h.occupied_slots;
      }
    }
    return h;
  }

  /// Probe kernel the lookup paths use. The single-slot table screens with
  /// one fingerprint byte per candidate — a header-screened scalar probe;
  /// only the blocked table has whole-bucket headers for the SIMD kernels.
  const char* probe_variant() const { return "scalar"; }

  /// Items present when the first real collision happened (0 = none yet) —
  /// Table I's metric.
  uint64_t first_collision_items() const { return first_collision_items_; }

  /// Items present when the first insertion failure (stash spill) happened
  /// (0 = none yet) — Fig 11's metric.
  uint64_t first_failure_items() const { return first_failure_items_; }

  /// Total proactive redundant copy writes so far (copies beyond each
  /// item's first). Theorem 2 bounds this by capacity * (1 + sum_{t=3..d}
  /// 1/t); for d = 3: 5/6 of the bucket count.
  uint64_t redundant_writes() const { return redundant_writes_; }

  /// Keys erased from the stash whose flags are now stale (false-positive
  /// pressure on the screen; see RebuildStashFlags).
  uint64_t stale_stash_flag_keys() const { return stale_stash_flag_keys_; }

  /// Times a CHS-style on-chip stash exceeded its capacity — events where a
  /// real deployment would have had to rehash (§II.B).
  uint64_t forced_rehash_events() const { return forced_rehash_events_; }

  /// Bytes of modeled on-chip memory (copy counters, plus MinCounter's
  /// kick-history array when that policy is active).
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

  /// Number of live copies of `key` in the main table (uncharged; testing).
  uint32_t CountCopies(const Key& key) const {
    Candidates cand = ComputeCandidates(key);
    uint32_t copies = 0;
    for (uint32_t t = 0; t < opts_.num_hashes; ++t) {
      const size_t idx = cand.idx[t];
      if (counters_.PeekCounter(idx) > 0 && table_[idx].key == key) ++copies;
    }
    return copies;
  }

  /// Exhaustively checks the structural invariants (uncharged; testing):
  /// every live bucket's occupant hashes to that bucket; all copies of a
  /// key are identical; every copy's counter equals the key's copy count;
  /// tombstones only exist in kTombstone mode.
  Status ValidateInvariants() const {
    std::unordered_map<Key, std::vector<size_t>> copies;
    for (size_t idx = 0; idx < table_.size(); ++idx) {
      const uint64_t c = counters_.PeekCounter(idx);
      if (counters_.PeekTombstone(idx)) {
        if (opts_.deletion_mode != DeletionMode::kTombstone) {
          return Status::Internal("tombstone outside kTombstone mode at " +
                                  std::to_string(idx));
        }
        if (c != 0) {
          return Status::Internal("tombstone with non-zero counter at " +
                                  std::to_string(idx));
        }
        continue;
      }
      if (c == 0) continue;
      if (c > opts_.num_hashes) {
        return Status::Internal("counter exceeds d at " + std::to_string(idx));
      }
      const Key& k = table_[idx].key;
      const uint32_t t = static_cast<uint32_t>(idx / opts_.buckets_per_table);
      const uint64_t b = idx % opts_.buckets_per_table;
      if (family_.Bucket(k, t) != b) {
        return Status::Internal("occupant does not hash to bucket " +
                                std::to_string(idx));
      }
      if (counters_.PeekTag(idx) != (family_.TagOf(k) & 0x0Fu)) {
        return Status::Internal("stale bucket fingerprint at " +
                                std::to_string(idx));
      }
      copies[k].push_back(idx);
    }
    for (const auto& [k, positions] : copies) {
      for (size_t idx : positions) {
        if (counters_.PeekCounter(idx) != positions.size()) {
          return Status::Internal("counter != copy count at " +
                                  std::to_string(idx));
        }
        if (!(table_[idx].value == table_[positions.front()].value)) {
          return Status::Internal("diverged copy values for a key");
        }
      }
    }
    if (copies.size() != size_) {
      return Status::Internal("size_ does not match live distinct keys: " +
                              std::to_string(size_) + " vs " +
                              std::to_string(copies.size()));
    }
    return Status::OK();
  }

  /// Debug-build deep check for the chaos/property harnesses:
  /// ValidateInvariants plus the stash-screen rule that every stashed
  /// key's candidate buckets carry the stash flag (flags may be stale-set
  /// — they are sticky by design — but never missing). Compiles to an
  /// unconditional OK in NDEBUG builds so release benchmarks can keep the
  /// call sites.
  Status CheckInvariants() const {
#ifdef NDEBUG
    return Status::OK();
#else
    if (Status s = ValidateInvariants(); !s.ok()) return s;
    if (opts_.stash_kind == StashKind::kOffchip) {
      for (const auto& [k, v] : stash_.Items()) {
        (void)v;
        const Candidates cand = ComputeCandidates(k);
        for (uint32_t t = 0; t < opts_.num_hashes; ++t) {
          if (!table_[cand.idx[t]].stash_flag) {
            return Status::Internal(
                "stashed key lacks a candidate stash flag at bucket " +
                std::to_string(cand.idx[t]));
          }
          // Without deletions the screen additionally relies on every
          // stashed key's candidates holding sole copies forever: the key
          // was stashed only after TryPlace saw all-ones, and a counter-1
          // bucket can never fall to 0 nor climb past 1 again.
          if (opts_.deletion_mode == DeletionMode::kDisabled &&
              counters_.PeekCounter(cand.idx[t]) != 1) {
            return Status::Internal(
                "stashed key candidate bucket " + std::to_string(cand.idx[t]) +
                " has counter " +
                std::to_string(counters_.PeekCounter(cand.idx[t])) +
                " != 1 under kDisabled; the stash screen would veto lookups");
          }
        }
      }
    }
    return Status::OK();
#endif
  }

  /// Read-only view of the auto-growth state machine.
  const GrowthPolicy& growth_policy() const { return growth_; }

  /// Completed rehash commits over this table's lifetime (manual and
  /// growth-triggered). Changes exactly when the geometry/seeds may have.
  uint64_t rehash_epoch() const { return rehash_epoch_; }

  // ===== Multi-writer (striped-lock) operations ===========================
  //
  // The Concurrent* entry points below let many writers mutate the table at
  // once under an attached LockStripeArray (congruent with the attached
  // SeqlockArray, see lock_stripes.h). The protocol, in brief:
  //
  //  * An operation BLOCK-acquires only its own key's candidate stripes —
  //    sorted, deduplicated, known up front — plus (last) the aux stripe,
  //    which is globally maximal. Everything discovered mid-operation (BFS
  //    chain nodes, the terminal, a displaced victim's other copies) is
  //    TRY-locked only; a failed try-lock releases the mid-op suffix and
  //    replans or restarts. Blocking acquisition in ascending order with no
  //    later blocking waits is deadlock-free by the classic ordering
  //    argument.
  //  * Every counter mutation anywhere in the table happens under that
  //    bucket's stripe. Holding a stripe therefore pins its buckets'
  //    counters AND the copy-sets of the items in them: displacing a copy
  //    of item X requires try-locking all of X's other copies first, which
  //    a holder of any one of them blocks.
  //  * Eviction runs the BFS engine in plan/validate/apply form regardless
  //    of the configured policy (the walk policies mutate mid-chain and
  //    lean on shared RNG/history state). The plan phase reads racily and
  //    mutates nothing; the chain is then try-claimed and re-validated
  //    under the claims; the apply phase runs terminal-first, and its only
  //    fallible step (claiming a redundant terminal occupant's other
  //    copies) fails before any mutation — so a failure replans cleanly.
  //  * Seqlock windows for the whole operation are opened in a stack-local
  //    SeqlockWriterSet and closed *before* the stripe locks are released:
  //    the next holder of a stripe owns its version cell again only after
  //    our odd window is closed.
  //  * These paths charge no AccessStats and record no trace/span/kick
  //    history (those are writer-exclusion structures); TableMetrics and
  //    the latency recorder are atomic and recorded normally.
  //
  // Callers (ShardedMcCuckoo in WriteMode::kMultiWriter) hold the shard
  // lock shared for every operation; growth escalates to the exclusive
  // side plus a full LockStripeDrain, so in-flight operations never see a
  // geometry change — which is also why mid-operation bucket indices stay
  // in bounds.

  /// Multi-writer insert of a key assumed not to be present (same contract
  /// as Insert: duplicates corrupt the copy invariants). `growth_mu`
  /// serializes the growth-policy bookkeeping; `*wants_growth` is set when
  /// the policy asks for a rehash/reseed, which the caller performs under
  /// full exclusivity via MaybeGrowExclusive().
  InsertResult ConcurrentInsert(const Key& key, const Value& value,
                                std::mutex& growth_mu, bool* wants_growth) {
    ScopedLatencySample lat(latency_.get(), LatencyOp::kInsert);
    assert(locks_ != nullptr);
    *wants_growth = false;
    const uint64_t t0 = MetricsNowNs();
    const Candidates cand = ComputeCandidates(key);
    LockStripeSet ls(*locks_, metrics_.get());
    SeqlockWriterSet ws;
    bool collided = false;
    bool need_restart = false;
    uint32_t chain_len = 0, bfs_nodes = 0, bfs_budget = 0;
    InsertResult r;
    for (;;) {
      AcquireCandidateStripes(ls, cand);
      r = ConcurrentPlaceOrEvict(key, value, cand, ls, ws, &collided,
                                 &need_restart, &chain_len, &bfs_nodes,
                                 &bfs_budget);
      if (!need_restart) break;
      // A redundant candidate's other copies are transiently claimed by
      // another writer; back off completely (breaking hold-and-wait) and
      // redo the acquisition. Nothing was mutated, no seq window is open.
      ls.ReleaseAll();
      std::this_thread::yield();
    }
    ConcurrentFlush(ws, ls);
    metrics_->RecordInsert(chain_len, MetricsNowNs() - t0);
    if (collided) {
      metrics_->RecordPolicyChain(static_cast<uint32_t>(EvictionPolicy::kBfs),
                                  chain_len);
      metrics_->RecordBfsNodes(bfs_nodes);
    }
    *wants_growth = ConcurrentGrowthCheck(
        growth_mu, r != InsertResult::kInserted, chain_len, bfs_nodes,
        bfs_budget);
    return r;
  }

  /// Multi-writer InsertOrAssign: updates every copy in place when the key
  /// exists (main table or stash), inserts otherwise. The candidate
  /// stripes stay held across the found/stash/insert decision, so the
  /// presence check cannot go stale before the insert. `previous` works as
  /// in InsertOrAssign.
  InsertResult ConcurrentInsertOrAssign(const Key& key, const Value& value,
                                        std::mutex& growth_mu,
                                        bool* wants_growth,
                                        Value* previous = nullptr) {
    ScopedLatencySample lat(latency_.get(), LatencyOp::kInsert);
    assert(locks_ != nullptr);
    *wants_growth = false;
    const uint64_t t0 = MetricsNowNs();
    const Candidates cand = ComputeCandidates(key);
    LockStripeSet ls(*locks_, metrics_.get());
    SeqlockWriterSet ws;
    bool collided = false;
    bool need_restart = false;
    uint32_t chain_len = 0, bfs_nodes = 0, bfs_budget = 0;
    InsertResult r;
    for (;;) {
      AcquireCandidateStripes(ls, cand);
      // Re-locate on every (re)acquisition: between restarts another
      // writer of the same key may have inserted it.
      const CopySet copies = ConcurrentLocateCopies(key, cand);
      if (copies.count > 0) {
        if (previous != nullptr) *previous = table_[copies.idx[0]].value;
        for (uint32_t i = 0; i < copies.count; ++i) {
          // Value-only update: the occupant's key, tag and counter are
          // already exactly this key's (located under the held stripes).
          SeqOpenIn(ws, copies.idx[i]);
          table_[copies.idx[i]].value = value;
        }
        ConcurrentFlush(ws, ls);
        return InsertResult::kUpdated;
      }
      if (ConcurrentShouldProbeStash(cand)) {
        ls.AcquireAux();
        const bool in_stash = stash_.Find(key, previous);
        metrics_->RecordStashProbe(in_stash);
        if (in_stash) {
          SeqOpenAuxIn(ws);
          stash_.Insert(key, value);
          ConcurrentFlush(ws, ls);
          return InsertResult::kUpdated;
        }
        // Keep aux held through the insert attempt: it is the maximal
        // stripe and any later AcquireAux is an idempotent no-op.
      }
      r = ConcurrentPlaceOrEvict(key, value, cand, ls, ws, &collided,
                                 &need_restart, &chain_len, &bfs_nodes,
                                 &bfs_budget);
      if (!need_restart) break;
      ls.ReleaseAll();
      std::this_thread::yield();
    }
    ConcurrentFlush(ws, ls);
    metrics_->RecordInsert(chain_len, MetricsNowNs() - t0);
    if (collided) {
      metrics_->RecordPolicyChain(static_cast<uint32_t>(EvictionPolicy::kBfs),
                                  chain_len);
      metrics_->RecordBfsNodes(bfs_nodes);
    }
    *wants_growth = ConcurrentGrowthCheck(
        growth_mu, r != InsertResult::kInserted, chain_len, bfs_nodes,
        bfs_budget);
    return r;
  }

  /// Multi-writer erase: all copies of the key lie among the held
  /// candidates, so locating them under the stripes is exact.
  bool ConcurrentErase(const Key& key) {
    ScopedLatencySample lat(latency_.get(), LatencyOp::kErase);
    assert(locks_ != nullptr);
    if (opts_.deletion_mode == DeletionMode::kDisabled) {
      std::fprintf(stderr,
                   "McCuckooTable::ConcurrentErase called with "
                   "DeletionMode::kDisabled; construct the table with "
                   "kResetCounters or kTombstone\n");
      std::abort();
    }
    const Candidates cand = ComputeCandidates(key);
    LockStripeSet ls(*locks_, metrics_.get());
    SeqlockWriterSet ws;
    AcquireCandidateStripes(ls, cand);
    const CopySet copies = ConcurrentLocateCopies(key, cand);
    if (copies.count > 0) {
      for (uint32_t i = 0; i < copies.count; ++i) {
        SeqOpenIn(ws, copies.idx[i]);
        if (opts_.deletion_mode == DeletionMode::kTombstone) {
          counters_.AtomicMarkDeleted(copies.idx[i]);
        } else {
          counters_.AtomicSet(copies.idx[i], 0);
        }
      }
      size_.FetchSub(1);
      ConcurrentFlush(ws, ls);
      metrics_->RecordErase();
      return true;
    }
    if (ConcurrentShouldProbeStash(cand)) {
      ls.AcquireAux();
      SeqOpenAuxIn(ws);
      const bool hit = stash_.Erase(key);
      ConcurrentFlush(ws, ls);
      metrics_->RecordStashProbe(hit);
      if (hit) {
        // Stash items are not counted in size_, so no decrement here.
        stale_stash_flag_keys_.FetchAdd(1);
        metrics_->RecordErase();
        return true;
      }
      return false;
    }
    ls.ReleaseAll();
    return false;
  }

  /// Striped-lock reader fallback for the multi-writer mode: takes the
  /// key's candidate stripes (blocking, ordered) instead of any table-wide
  /// lock, so a fallback read waits only for writers touching its own
  /// candidates. Does not require the wrapper's drain lock: a rehash
  /// cannot *start* while we hold any stripe (growth drains them all), and
  /// one that committed between candidate computation and acquisition is
  /// caught by the epoch check and retried.
  bool FindStriped(const Key& key, Value* out = nullptr) const {
    assert(locks_ != nullptr);
    ScopedLatencySample lat(latency_.get(), LatencyOp::kFind);
    for (;;) {
      const uint64_t epoch = rehash_epoch_.load();
      const uint32_t d = opts_.num_hashes;
      Candidates cand;
      bool in_range = true;
      {
        // Geometry may be swapping under us until the stripes are held.
        SeqlockReadCritical crit;
        cand = ComputeCandidates(key);
        for (uint32_t t = 0; t < d; ++t) {
          in_range = in_range && cand.idx[t] < table_.size();
        }
      }
      if (!in_range) continue;  // torn mid-commit read; retry
      LockStripeSet ls(*locks_, metrics_.get());
      {
        std::array<size_t, kMaxHashes> stripes;
        for (uint32_t t = 0; t < d; ++t) {
          stripes[t] = locks_->StripeOf(cand.idx[t]);
        }
        ls.AcquireOrdered(stripes.data(), d);
      }
      // The stripe acquisitions are acquire barriers and the committing
      // rehash bumps the epoch before releasing its drain, so an unchanged
      // epoch here proves the candidates match the live geometry.
      if (rehash_epoch_.load() != epoch) continue;
      Value tmp{};
      LookupTally tally;
      MainOutcome mo;
      {
        // Neighbouring buckets in the same cache lines may still be
        // mutated by writers holding *other* stripes.
        SeqlockReadCritical crit;
        mo = FindNoStatsMain(key, cand, &tmp, tally);
      }
      bool hit = (mo == MainOutcome::kHit);
      if (mo == MainOutcome::kCheckStash) {
        ls.AcquireAux();
        hit = stash_.Find(key, &tmp);
        tally.RecordStashProbe(hit);
      }
      tally.FlushTo(*metrics_);
      ls.ReleaseAll();
      if (hit && out != nullptr) *out = tmp;
      return hit;
    }
  }

  /// Growth-policy bookkeeping for one concurrent insert, serialized by
  /// the wrapper's growth mutex (GrowthPolicy state is not thread-safe).
  /// Returns true when the policy wants a rehash/reseed; the caller then
  /// escalates to the exclusive drain and calls MaybeGrowExclusive().
  bool ConcurrentGrowthCheck(std::mutex& growth_mu, bool overflowed,
                             uint32_t chain_len, uint32_t bfs_nodes,
                             uint32_t bfs_budget) {
    std::lock_guard<std::mutex> g(growth_mu);
    growth_.ObserveInsert(overflowed, chain_len, opts_.maxloop, bfs_nodes,
                          bfs_budget);
    const GrowthDecision d = growth_.Decide(
        {ApproxTotalItems(), opts_.capacity(), ApproxStashSize(),
         opts_.buckets_per_table});
    if (d.action == GrowthAction::kSuppressed) {
      metrics_->SetGrowthSuppressed(true);
      return false;
    }
    return d.action != GrowthAction::kNone;
  }

  /// Runs the growth engine under full exclusivity: the caller holds the
  /// exclusive drain plus every lock stripe (LockStripeDrain). Re-decides
  /// from scratch, so if a competing writer already grew the table this is
  /// a no-op.
  void MaybeGrowExclusive() { MaybeGrow(); }

  /// Racy item-count estimates for growth decisions and wrapper
  /// introspection (annotated: the stash map may be mutating under aux).
  size_t ApproxStashSize() const {
    SeqlockReadCritical crit;
    return stash_.size();
  }
  size_t ApproxTotalItems() const { return size_.load() + ApproxStashSize(); }

 private:
  // --- multi-writer internals --------------------------------------------

  /// Bounded replans for a contended/invalidated BFS chain before the
  /// operation falls back to the stash.
  static constexpr int kMaxChainReplans = 3;

  void AcquireCandidateStripes(LockStripeSet& ls, const Candidates& cand) {
    std::array<size_t, kMaxHashes> stripes;
    const uint32_t d = opts_.num_hashes;
    for (uint32_t t = 0; t < d; ++t) {
      stripes[t] = locks_->StripeOf(cand.idx[t]);
    }
    ls.AcquireOrdered(stripes.data(), d);
  }

  // Seqlock hooks against a stack-local writer set: concurrent operations
  // must not share the member seq_open_ (it is single-writer state).
  void SeqOpenIn(SeqlockWriterSet& ws, size_t bucket_idx) {
    if (seq_ != nullptr) ws.Open(*seq_, seq_->StripeOf(bucket_idx));
  }
  void SeqOpenAuxIn(SeqlockWriterSet& ws) {
    if (seq_ != nullptr) ws.Open(*seq_, seq_->aux_stripe());
  }

  /// Publishes the operation's seqlock windows, then releases its stripe
  /// locks — strictly in that order, so the next stripe holder owns the
  /// version cells only after our odd windows closed. Also flushes the
  /// per-operation lock-contention tallies. Safe to call with nothing
  /// held/open.
  void ConcurrentFlush(SeqlockWriterSet& ws, LockStripeSet& ls) {
    if (seq_ != nullptr) ws.CloseAll(*seq_);
    ls.ReleaseAll();
  }

  /// Uncharged bucket store under a held stripe (the concurrent paths run
  /// outside the paper's single-writer access model, so AccessStats stay
  /// untouched; see the section comment).
  void ConcurrentStoreBucket(SeqlockWriterSet& ws, size_t idx, const Key& key,
                             const Value& value) {
    SeqOpenIn(ws, idx);
    Bucket& b = table_[idx];
    b.key = key;
    b.value = value;
    counters_.AtomicSetTag(idx, family_.TagOf(key));
  }

  void ConcurrentSetFlag(SeqlockWriterSet& ws, size_t idx) {
    SeqOpenIn(ws, idx);
    table_[idx].stash_flag = true;
  }

  /// Exact copy location under held candidate stripes: every copy of `key`
  /// lives in one of its candidates, whose occupants cannot change while
  /// the stripes are held. The 4-bit tag, stable under the same stripes,
  /// screens out other occupants before their key is read, as in the
  /// lookup probes.
  CopySet ConcurrentLocateCopies(const Key& key, const Candidates& cand) {
    CopySet out{};
    const uint8_t tag_nibble = cand.tag & 0x0Fu;
    for (uint32_t t = 0; t < opts_.num_hashes; ++t) {
      const size_t idx = cand.idx[t];
      if (counters_.PeekCounter(idx) > 0 &&
          counters_.PeekTag(idx) == tag_nibble && table_[idx].key == key) {
        out.idx[out.count++] = idx;
      }
    }
    return out;
  }

  /// ShouldProbeStash for the concurrent paths, rebuilt from the held
  /// candidates. Unlike the CandidateView form it can consult every
  /// stash_flag exactly (the stripes are held), which is a strictly
  /// stronger — still sound — screen: a stashed key set all d flags.
  bool ConcurrentShouldProbeStash(const Candidates& cand) {
    {
      // Benign race on the map size: our own key's stash membership is
      // pinned by the held candidate stripes (any writer stashing or
      // un-stashing it needs them), and the happens-before edge through
      // those stripes makes its effect on empty() visible.
      SeqlockReadCritical crit;
      if (stash_.empty()) return false;
    }
    if (opts_.stash_kind == StashKind::kOnchipChs) return true;
    if (!opts_.stash_screen_enabled) return true;
    const uint32_t d = opts_.num_hashes;
    bool any_zero = false, any_gt1 = false, any_flag_zero = false;
    for (uint32_t t = 0; t < d; ++t) {
      const size_t idx = cand.idx[t];
      const uint64_t c = counters_.PeekCounter(idx);
      const bool tomb = opts_.deletion_mode == DeletionMode::kTombstone &&
                        counters_.PeekTombstone(idx);
      if (c == 0 && !tomb) any_zero = true;
      if (c > 1) any_gt1 = true;
      if (!table_[idx].stash_flag) any_flag_zero = true;
    }
    if (opts_.deletion_mode == DeletionMode::kDisabled &&
        (any_zero || any_gt1)) {
      return false;
    }
    if (opts_.deletion_mode == DeletionMode::kTombstone && any_zero) {
      return false;
    }
    return !any_flag_zero;
  }

  bool AllCandidatesSoleCopies(const Candidates& cand) const {
    for (uint32_t t = 0; t < opts_.num_hashes; ++t) {
      if (counters_.PeekCounter(cand.idx[t]) != 1) return false;
    }
    return true;
  }

  /// Place-or-evict body shared by ConcurrentInsert/InsertOrAssign. Called
  /// with the candidate stripes held. Sets *need_restart (with nothing
  /// mutated and no seq window open) when a redundant candidate's victim
  /// copies could not be claimed — the caller releases everything and
  /// retries, which cannot be done here without breaking lock ordering.
  InsertResult ConcurrentPlaceOrEvict(const Key& key, const Value& value,
                                      const Candidates& cand,
                                      LockStripeSet& ls, SeqlockWriterSet& ws,
                                      bool* collided, bool* need_restart,
                                      uint32_t* chain_len, uint32_t* nodes,
                                      uint32_t* budget) {
    *collided = false;
    *need_restart = false;
    const uint32_t placed = ConcurrentTryPlace(key, value, cand, ls, ws);
    if (placed > 0) {
      size_.FetchAdd(1);
      return InsertResult::kInserted;
    }
    if (!AllCandidatesSoleCopies(cand)) {
      // A candidate still holds a redundant copy we failed to claim. BFS
      // requires all-ones roots (and so does the stash screen), so this
      // transient contention must be resolved by a full restart.
      *need_restart = true;
      return InsertResult::kFailed;
    }
    *collided = true;
    uint64_t expect_zero = 0;
    first_collision_items_.CompareExchange(expect_zero,
                                           ApproxTotalItems() + 1);
    return ConcurrentBfsInsert(key, value, cand, ls, ws, chain_len, nodes,
                               budget);
  }

  /// TryPlace under held candidate stripes. Differences from the
  /// single-writer form: counter updates go through the CAS accessors, and
  /// a redundant victim whose other copies cannot be try-claimed is
  /// skipped rather than waited for (the caller restarts when that leaves
  /// a non-sole-copy candidate unplaced).
  uint32_t ConcurrentTryPlace(const Key& key, const Value& value,
                              const Candidates& cand, LockStripeSet& ls,
                              SeqlockWriterSet& ws) {
    const uint32_t d = opts_.num_hashes;
    std::array<bool, kMaxHashes> taken{};
    std::array<size_t, kMaxHashes> placed{};
    uint32_t n_placed = 0;
    // Principle 1: occupy all the empty candidate buckets (tombstones read
    // as counter 0 through PeekCounter and are recycled transparently).
    for (uint32_t t = 0; t < d; ++t) {
      if (counters_.PeekCounter(cand.idx[t]) == 0) {
        ConcurrentStoreBucket(ws, cand.idx[t], key, value);
        placed[n_placed++] = cand.idx[t];
        taken[t] = true;
      }
    }
    // Principles 2+3, as in TryPlace (re-read each round; never touch 1).
    while (n_placed < d) {
      int best = -1;
      uint64_t best_v = 0;
      for (uint32_t t = 0; t < d; ++t) {
        if (taken[t]) continue;
        const uint64_t cur = counters_.PeekCounter(cand.idx[t]);
        if (cur > best_v) {
          best_v = cur;
          best = static_cast<int>(t);
        }
      }
      if (best < 0 || best_v < 2 || best_v < n_placed + 2) break;
      if (!ConcurrentOverwriteRedundant(ls, ws, cand.idx[best], best_v, key,
                                        value)) {
        taken[best] = true;  // contended victim: consider the next-best
        continue;
      }
      placed[n_placed++] = cand.idx[best];
      taken[best] = true;
    }
    if (n_placed == 0) return 0;
    for (uint32_t i = 0; i < n_placed; ++i) {
      SeqOpenIn(ws, placed[i]);
      counters_.AtomicSet(placed[i], n_placed);
    }
    redundant_writes_.FetchAdd(n_placed - 1);
    return n_placed;
  }

  /// OverwriteRedundantCopy under the claim-then-move discipline: try-lock
  /// the victim item's other candidate stripes, identify its copies
  /// exactly by key compare (the copy-set is frozen — changing it would
  /// need the victim's stripe, which we hold), decrement them, then
  /// overwrite. Fails cleanly BEFORE any mutation when a claim fails; on
  /// success the claimed stripes stay held until the operation ends.
  bool ConcurrentOverwriteRedundant(LockStripeSet& ls, SeqlockWriterSet& ws,
                                    size_t victim_idx, uint64_t v,
                                    const Key& key, const Value& value) {
    assert(v >= 2);
    const size_t held_before = ls.held_count();
    const Key victim_key = table_[victim_idx].key;  // stripe held: stable
    const Candidates vc = ComputeCandidates(victim_key);
    for (uint32_t t = 0; t < opts_.num_hashes; ++t) {
      if (vc.idx[t] == victim_idx) continue;
      if (!ls.TryAcquire(locks_->StripeOf(vc.idx[t]))) {
        ls.ReleaseSuffix(held_before);
        return false;
      }
    }
    CopySet others{};
    for (uint32_t t = 0; t < opts_.num_hashes; ++t) {
      const size_t idx = vc.idx[t];
      if (idx == victim_idx) continue;
      if (counters_.PeekCounter(idx) == v && table_[idx].key == victim_key) {
        others.idx[others.count++] = idx;
      }
    }
    assert(others.count == v - 1);
    for (uint32_t i = 0; i < others.count; ++i) {
      SeqOpenIn(ws, others.idx[i]);
      counters_.AtomicDecrement(others.idx[i]);
    }
    ConcurrentStoreBucket(ws, victim_idx, key, value);
    return true;
  }

  /// Re-validates a racily planned BFS chain under its claimed stripes:
  /// every interior node must still hold a sole copy whose alternates
  /// include the next hop (linkage recomputed from the now-stable key).
  bool ValidateChain(const BfsPathResult& path) const {
    for (size_t i = 0; i < path.node.size(); ++i) {
      const size_t bucket = static_cast<size_t>(path.node[i]);
      if (counters_.PeekCounter(bucket) != 1) return false;
      const uint64_t next =
          i + 1 < path.node.size() ? path.node[i + 1] : path.terminal;
      const Candidates oc = ComputeCandidates(table_[bucket].key);
      bool linked = false;
      for (uint32_t t = 0; t < opts_.num_hashes; ++t) {
        linked = linked || (oc.idx[t] == next);
      }
      if (!linked) return false;
    }
    return true;
  }

  /// Node budget for one ConcurrentBfsInsert search. While the table's
  /// growth can still act (enabled and below its size cap), a search may
  /// expand all of maxloop nodes: with the kBfsMaxNodes cap, a table grown
  /// by SplitGrow (fewer redundant copies than a rebuilt one) stashes
  /// inserts from about 0.8 load, and the cache store answers each stashed
  /// insert with two pressure evictions. Once growth cannot act, searches
  /// keep the cap: at saturation a full budget makes every doomed insert
  /// pay maxloop occupant reads.
  uint32_t ConcurrentBfsBudget() const {
    const bool growth_can_act =
        opts_.growth.enabled &&
        opts_.buckets_per_table < opts_.growth.max_buckets_per_table;
    return growth_can_act ? opts_.maxloop : BfsNodeBudget(opts_.maxloop);
  }

  /// BfsInsert in plan/validate/apply form. Entered with the candidate
  /// stripes held and every candidate a sole copy. The plan phase reads
  /// racily (annotated) and mutates nothing; indices stay in bounds
  /// because geometry cannot change while we hold stripes. The claim
  /// phase try-locks nodes[1..] and the terminal (node[0] is a held
  /// root); validation re-checks the chain under the claims; the apply
  /// phase mirrors the single-writer backward shift. Skips the shared
  /// BfsThrottle (its streak state is single-writer). The node budget is
  /// ConcurrentBfsBudget(): all of maxloop while growth can still act,
  /// BfsNodeBudget(maxloop) once it cannot.
  InsertResult ConcurrentBfsInsert(const Key& key, const Value& value,
                                   const Candidates& cand, LockStripeSet& ls,
                                   SeqlockWriterSet& ws, uint32_t* chain_len,
                                   uint32_t* nodes_out, uint32_t* budget_out) {
    const uint32_t d = opts_.num_hashes;
    std::array<uint64_t, kMaxHashes> roots{};
    for (uint32_t t = 0; t < d; ++t) roots[t] = cand.idx[t];
    *budget_out = ConcurrentBfsBudget();
    *chain_len = 0;
    *nodes_out = 0;
    for (int attempt = 0; attempt < kMaxChainReplans; ++attempt) {
      BfsPathResult path;
      {
        SeqlockReadCritical crit;  // unclaimed buckets mutate underneath
        path = BfsFindPath(
            roots.data(), d, *budget_out,
            [&](uint64_t id, auto&& emit, auto&& terminal) {
              const size_t bucket = static_cast<size_t>(id);
              const Key okey = table_[bucket].key;  // racy, re-validated
              const Candidates oc = ComputeCandidates(okey);
              for (uint32_t t = 0; t < d; ++t) {
                const size_t alt = oc.idx[t];
                if (alt == bucket) continue;
                if (counters_.PeekCounter(alt) != 1) {
                  terminal(alt);
                  return;
                }
                __builtin_prefetch(&table_[alt], 0, 1);
                emit(alt);
              }
            });
      }
      *nodes_out += path.nodes_expanded;
      if (!path.found) break;  // genuine dead end: stash below
      const size_t held_before = ls.held_count();
      bool claimed = true;
      for (size_t i = 1; i < path.node.size() && claimed; ++i) {
        claimed = ls.TryAcquireChain(locks_->StripeOf(path.node[i]));
      }
      if (claimed) {
        claimed = ls.TryAcquireChain(locks_->StripeOf(path.terminal));
      }
      if (claimed) claimed = ValidateChain(path);
      uint64_t term_v = 0;
      if (claimed) {
        term_v = counters_.PeekCounter(path.terminal);
        if (term_v == 1) claimed = false;  // no longer a terminal
      }
      bool applied = claimed;
      if (claimed) {
        // Apply backward. The terminal move runs first and is the only
        // fallible step; its failure leaves the table untouched.
        size_t dst = static_cast<size_t>(path.terminal);
        for (size_t i = path.node.size(); i-- > 0;) {
          const size_t src = static_cast<size_t>(path.node[i]);
          const Bucket moved = table_[src];
          if (dst == static_cast<size_t>(path.terminal)) {
            if (term_v >= 2) {
              if (!ConcurrentOverwriteRedundant(ls, ws, dst, term_v,
                                                moved.key, moved.value)) {
                applied = false;
                break;
              }
            } else {
              ConcurrentStoreBucket(ws, dst, moved.key, moved.value);
            }
            SeqOpenIn(ws, dst);
            counters_.AtomicSet(dst, 1);  // the moved item is a sole copy
          } else {
            ConcurrentStoreBucket(ws, dst, moved.key, moved.value);
            // Counter stays 1: dst already held a sole copy.
          }
          dst = src;
        }
      }
      if (!applied) {
        ls.ReleaseSuffix(held_before);
        std::this_thread::yield();
        continue;
      }
      ConcurrentStoreBucket(ws, static_cast<size_t>(path.node.front()), key,
                            value);
      size_.FetchAdd(1);
      *chain_len = static_cast<uint32_t>(path.node.size());
      return InsertResult::kInserted;
    }
    // Stash tail. The root stripes have been held continuously since
    // ConcurrentTryPlace proved all-ones and nothing placed since, so the
    // kDisabled stash screen's precondition holds exactly as in the
    // single-writer path; the flags land on the held roots themselves.
    uint64_t expect_zero = 0;
    first_failure_items_.CompareExchange(expect_zero, ApproxTotalItems() + 1);
    ls.AcquireAux();
    SeqOpenAuxIn(ws);
    stash_.Insert(key, value);
    if (opts_.stash_kind == StashKind::kOffchip) {
      for (uint32_t t = 0; t < opts_.num_hashes; ++t) {
        ConcurrentSetFlag(ws, cand.idx[t]);
      }
    } else if (stash_.size() > opts_.onchip_stash_capacity) {
      forced_rehash_events_.FetchAdd(1);
    }
    return opts_.stash_enabled ? InsertResult::kStashed
                               : InsertResult::kFailed;
  }

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
    const std::array<uint64_t, kMaxHashes> b = family_.Buckets(key, &c.tag);
    for (uint32_t t = 0; t < opts_.num_hashes; ++t) {
      c.idx[t] = static_cast<size_t>(t) * opts_.buckets_per_table + b[t];
    }
    return c;
  }

  // --- batching stage 1: hash + prefetch ---------------------------------

  /// Hashes `n` keys through the family's batch entry point and issues
  /// prefetches for every candidate's counter word and bucket line. Pure
  /// hint stage: no AccessStats are charged (hashing is on-chip work and
  /// prefetches are not algorithmic reads).
  void StageCandidates(const Key* keys, size_t n, Candidates* cand,
                       bool for_write) const {
    std::array<std::array<uint64_t, kMaxHashes>, kBatchTile> buckets;
    std::array<uint8_t, kBatchTile> tags;
    family_.BucketsBatch(keys, n, buckets.data(), tags.data());
    const uint32_t d = opts_.num_hashes;
    for (size_t i = 0; i < n; ++i) {
      for (uint32_t t = 0; t < d; ++t) {
        cand[i].idx[t] = static_cast<size_t>(t) * opts_.buckets_per_table +
                         buckets[i][t];
      }
      cand[i].tag = tags[i];
    }
    // Counter words first: stage 2 consults them before any bucket, so
    // they have the shortest deadline.
    for (size_t i = 0; i < n; ++i) {
      for (uint32_t t = 0; t < d; ++t) counters_.Prefetch(cand[i].idx[t]);
    }
    for (size_t i = 0; i < n; ++i) {
      for (uint32_t t = 0; t < d; ++t) {
        if (for_write) {
          __builtin_prefetch(&table_[cand[i].idx[t]], 1, 3);
        } else {
          __builtin_prefetch(&table_[cand[i].idx[t]], 0, 1);
        }
      }
    }
  }

  /// Scalar Find body over precomputed candidates (shared by Find and the
  /// batched path; candidate computation itself is uncharged either way).
  /// `sink` receives the lookup metrics: the live TableMetrics for scalar
  /// calls, a stack-local LookupTally for batches (flushed once per batch).
  template <typename MetricsSink>
  bool FindImpl(const Key& key, const Candidates& cand, Value* out,
                MetricsSink& sink) const {
    auto* self = const_cast<McCuckooTable*>(this);
    CandidateView view;
    const int64_t idx = self->FindInMain(key, cand, out, &view);
    RecordLookupMetrics(sink, view);
    if (idx >= 0) return true;
    if (self->ShouldProbeStash(view)) {
      self->ChargeStashProbe();
      const bool hit = stash_.Find(key, out);
      sink.RecordStashProbe(hit);
      return hit;
    }
    return false;
  }

  /// Flushes one operation's stack-local probe tallies into the sink
  /// (one fused outcome cell plus at most d partition increments).
  template <typename MetricsSink>
  void RecordLookupMetrics(MetricsSink& sink, const CandidateView& v) const {
    if constexpr (kMetricsEnabled) {
      sink.RecordLookupOutcome(v.probes_total, v.hit_value);
      for (uint32_t val = 1; val <= v.d; ++val) {
        sink.RecordPartitionProbes(val, v.probes_by_value[val]);
      }
    }
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
    // All candidates hold sole copies: a real collision (§III.D).
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
    // The whole chain published at once: at no intermediate state was the
    // in-hand key absent from a stripe readers could have validated.
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

  /// Runs the growth policy against the post-insert occupancy and performs
  /// the rehash it asks for. Called with no stripes open (SeqFlush done):
  /// Rehash opens the aux stripe itself when the outer writer section does
  /// not already hold it, so optimistic readers stay correct whether the
  /// trigger fires inside a concurrent wrapper's Insert or a bare table.
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
      s = CanSplitInto(d)
              ? SplitGrow(d.new_buckets_per_table)
              : Rehash(d.new_buckets_per_table, growth_.NextSeed(opts_.seed));
    } catch (const std::bad_alloc&) {
      // Graceful degradation: the table is untouched (the rebuild never
      // reached its commit), inserts keep landing in the stash.
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

  // --- seqlock writer hooks ---------------------------------------------
  //
  // Every reader-visible mutation flows through the choke points below,
  // which mark the touched bucket's stripe as in-flight (odd). Stripes stay
  // odd across the *whole* operation — a kick chain's intermediate states
  // have the in-hand key in no bucket at all, so publishing per-store would
  // let an optimistic reader validate cleanly and miss a live key — and are
  // published together by SeqFlush() at each operation's consistent point.
  // All three are no-ops when no SeqlockArray is attached.

  void SeqOpen(size_t bucket_idx) {
    if (seq_ != nullptr) seq_open_.Open(*seq_, seq_->StripeOf(bucket_idx));
  }

  /// Opens the aux stripe covering state outside the bucket array (stash
  /// membership and size).
  void SeqOpenAux() {
    if (seq_ != nullptr) seq_open_.Open(*seq_, seq_->aux_stripe());
  }

  void SeqFlush() {
    if (seq_ != nullptr) seq_open_.CloseAll(*seq_);
  }

  // --- charged memory choke points --------------------------------------

  const Bucket& LoadBucket(size_t idx) {
    ++stats_->offchip_reads;
    return table_[idx];
  }

  void StoreBucket(size_t idx, const Key& key, const Value& value) {
    SeqOpen(idx);
    ++stats_->offchip_writes;
    Bucket& b = table_[idx];
    b.key = key;
    b.value = value;
    // stash_flag is sticky: preserved across occupant changes.
    // The fingerprint publishes inside the same seqlock window as the key
    // it describes; uncharged (software-layout state, see TagCounterArray).
    counters_.SetTag(idx, family_.TagOf(key));
  }

  void SetFlag(size_t idx) {
    SeqOpen(idx);
    ++stats_->offchip_writes;
    table_[idx].stash_flag = true;
  }

  // --- insertion ---------------------------------------------------------

  /// Applies insertion principles 1-3: fills empty candidates, then
  /// overwrites redundant copies in decreasing counter order while
  /// V >= placed + 2. Returns the number of copies placed (0 = collision).
  /// Updates counters of placed copies and of every displaced victim.
  uint32_t TryPlace(const Key& key, const Value& value,
                    const Candidates& cand) {
    const uint32_t d = opts_.num_hashes;
    std::array<uint64_t, kMaxHashes> cnt{};
    std::array<bool, kMaxHashes> taken{};
    for (uint32_t t = 0; t < d; ++t) {
      cnt[t] = counters_.Get(cand.idx[t]);
      // Tombstoned entries read as counter 0: "treated as zero for
      // insertion" (§III.B.3), so principle 1 recycles them transparently.
    }

    std::array<size_t, kMaxHashes> placed{};
    uint32_t n_placed = 0;

    // Principle 1: occupy all the empty candidate buckets.
    for (uint32_t t = 0; t < d; ++t) {
      if (cnt[t] == 0) {
        StoreBucket(cand.idx[t], key, value);
        placed[n_placed++] = cand.idx[t];
        taken[t] = true;
      }
    }

    // Principles 2+3: overwrite occupied candidates in decreasing counter
    // order while the victim keeps a lead of two copies; never touch value
    // 1. Counters are re-read each round: one insertion can displace two
    // copies of the *same* victim, whose counter drops in between.
    while (n_placed < d) {
      int best = -1;
      uint64_t best_v = 0;
      for (uint32_t t = 0; t < d; ++t) {
        if (taken[t]) continue;
        const uint64_t cur = counters_.Get(cand.idx[t]);
        if (cur > best_v) {
          best_v = cur;
          best = static_cast<int>(t);
        }
      }
      if (best < 0 || best_v < 2 || best_v < n_placed + 2) break;
      OverwriteRedundantCopy(cand.idx[best], best_v, key, value);
      placed[n_placed++] = cand.idx[best];
      taken[best] = true;
    }

    if (n_placed == 0) return 0;
    for (uint32_t i = 0; i < n_placed; ++i) {
      SeqOpen(placed[i]);
      counters_.Set(placed[i], n_placed);
    }
    redundant_writes_ += n_placed - 1;
    return n_placed;
  }

  /// Displaces the redundant copy at `victim_idx` (counter `v` >= 2) with
  /// (key, value), decrementing the victim item's other copies' counters.
  void OverwriteRedundantCopy(size_t victim_idx, uint64_t v, const Key& key,
                              const Value& value) {
    assert(v >= 2);
    const Key victim_key = LoadBucket(victim_idx).key;  // the Fig-10a read
    CopySet others = LocateOtherCopies(victim_key, victim_idx, v);
    for (uint32_t i = 0; i < others.count; ++i) {
      SeqOpen(others.idx[i]);
      counters_.Set(others.idx[i], v - 1);
    }
    StoreBucket(victim_idx, key, value);
  }

  /// Finds the v-1 buckets other than `known_idx` holding copies of `key`
  /// (whose counter value is `v`). All of them lie in the value-v partition
  /// of key's candidates; when the partition has exactly v members no reads
  /// are needed, otherwise members are read until the unread remainder must
  /// be the key's by pigeonhole.
  CopySet LocateOtherCopies(const Key& key, size_t known_idx, uint64_t v) {
    Candidates cand = ComputeCandidates(key);
    std::array<size_t, kMaxHashes> group{};
    uint32_t n_group = 0;
    for (uint32_t t = 0; t < opts_.num_hashes; ++t) {
      const size_t idx = cand.idx[t];
      if (idx == known_idx) continue;
      if (counters_.Get(idx) == v) group[n_group++] = idx;
    }
    const uint32_t need = static_cast<uint32_t>(v) - 1;
    assert(n_group >= need);

    CopySet out{};
    uint32_t confirmed = 0;
    for (uint32_t i = 0; i < n_group && confirmed < need; ++i) {
      const uint32_t unread = n_group - i;
      if (unread == need - confirmed) {
        // Pigeonhole: every remaining partition member must be a copy.
        for (uint32_t j = i; j < n_group; ++j) {
          out.idx[out.count++] = group[j];
          ++confirmed;
        }
        break;
      }
      if (LoadBucket(group[i]).key == key) {
        out.idx[out.count++] = group[i];
        ++confirmed;
      }
    }
    assert(confirmed == need);
    return out;
  }

  /// As LocateOtherCopies but includes `known_idx`, for erase/update.
  CopySet LocateAllCopies(const Key& key, size_t known_idx, uint64_t v) {
    CopySet out = LocateOtherCopies(key, known_idx, v);
    out.idx[out.count++] = known_idx;
    return out;
  }

  /// Shared insertion-failure tail: parks the in-hand item in the stash
  /// (flags set for the off-chip kind, forced-rehash accounting for the
  /// on-chip kind). The caller guarantees the item's candidates all hold
  /// sole copies — the all-ones precondition the kDisabled stash screen
  /// relies on — and records its own trace event.
  InsertResult StashOverflow(const Key& key, const Value& value) {
    if (first_failure_items_ == 0) first_failure_items_ = TotalItems() + 1;
    ChargeStashWrite();
    SeqOpenAux();
    stash_.Insert(key, value);
    spans_.RecordInstant(SpanKind::kStashSpill, stash_.size());
    if (opts_.stash_kind == StashKind::kOffchip) {
      Candidates cand = ComputeCandidates(key);
      for (uint32_t t = 0; t < opts_.num_hashes; ++t) SetFlag(cand.idx[t]);
    } else if (stash_.size() > opts_.onchip_stash_capacity) {
      ++forced_rehash_events_;  // a real CHS deployment would rehash here
    }
    return opts_.stash_enabled ? InsertResult::kStashed : InsertResult::kFailed;
  }

  /// Counter-guided random walk (§III.D): at each step, if the in-hand item
  /// has any empty or redundant candidate the counters reveal it and the
  /// chain ends immediately; otherwise a sole-copy occupant (never the
  /// bucket just written) is evicted per the configured policy — uniform
  /// random, MinCounter's coldest bucket, or bubbling's deterministic
  /// level cycle. On maxloop overrun the in-hand item gets one final
  /// placement attempt and is otherwise stashed — candidates provably all
  /// sole copies — with its flags set (§III.E).
  InsertResult RandomWalkInsert(Key key, Value value,
                                uint32_t* chain_len_out) {
    size_t exclude = kNoBucket;
    int32_t from_level = -1;  // bubbling: level the in-hand item left
    uint32_t chain = 0;
    KickChainEvent ev{};  // populated only when metrics are compiled in
    for (uint32_t loop = 0; loop < opts_.maxloop; ++loop) {
      Candidates cand = ComputeCandidates(key);
      if (loop > 0) {
        const uint32_t placed = TryPlace(key, value, cand);
        if (placed > 0) {
          ++size_;  // net effect of the whole chain: the original key is in
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
      // All candidates hold sole copies: evict per the configured policy,
      // avoiding the bucket we just wrote (no immediate ping-pong).
      const uint32_t t =
          opts_.eviction_policy == EvictionPolicy::kBubble
              ? PickBubbleVictim(cand.idx, opts_.num_hashes, exclude,
                                 from_level)
              : PickVictim(cand.idx, opts_.num_hashes, exclude, kick_history_,
                           rng_);
      const size_t idx = cand.idx[t];
      if constexpr (kMetricsEnabled) {
        if (chain < kMaxTraceSteps) {
          ev.step[chain] = KickStep{
              static_cast<uint64_t>(idx),
              static_cast<uint32_t>(counters_.PeekCounter(idx))};
        }
      }
      const Bucket& victim = LoadBucket(idx);
      Key vk = victim.key;
      Value vv = victim.value;
      StoreBucket(idx, key, value);
      // Counter stays 1: the bucket still holds a sole copy.
      ++stats_->kickouts;
      if (kick_history_.enabled()) kick_history_.Increment(idx);
      exclude = idx;
      from_level = static_cast<int32_t>(t);
      key = std::move(vk);
      value = std::move(vv);
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
    // Insertion failure: park the in-hand item in the stash.
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

  /// Counter-aware breadth-first search for the shortest eviction chain
  /// (§III.D crossed with [3]). Entered only when TryPlace placed nothing,
  /// which proves every candidate of the in-hand key holds a sole copy —
  /// so all roots are valid interior nodes. The search itself reads one
  /// off-chip bucket per expanded node (the occupant key, to compute its
  /// alternates) and otherwise steers entirely by the on-chip counters:
  ///
  ///   counter == 0  -> free terminal (empty or tombstoned bucket);
  ///   counter >= 2  -> redundant terminal: "evicting" the occupant is a
  ///                    pure counter decrement of its other copies — the
  ///                    multi-copy advantage that keeps chains short where
  ///                    the single-copy BFS must walk to a true hole;
  ///   counter == 1  -> interior node, children = occupant's alternates.
  ///
  /// On success the chain shifts backward terminal-first under open seqlock
  /// stripes (published by the caller's single SeqFlush). On failure the
  /// table is untouched — BfsFindPath mutates nothing — so the stash tail
  /// inherits the all-ones invariant directly from the TryPlace screen.
  InsertResult BfsInsert(const Key& key, const Value& value,
                         const Candidates& cand, uint32_t* chain_len_out,
                         uint32_t* nodes_out, uint32_t* budget_out) {
    const uint32_t d = opts_.num_hashes;
    std::array<uint64_t, kMaxHashes> roots{};
    for (uint32_t t = 0; t < d; ++t) roots[t] = cand.idx[t];
    *budget_out = bfs_throttle_.Budget(BfsNodeBudget(opts_.maxloop));
    const BfsPathResult path = BfsFindPath(
        roots.data(), d, *budget_out,
        [&](uint64_t id, auto&& emit, auto&& terminal) {
          const size_t bucket = static_cast<size_t>(id);
          const Key okey = LoadBucket(bucket).key;  // the one off-chip read
          const Candidates oc = ComputeCandidates(okey);
          for (uint32_t t = 0; t < d; ++t) {
            const size_t alt = oc.idx[t];
            if (alt == bucket) continue;
            const uint64_t c = counters_.Get(alt);
            if (c != 1) {
              terminal(alt);  // 0 = free, >= 2 = redundant copy
              return;
            }
            // The child will be expanded (one occupant read) a few
            // iterations from now: issuing the fetch here overlaps the
            // DRAM latency of the whole frontier instead of paying one
            // serial miss per expanded node.
            __builtin_prefetch(&table_[alt], 0, 1);
            emit(alt);
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
    // Apply the chain backward: the last interior occupant moves into the
    // terminal, each predecessor into its successor, and the new key lands
    // in the root. Every interior occupant is a sole copy (counter 1), so
    // moves are plain bucket stores; only the terminal changes counters.
    KickChainEvent ev{};
    size_t dst = static_cast<size_t>(path.terminal);
    const uint64_t term_v = counters_.PeekCounter(dst);
    for (size_t i = path.node.size(); i-- > 0;) {
      const size_t src = static_cast<size_t>(path.node[i]);
      const Bucket moved = table_[src];  // read during the search
      if (dst == static_cast<size_t>(path.terminal)) {
        if (term_v >= 2) {
          // Redundant terminal: displace one copy of the occupant, which
          // decrements its other copies' counters (zero relocations).
          OverwriteRedundantCopy(dst, term_v, moved.key, moved.value);
        } else {
          StoreBucket(dst, moved.key, moved.value);
        }
        SeqOpen(dst);
        counters_.Set(dst, 1);  // the moved item is a sole copy
      } else {
        StoreBucket(dst, moved.key, moved.value);
        // Counter stays 1: dst already held a sole copy.
      }
      ++stats_->kickouts;
      if (kick_history_.enabled()) kick_history_.Increment(src);
      if constexpr (kMetricsEnabled) {
        if (i < kMaxTraceSteps) {
          ev.step[i] = KickStep{
              static_cast<uint64_t>(src),
              static_cast<uint32_t>(counters_.PeekCounter(src))};
        }
      }
      dst = src;
    }
    StoreBucket(static_cast<size_t>(path.node.front()), key, value);
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

  // --- lookup ------------------------------------------------------------

  static uint32_t FindSlot(const CandidateView& view, int64_t idx) {
    for (uint32_t t = 0; t < view.d; ++t) {
      if (view.idx[t] == static_cast<size_t>(idx)) return t;
    }
    assert(false && "index not a candidate");
    return 0;
  }

  /// Main-table probe implementing the lookup principles, over precomputed
  /// candidates. Returns the global index where the key was found (its
  /// value copied to `out`), or -1 on a miss. Fills `*view` for the
  /// stash-screening decision.
  int64_t FindInMain(const Key& key, const Candidates& cand, Value* out,
                     CandidateView* view) {
    const uint32_t d = opts_.num_hashes;
    // One bulk charge equal to what the per-candidate model read: d counter
    // reads, doubled by the tombstone probe in kTombstone mode. The byte
    // peeks below are the same logical reads through the packed layout.
    counters_.ChargeReads(
        static_cast<uint64_t>(d) *
        (opts_.deletion_mode == DeletionMode::kTombstone ? 2 : 1));
    CandidateView& v = *view;
    v.d = d;
    bool any_zero = false;
    for (uint32_t t = 0; t < d; ++t) {
      v.idx[t] = cand.idx[t];
      v.counter[t] = counters_.PeekCounter(cand.idx[t]);
      v.tombstone[t] = (opts_.deletion_mode == DeletionMode::kTombstone) &&
                       counters_.PeekTombstone(cand.idx[t]);
      v.bucket_read[t] = false;
      v.flag_value[t] = false;
      if (v.counter[t] == 0 && !v.tombstone[t]) any_zero = true;
    }

    // Principle 1 (Bloom rule): sound whenever counters cannot silently
    // return to true zero, i.e. in kDisabled and kTombstone modes.
    if (opts_.lookup_pruning_enabled && any_zero &&
        opts_.deletion_mode != DeletionMode::kResetCounters) {
      return -1;
    }

    const uint8_t tag_nibble = cand.tag & 0x0Fu;
    auto probe = [&](uint32_t t, uint64_t value) -> bool {
      ++v.probes_total;
      ++v.probes_by_value[value <= kMaxHashes ? value : kMaxHashes];
      if (counters_.PeekTag(cand.idx[t]) != tag_nibble && stash_.empty()) {
        // The fingerprint proves the occupant is a different key, and with
        // the stash empty its flag can never matter — so skip the physical
        // DRAM touch while charging the read the paper's model performs
        // (its hardware has no tags; accounting stays bit-identical).
        ++stats_->offchip_reads;
        v.bucket_read[t] = true;
        v.flag_value[t] = false;
        return false;
      }
      const Bucket& b = LoadBucket(cand.idx[t]);
      v.bucket_read[t] = true;
      v.flag_value[t] = b.stash_flag;
      if (b.key == key) {
        if (out != nullptr) *out = b.value;
        v.hit_value = static_cast<int32_t>(value);
        return true;
      }
      return false;
    };

    if (!opts_.lookup_pruning_enabled) {
      for (uint32_t t = 0; t < d; ++t) {
        if (v.counter[t] == 0) continue;  // empty / tombstoned: no live copy
        if (probe(t, v.counter[t])) return static_cast<int64_t>(cand.idx[t]);
      }
      return -1;
    }

    // Principles 2+3: per-value partitions; skip impossible ones; probe at
    // most S - V + 1 members of the rest.
    for (uint64_t value = d; value >= 1; --value) {
      uint32_t members[kMaxHashes];
      uint32_t s = 0;
      for (uint32_t t = 0; t < d; ++t) {
        if (!v.tombstone[t] && v.counter[t] == value) members[s++] = t;
      }
      if (s < value) continue;  // impossible partition
      const uint32_t probes = s - static_cast<uint32_t>(value) + 1;
      for (uint32_t i = 0; i < probes; ++i) {
        if (probe(members[i], value)) {
          return static_cast<int64_t>(cand.idx[members[i]]);
        }
      }
    }
    return -1;
  }

  /// Decides whether a main-table miss warrants a stash probe (§III.E/F).
  bool ShouldProbeStash(const CandidateView& v) const {
    if (stash_.empty()) return false;  // stash size is an on-chip register
    if (opts_.stash_kind == StashKind::kOnchipChs) return true;  // free probe
    if (!opts_.stash_screen_enabled) return true;

    bool any_zero = false, any_gt1 = false;
    for (uint32_t t = 0; t < v.d; ++t) {
      if (v.counter[t] == 0 && !v.tombstone[t]) any_zero = true;
      if (v.counter[t] > 1) any_gt1 = true;
    }
    if (opts_.deletion_mode == DeletionMode::kDisabled) {
      // A stashed key saw all-ones counters, and without deletions a
      // counter can never fall back to 0 nor a sole copy gain copies.
      if (any_zero || any_gt1) return false;
      for (uint32_t t = 0; t < v.d; ++t) {
        if (v.bucket_read[t] && !v.flag_value[t]) return false;
      }
      return true;
    }
    if (opts_.deletion_mode == DeletionMode::kTombstone && any_zero) {
      // True zeros still prove "never inserted, never stashed".
      return false;
    }
    // Deletion-enabled: only the flags of buckets actually read are
    // trustworthy (§III.F); any 0 among them vetoes the probe.
    for (uint32_t t = 0; t < v.d; ++t) {
      if (v.bucket_read[t] && !v.flag_value[t]) return false;
    }
    return true;
  }

  /// Invokes `fn(key, value)` once per live key of the main table (stash
  /// excluded), in ascending order of the key's first bucket: the read-out
  /// Rehash and ForEachItem share (see read_out.h). Uncharged.
  template <typename Fn>
  void ForEachMainItem(Fn&& fn) const {
    ForEachDistinctOccupant(
        table_.size(), opts_.buckets_per_table, opts_.num_hashes,
        [this](size_t idx) -> uint64_t { return counters_.PeekCounter(idx); },
        [this](size_t idx, uint32_t t) {
          const Key& key = table_[idx].key;
          const Candidates cand = ComputeCandidates(key);
          for (uint32_t u = 0; u < t; ++u) {
            const size_t j = cand.idx[u];
            if (counters_.PeekCounter(j) > 0 && table_[j].key == key) {
              return true;
            }
          }
          return false;
        },
        [&](size_t idx) { fn(table_[idx].key, table_[idx].value); });
  }

  /// An empty table with `new_opts`' geometry and seed, built with growth
  /// disabled: a re-insertion overflow must not recursively rehash the
  /// table being built. CommitRehash restores the growth config.
  static McCuckooTable ScratchRebuild(TableOptions new_opts) {
    new_opts.growth.enabled = false;
    return McCuckooTable(new_opts);
  }

  /// Whether a growth decision can take the SplitGrow path. HashFamily maps
  /// a key with FastRange64(h_t(key), n), and h_t does not depend on n, so
  /// under the same seed FastRange64(h, k * n) lies in [k * b, k * b + k)
  /// for b = FastRange64(h, n): growing by an integer factor k sends every
  /// bucket's occupant to a bucket no other old bucket feeds.
  /// DoubleHashFamily's mod-n index has no such property. The split keeps
  /// each copy count but scatters a key's copies away from the buckets its
  /// other candidates' occupants move to, which leaves true-zero counters
  /// among a live key's candidates — sound only without the Bloom rule
  /// ("a zero candidate counter proves absence"), i.e. in kResetCounters.
  bool CanSplitInto(const GrowthDecision& d) const {
    return d.action == GrowthAction::kGrow &&
           std::is_same_v<Family, HashFamily<Key, Hasher>> &&
           opts_.deletion_mode == DeletionMode::kResetCounters &&
           d.new_buckets_per_table % opts_.buckets_per_table == 0;
  }

  /// Growth by bucket splitting (see CanSplitInto): walks the old and new
  /// arrays in order, moving each occupied bucket's key, value, counter
  /// and tag from bucket b of sub-table t to FastRange64(h_t(key), k * n)
  /// in the same sub-table, under the unchanged seed. Counters stay equal
  /// to live copy counts, since every copy of a key moves. Stash flags
  /// start clear; only the stash is re-inserted, so a key that is stashed
  /// again sets its flags afresh. Commits like Rehash.
  Status SplitGrow(uint64_t new_buckets_per_table) {
    const uint64_t t0 = MetricsNowNs();
    TableOptions new_opts = opts_;
    new_opts.buckets_per_table = new_buckets_per_table;
    if (Status s = new_opts.Validate(); !s.ok()) return s;
    McCuckooTable rebuilt = ScratchRebuild(new_opts);
    const uint64_t n = opts_.buckets_per_table;
    stats_->offchip_reads += table_.size();  // full scan of the old table
    for (uint32_t t = 0; t < opts_.num_hashes; ++t) {
      const size_t from_base = static_cast<size_t>(t) * n;
      const size_t to_base = static_cast<size_t>(t) * new_buckets_per_table;
      for (size_t from = from_base; from < from_base + n; ++from) {
        const uint64_t c = counters_.PeekCounter(from);
        if (c == 0) continue;
        const Bucket& b = table_[from];
        const size_t to = to_base + rebuilt.family_.Bucket(b.key, t);
        assert((to - to_base) / (new_buckets_per_table / n) ==
               from - from_base);
        Bucket& dst = rebuilt.table_[to];
        dst.key = b.key;
        dst.value = b.value;
        ++rebuilt.stats_->offchip_writes;
        rebuilt.counters_.Set(to, c);
        rebuilt.counters_.SetTag(to, counters_.PeekTag(from));
      }
    }
    rebuilt.size_ = size_.load();
    std::vector<Key> keys;
    std::vector<Value> values;
    keys.reserve(stash_.size());
    values.reserve(stash_.size());
    for (const auto& [k, v] : stash_.Items()) {
      ++stats_->offchip_reads;
      keys.push_back(k);
      values.push_back(v);
    }
    rebuilt.InsertBatch(keys, values);
    CommitRehash(std::move(rebuilt), t0, TotalItems());
    return Status::OK();
  }

  /// Commits a filled ScratchRebuild as this table: carries the lifetime
  /// counters, metrics, latency samples, span timeline, growth policy and
  /// rehash epoch across, and swaps storage under the aux stripe when a
  /// seqlock is attached. Shared by Rehash and SplitGrow.
  void CommitRehash(McCuckooTable&& rebuilt, uint64_t t0, size_t moved_items) {
    rebuilt.opts_.growth = opts_.growth;
    // Discard any degraded-state signal the growth-disabled rebuild
    // raised; the live policy re-evaluates pressure after the commit.
    rebuilt.metrics_->SetGrowthSuppressed(false);
    // Keep lifetime counters across the rebuild.
    rebuilt.redundant_writes_ += redundant_writes_;
    rebuilt.first_collision_items_ = first_collision_items_;
    rebuilt.first_failure_items_ = first_failure_items_;
    SeqlockArray* seq = seq_;
    if (seq == nullptr) {
      *rebuilt.stats_ += *stats_;
      rebuilt.metrics_->MergeFrom(*metrics_);
      // Latency samples and the span timeline describe this table's
      // lifetime too — carry them like the metrics (the scratch rebuild's
      // re-insertion samples fold in on top). The recorder object itself
      // survives the move: the Insert whose growth triggered this rehash
      // still records into it from its ScopedLatencySample.
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
      return;
    }
    // The attached version array survives the rebuild (its mask mapping is
    // size-independent); the swap itself reallocates every bucket, so it
    // runs under the aux stripe to invalidate in-flight optimistic reads.
    // The concurrent wrappers' exclusive sections already hold the aux
    // stripe open around the whole call; only open it here when no outer
    // writer does, so the stripe stays odd through the commit either way
    // (WriteBegin is a blind increment — double-opening would flip it even).
    const bool aux_held =
        SeqlockArray::IsWriting(seq->Version(seq->aux_stripe()));
    if (!aux_held) seq->WriteBegin(seq->aux_stripe());
    CommitRebuildLockFree(std::move(rebuilt));  // leaves seq_ untouched
    if (!aux_held) seq->WriteEnd(seq->aux_stripe());
    metrics_->RecordRehash(MetricsNowNs() - t0);
    spans_.Record(SpanKind::kRehash, t0, MetricsNowNs(), moved_items);
  }

  /// Commits a Rehash-rebuilt table while optimistic readers may be
  /// probing this one (caller holds the aux stripe odd). Reader-visible
  /// storage — buckets and counters — is exchanged pointer-wise, so a
  /// racing reader sees the old or the new buffer but never a transient
  /// moved-from state, and the replaced epoch is parked in retired_ so
  /// lagging readers keep dereferencing live memory. Everything else is
  /// either invisible to the optimistic probe or moves wholesale. The
  /// stats_/metrics_ heap objects stay identity-stable — a lagging reader
  /// flushes its tally through the pre-commit pointer after validation — so
  /// the rebuild's deltas are merged into them rather than replacing them.
  /// NOTE: keep in sync with the member list — a member missed here keeps
  /// its pre-rehash value.
  void CommitRebuildLockFree(McCuckooTable&& rebuilt) {
    table_.swap(rebuilt.table_);
    counters_.SwapStorage(rebuilt.counters_);
    retired_.push_back(RetiredStorage{std::move(rebuilt.table_),
                                      std::move(rebuilt.counters_)});
    opts_ = rebuilt.opts_;
    family_ = std::move(rebuilt.family_);
    *stats_ += *rebuilt.stats_;
    metrics_->MergeFrom(*rebuilt.metrics_);
    latency_->MergeFrom(*rebuilt.latency_);
    trace_ = std::move(rebuilt.trace_);
    // spans_ deliberately keeps this table's ring: it is a lifetime
    // timeline (the rehash span lands in it right after this commit);
    // the scratch rebuild's ring holds nothing worth keeping.
    kick_history_.AdoptStorage(std::move(rebuilt.kick_history_));
    stash_ = std::move(rebuilt.stash_);
    rng_ = std::move(rebuilt.rng_);
    // The rebuild just freed space, so any dead-end streak is stale.
    bfs_throttle_ = {};
    size_ = rebuilt.size_;
    first_collision_items_ = rebuilt.first_collision_items_;
    first_failure_items_ = rebuilt.first_failure_items_;
    redundant_writes_ = rebuilt.redundant_writes_;
    stale_stash_flag_keys_ = rebuilt.stale_stash_flag_keys_;
    forced_rehash_events_ = rebuilt.forced_rehash_events_;
    ++rehash_epoch_;
    // seq_, seq_open_, locks_, retired_ and growth_ deliberately keep this
    // table's values (the policy's backoff/reseed state spans rebuilds, and
    // the seqlock/lock-stripe attachments belong to the wrapper, not the
    // scratch rebuild).
  }

  TableOptions opts_;
  Family family_;
  std::vector<Bucket> table_;
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
  // reason as metrics_ (const read paths record through it, and lagging
  // optimistic readers must see a live object across Rehash commits).
  // The sample period is applied from opts_ in the constructor body.
  mutable std::unique_ptr<LatencyRecorder> latency_ =
      std::make_unique<LatencyRecorder>();
  TraceRecorder trace_;
  // Growth/rehash/dead-end/spill timeline (writer-exclusion threading
  // model, like trace_).
  SpanRecorder spans_;
  TagCounterArray counters_;
  KickHistory kick_history_;
  Stash<Key, Value> stash_;
  Xoshiro256 rng_;
  BfsThrottle bfs_throttle_;
  // Optimistic-read support: non-owning version array attached by the
  // concurrent wrapper (null in single-threaded use) and the set of
  // stripes the in-flight mutation holds odd until its SeqFlush().
  SeqlockArray* seq_ = nullptr;
  SeqlockWriterSet seq_open_;
  // Multi-writer support: non-owning striped writer-lock array attached by
  // the multi-writer wrapper (null in single-writer use). Congruent with
  // seq_ by construction (both size via SeqlockArray::StripesFor), so a
  // held lock stripe owns exactly one seqlock stripe's writer rights.
  LockStripeArray* locks_ = nullptr;
  // Storage epochs retired by Rehash while a seqlock was attached. Never
  // accessed again (the CounterArray's stats pointer inside is dangling by
  // design) — held only so lagging optimistic readers dereference live
  // memory; freed when the table is destroyed.
  struct RetiredStorage {
    std::vector<Bucket> table;
    TagCounterArray counters;
  };
  std::vector<RetiredStorage> retired_;

  // Lifetime counters. MovableAtomic so the concurrent paths can update
  // them with real RMWs while every single-writer use site keeps its plain
  // ++/+=/= spelling (non-RMW loads and stores, byte-identical codegen on
  // the hot single-writer paths).
  MovableAtomic<size_t> size_ = 0;
  MovableAtomic<uint64_t> first_collision_items_ = 0;
  MovableAtomic<uint64_t> first_failure_items_ = 0;
  MovableAtomic<uint64_t> redundant_writes_ = 0;
  MovableAtomic<uint64_t> stale_stash_flag_keys_ = 0;
  MovableAtomic<uint64_t> forced_rehash_events_ = 0;
  // Auto-growth engine: the policy state machine and the commit counter
  // the batched insert path uses to detect mid-batch geometry changes.
  // Both survive Rehash commits (see CommitRebuildLockFree).
  GrowthPolicy growth_;
  MovableAtomic<uint64_t> rehash_epoch_ = 0;
};

}  // namespace mccuckoo

#endif  // MCCUCKOO_CORE_MCCUCKOO_TABLE_H_
