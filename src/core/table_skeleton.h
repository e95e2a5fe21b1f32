// The skeleton both multi-copy tables share (McCuckoo and B-McCuckoo).
//
// The paper presents B-McCuckoo as the same ideas on an l-slot bucket
// layout (§III.G). Everything that does not depend on the layout lives
// here, once: the scalar and software-pipelined batch entry points, the
// seqlock-validated optimistic read path, the write protocol (Insert,
// InsertOrAssign, Erase and the stash tail, for one writer and for many),
// the striped-lock read fallback and growth hand-off, the stash screen
// (§III.E/F), Rehash and its commit, stash upkeep, the growth trigger,
// introspection, the invariant checks and the metrics wiring.
// McCuckooTable and BlockedMcCuckooTable derive from it through CRTP and
// supply only the layout steps, as private hooks the skeleton is a friend
// of:
//
//   RecordAt(slot)                  the record (.key/.value) in a slot
//   PrefetchCandidates(...)         layout prefetches (batch stage 1,
//                                   scalar writes)
//   ProbeMain<kCharged>(...)        the one main-table probe (§III.B.2,
//                                   Algorithm 2) behind every read form and
//                                   the writes; returns a ProbeResult
//   LocateAllCopies(ctx, key, cand, slot)  every copy of a key hit at
//                                   `slot`, as a copy set (.pos[], .count)
//   SlotIndex(pos)                  a copy set entry's global slot index
//   BucketOf(slot)                  the bucket holding a global slot
//   TryPlace / RandomWalkInsert / BfsInsert   insertion (Algorithm 1)
//   Grow(decision)                  optional; defaults to a full Rehash
//
// The write hooks take a writer context `ctx` (SoloWriter or
// StripedWriter, below): each layout's write engine is compiled once per
// context, and every step in which one writer and many writers differ is
// a context operation.
//
// plus the constants kName (message prefix), kTagMask (stored fingerprint
// bits) and the Storage struct: every buffer an optimistic reader may
// dereference, grouped so the Rehash commit swaps and retires it in one
// place. Every Storage holds `counters` and `flags`, the per-bucket stash
// flags (§III.E) in a BitArray outside the records, which the skeleton
// reads and writes itself (FlagAt, SetFlag, ClearStashFlags). Indices: a
// candidate is a global bucket index t * n + h_t(key); slot s of bucket b
// is slot index b * l + s (the bucket index itself when l = 1).

#ifndef MCCUCKOO_CORE_TABLE_SKELETON_H_
#define MCCUCKOO_CORE_TABLE_SKELETON_H_

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <span>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "src/common/bits.h"
#include "src/common/movable_atomic.h"
#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/core/config.h"
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

namespace mccuckoo {

static_assert(kMaxHashes + 1 <= kMetricsPartitions,
              "partition metric arrays must cover counter values 0..d");
static_assert(kMaxHashes <= LockStripeSet::kMaxOrdered,
              "a key's candidate stripes must fit one ordered acquisition");

template <typename Derived, typename Key, typename Value, typename Hasher>
class TableSkeleton {
 public:
  /// Exposed template parameters (used by wrappers/adapters).
  using KeyType = Key;
  using ValueType = Value;
  using HasherType = Hasher;

  /// Validating factory for untrusted configuration.
  static Result<Derived> Create(const TableOptions& options) {
    if (Status s = Derived::CheckOptions(options); !s.ok()) return s;
    return Derived(options);
  }

  // --- Core operations -------------------------------------------------

  /// Inserts a key assumed not to be present (the common case in the
  /// paper's workloads; duplicate keys corrupt the copy invariants — use
  /// InsertOrAssign when presence is unknown).
  InsertResult Insert(const Key& key, const Value& value) {
    ScopedLatencySample lat(latency_.get(), LatencyOp::kInsert);
    SoloWriter w(*this);
    return WriteWith(w, key, value, w.Stage(key), /*assign=*/false, nullptr,
                     lat.weight());
  }

  /// Looks `key` up; writes the value through `out` when found (out may be
  /// null). Mutates only the access statistics.
  bool Find(const Key& key, Value* out = nullptr) const {
    ScopedLatencySample lat(latency_.get(), LatencyOp::kFind);
    return FindWith<true>(key, ComputeCandidates(key), out, *metrics_);
  }

  /// Convenience wrapper over Find.
  bool Contains(const Key& key) const { return Find(key, nullptr); }

  // --- Batched operations (software-pipelined) ---------------------------
  //
  // A scalar lookup pays one dependent miss chain per key: hash -> counter
  // word -> candidate bucket. (A scalar write overlaps its misses instead:
  // it stages its own candidates, see StageWriteCandidates. Scalar reads
  // deliberately do not.) The batched variants break the chain in two
  // stages per tile of up to kBatchTile keys: stage 1 hashes every key and
  // prefetches all candidate buckets and their on-chip counter words
  // (PrefetchLine, which the optimizer cannot drop); stage 2 replays the
  // *unchanged* scalar per-key logic against now-warm lines. The
  // probe-skipping rules, stash screening, and AccessStats accounting are
  // bit-identical to a scalar loop over the same keys (differential-tested)
  // — prefetching only hides latency, it never reads for the algorithm.

  /// Internal pipeline depth: tiles bound the candidate scratch space and
  /// keep the prefetch distance within what outstanding-miss buffers cover.
  /// The bound is an L1 budget, not a miss-buffer one: a single-slot tile
  /// touches 2 lines per candidate (bucket + its counter word), so at d = 3
  /// a 64-key tile stages ~64 * 3 * 2 * 64B = 24 KB — most of a 32 KB L1d —
  /// and by the time stage 2 replays key 0 its lines have been evicted by
  /// keys 40+ (the batch64/batch32 load95 regression). 16 keys * 3
  /// candidates * 2 lines = 6 KB leaves room for the probe loop's own
  /// working set, and 48 outstanding prefetches still cover the ~10
  /// line-fill buffers of current cores. A blocked bucket spans l *
  /// sizeof(Slot) bytes, so larger tiles would overflow L1 sooner there.
  static constexpr size_t kBatchTile = 16;

  /// Batched lookup. For key i, found[i] is set and, on a hit, out[i]
  /// receives the value (out may be null; found must not be). Returns the
  /// number of keys found. Equivalent to calling Find per key, in order.
  size_t FindBatch(std::span<const Key> keys, Value* out, bool* found) const {
    return FindBatchWith<true>(keys, out, found);
  }

  /// Batched mutation-free lookup: equivalent to calling FindNoStats per
  /// key, in order.
  size_t FindBatchNoStats(std::span<const Key> keys, Value* out,
                          bool* found) const {
    return FindBatchWith<false>(keys, out, found);
  }

  /// Batched insertion of keys assumed not to be present; results[i] (when
  /// results is non-null) receives the per-key outcome. Equivalent to
  /// calling Insert per key, in order — kick-out chains and stash spills
  /// behave exactly as in the scalar path.
  void InsertBatch(std::span<const Key> keys, std::span<const Value> values,
                   InsertResult* results = nullptr) {
    ScopedLatencySample lat(latency_.get(), LatencyOp::kInsertBatch);
    assert(keys.size() == values.size());
    const uint32_t period = latency_->sample_period();
    std::array<Candidates, kBatchTile> cand;
    for (size_t base = 0; base < keys.size(); base += kBatchTile) {
      const size_t n = std::min(kBatchTile, keys.size() - base);
      StageCandidates(&keys[base], n, cand.data(), /*for_write=*/true);
      for (size_t i = 0; i < n; ++i) {
        const uint64_t epoch = rehash_epoch_;
        SoloWriter w(*this);
        const InsertResult r = WriteWith(
            w, keys[base + i], values[base + i], cand[i], /*assign=*/false,
            nullptr, BatchTimerWeight(base + i, keys.size(), period));
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

  /// Statistics-free const lookup: Find's probe and stash screen in their
  /// uncharged instantiation, so it performs no mutation whatsoever: many
  /// readers may call it at once while every writer is excluded (the
  /// paper's rwlock design, which bench/scaling.cc keeps as its
  /// reference). Not meant for experiments: it records no access counts.
  bool FindNoStats(const Key& key, Value* out = nullptr) const {
    return FindWith<false>(key, ComputeCandidates(key), out, *metrics_);
  }

  /// Inserts or, if the key exists (main table or stash), updates every
  /// copy of it in place. On kUpdated the replaced value is written through
  /// `previous` (when non-null); otherwise `*previous` is left untouched.
  InsertResult InsertOrAssign(const Key& key, const Value& value,
                              Value* previous = nullptr) {
    ScopedLatencySample lat(latency_.get(), LatencyOp::kInsert);
    SoloWriter w(*this);
    return WriteWith(w, key, value, w.Stage(key), /*assign=*/true, previous,
                     lat.weight());
  }

  /// Deletes `key` (§III.B.3, Algorithm 3): every copy's on-chip counter is
  /// reset or tombstoned, zero off-chip writes. Requires a deletion-enabled
  /// mode (aborts under kDisabled).
  bool Erase(const Key& key) {
    ScopedLatencySample lat(latency_.get(), LatencyOp::kErase);
    SoloWriter w(*this);
    return EraseWith(w, key);
  }

  // --- Multi-writer (striped-lock) operations ----------------------------
  //
  // The same protocol as Insert/InsertOrAssign/Erase, run by a
  // StripedWriter so that many writers mutate the table at once under the
  // writer locks of the attached SeqlockArray (see lock_stripes.h), which
  // are also their only exclusion against growth. The protocol, in brief:
  //
  //  * An operation computes its key's candidates at a recorded rehash
  //    epoch and BLOCK-acquires their stripes (sorted, deduplicated, known
  //    up front; ClaimCandidatesAtEpoch, which retries until the epoch is
  //    still current under the claims) plus, last, the aux stripe, which is
  //    globally maximal. Growth commits only under every stripe, so no
  //    rehash runs while an operation holds any. Everything discovered
  //    mid-operation (BFS chain nodes, the terminal, a displaced victim's
  //    other copies) is TRY-locked only; a failed try-lock releases the
  //    mid-op suffix and replans or restarts. Blocking acquisition in
  //    ascending order with no later blocking waits is deadlock-free by the
  //    classic ordering argument.
  //  * Every counter mutation happens under that bucket's stripe. Holding a
  //    stripe therefore pins its buckets' counters AND the copy-sets of the
  //    items in them: displacing a copy of item X requires try-locking all
  //    of X's other copies first, which a holder of any one of them blocks.
  //  * Eviction runs BFS regardless of the configured policy (the walk
  //    policies mutate mid-chain and lean on shared RNG/history state). The
  //    search reads racily and mutates nothing; the chain is then
  //    try-claimed and re-validated under the claims; the moves run
  //    terminal-first, and their only fallible step (claiming a redundant
  //    terminal occupant's other copies) fails before any mutation, so a
  //    failure replans cleanly.
  //  * Seqlock windows are opened in a stack-local SeqlockWriterSet and
  //    closed *before* the stripe locks are released: the next holder of a
  //    stripe owns its version cell again only after our odd window closed.
  //  * An insert's growth bookkeeping runs before the release
  //    (ConcurrentGrowthCheck).
  //  * No AccessStats are charged and no kick history is recorded
  //    (writer-exclusion structures); TableMetrics and the latency recorder
  //    are atomic and recorded normally. The stash, its span records and
  //    the span totals are written only under the aux stripe.

  /// Multi-writer Insert (assign = false; same contract: duplicates
  /// corrupt the copy invariants) and InsertOrAssign (assign = true, with
  /// `previous` as there; the candidate stripes stay held across the
  /// found/stash/insert decision, so the presence check cannot go stale).
  /// `*wants_growth` is set when the policy asks for a rehash/reseed, which
  /// the caller performs under full exclusivity via MaybeGrowExclusive().
  InsertResult ConcurrentWrite(const Key& key, const Value& value,
                               bool assign, Value* previous,
                               bool* wants_growth) {
    ScopedLatencySample lat(latency_.get(), LatencyOp::kInsert);
    StripedWriter w(*this);
    const InsertResult r = WriteWith(w, key, value, w.Stage(key), assign,
                                     previous, lat.weight());
    *wants_growth = w.wants_growth;
    return r;
  }

  /// Multi-writer Erase: all copies of the key lie among the held
  /// candidates, so locating them under the stripes is exact.
  bool ConcurrentErase(const Key& key) {
    ScopedLatencySample lat(latency_.get(), LatencyOp::kErase);
    StripedWriter w(*this);
    return EraseWith(w, key);
  }

  /// Striped-lock reader fallback of ShardedMcCuckoo's Find: takes the
  /// key's candidate stripes (blocking, ordered) instead of any table-wide
  /// lock, so a fallback read waits only for writers touching its own
  /// candidates. It claims them as the writers do
  /// (ClaimCandidatesAtEpoch).
  bool FindStriped(const Key& key, Value* out = nullptr) const {
    assert(seq_ != nullptr);
    ScopedLatencySample lat(latency_.get(), LatencyOp::kFind);
    Candidates cand;
    LockStripeSet ls(*seq_, metrics_.get());
    ClaimCandidatesAtEpoch(ls, key, &cand, /*for_write=*/false);
    Value tmp{};
    LookupTally tally;
    MainOutcome mo;
    {
      // Neighbouring buckets in the same cache lines may still be mutated
      // by writers holding *other* stripes.
      SeqlockReadCritical crit;
      mo = ProbeAndScreen<false>(key, cand, &tmp, tally);
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

  /// Runs the growth engine under full exclusivity: the caller holds the
  /// exclusive drain plus every lock stripe (LockStripeDrain). Re-decides
  /// from scratch, so if a competing writer already grew the table this is
  /// a no-op.
  void MaybeGrowExclusive() { MaybeGrow(); }

  // --- Optimistic (seqlock-validated) read path --------------------------

  /// Attaches (or, with null, detaches) the stripe array the concurrent
  /// wrapper owns. While attached, every mutation opens the stripes of the
  /// buckets it touches (odd version = in flight) and publishes them at its
  /// commit point, so TryFindOptimistic can run without any lock, and the
  /// multi-writer operations serialize on the array's writer locks.
  /// Single-threaded users never call this and pay only a null check per
  /// mutation choke point.
  void AttachSeqlock(SeqlockArray* seq) { seq_ = seq; }

  /// Sizing hint for the stripe array: one potential stripe per bucket.
  size_t seqlock_domain() const { return NumBuckets(); }

  /// Lock-free lookup attempt: records the versions of the candidate
  /// stripes (plus the aux stripe covering the stash), runs the
  /// statistics-free probe, and only reports kHit/kMiss if every recorded
  /// version was even and unchanged afterwards. Any writer overlap — or a
  /// probe that would need the stash — yields kContended and the caller
  /// retries or falls back to FindStriped. Requires an attached SeqlockArray
  /// and writers that open the stripes they touch.
  OptimisticResult TryFindOptimistic(const Key& key,
                                     Value* out = nullptr) const {
    // Each optimistic attempt is one latency sample candidate; a
    // contended attempt that gets retried or falls back to FindStriped
    // is timed as its own (short) attempt.
    ScopedLatencySample lat(latency_.get(), LatencyOp::kFind);
    bool hit = false;
    if (OptimisticFind<1>(&key, 1, out, &hit) < 0) {
      return OptimisticResult::kContended;
    }
    return hit ? OptimisticResult::kHit : OptimisticResult::kMiss;
  }

  /// All-or-nothing optimistic batch lookup over one tile (keys.size() <=
  /// kBatchTile): stages prefetches, records the versions of every touched
  /// stripe, probes all keys, then validates once. Returns the hit count
  /// with out/found filled, or -1 if any stripe was (or became) active or
  /// any key needed the stash — the caller retries or re-runs the tile per
  /// key through FindStriped.
  int64_t TryFindBatchOptimistic(std::span<const Key> keys, Value* out,
                                 bool* found) const {
    ScopedLatencySample lat(latency_.get(), LatencyOp::kFindBatch);
    return OptimisticFind<kBatchTile>(keys.data(), keys.size(), out, found);
  }

  // --- Rehash -------------------------------------------------------------

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
    // Full scan of the old table, one read per bucket.
    stats_->offchip_reads += NumBuckets();
    ForEachMainItem([&](const Key& k, const Value& v) {
      keys.push_back(k);
      values.push_back(v);
    });
    for (const auto& [k, v] : stash_.Items()) {
      ++stats_->offchip_reads;
      keys.push_back(k);
      values.push_back(v);
    }

    Derived rebuilt = ScratchRebuild(new_opts);
    rebuilt.InsertBatch(keys, values);
    CommitRehash(std::move(rebuilt), t0, keys.size());
    return Status::OK();
  }

  // --- Stash maintenance (§III.E/F) -------------------------------------

  /// Resets every stash flag and re-marks the candidates of the items
  /// currently stashed, re-synchronizing the screen after stash deletions
  /// (§III.F). Charges one off-chip write per flag actually changed.
  void RebuildStashFlags() {
    // Cleared and re-set flags publish together: a reader validating
    // between the clear and the re-mark would false-miss a stashed key.
    ClearStashFlags();
    SoloWriter w(*this);
    for (const auto& [k, v] : stash_.Items()) {
      (void)v;
      const Candidates cand = ComputeCandidates(k);
      for (uint32_t t = 0; t < opts_.num_hashes; ++t) {
        SetFlag(w, cand.bucket[t]);
      }
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

  /// Total slots (= buckets for the single-slot layout).
  uint64_t capacity() const { return opts_.capacity(); }

  /// Distinct-items-to-slots ratio, the paper's "load ratio".
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

  /// Clears the metrics, the latency samples and the span ring
  /// (AccessStats are separate; see ResetStats).
  void ResetMetrics() {
    metrics_->Reset();
    latency_->Reset();
    spans_.Clear();
  }

  /// Span timeline ring (growth/rehash/reseed/dead-end/spill events) —
  /// feed Events() to ExportChromeTrace for a chrome://tracing view.
  const SpanRecorder& spans() const { return spans_; }

  /// Sampled op-latency recorder (configure via
  /// TableOptions::latency_sample_period or set_sample_period).
  LatencyRecorder& latency() const { return *latency_; }

  /// Scans the table into an occupancy/counter heatmap at the requested
  /// region resolution (full-table scan; scrape-time cost only). Regions
  /// are runs of whole buckets; counter_values counts slots by counter
  /// value.
  HeatmapSnapshot Heatmap(size_t regions = 64) const {
    HeatmapSnapshot h;
    const size_t buckets = NumBuckets();
    const uint32_t l = opts_.slots_per_bucket;
    if (regions == 0) regions = 1;
    if (regions > buckets) regions = buckets;
    h.region_occupied.assign(regions, 0);
    h.region_slots.assign(regions, 0);
    h.total_buckets = buckets;
    h.total_slots = buckets * l;
    const size_t per_region = (buckets + regions - 1) / regions;
    for (size_t bucket = 0; bucket < buckets; ++bucket) {
      const size_t region = bucket / per_region;
      h.region_slots[region] += l;
      for (uint32_t s = 0; s < l; ++s) {
        const uint64_t c = counters().PeekCounter(bucket * l + s);
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
    return counters().counter_bytes() + kick_history_.memory_bytes();
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
    const Candidates cand = ComputeCandidates(key);
    const uint32_t l = opts_.slots_per_bucket;
    uint32_t copies = 0;
    for (uint32_t t = 0; t < opts_.num_hashes; ++t) {
      for (uint32_t s = 0; s < l; ++s) {
        const size_t idx = cand.bucket[t] * l + s;
        if (counters().PeekCounter(idx) > 0 &&
            derived().RecordAt(idx).key == key) {
          ++copies;
        }
      }
    }
    return copies;
  }

  /// Exhaustively checks the structural invariants (uncharged): every
  /// live slot's occupant hashes to that slot's bucket and carries its
  /// fingerprint; a key has at most one copy per bucket; all copies of a
  /// key are identical; every copy's counter equals the key's copy count;
  /// tombstones only exist in kTombstone mode and always carry a zero
  /// counter; size_ counts the distinct keys. One pass over the slots
  /// with no allocation: each occupied slot counts its key's copies among
  /// the key's own candidates, and the key is counted as distinct at its
  /// lowest-indexed copy.
  Status ValidateInvariants() const {
    const uint64_t nb = opts_.buckets_per_table;
    const uint32_t l = opts_.slots_per_bucket;
    const size_t slots = NumBuckets() * l;
    size_t distinct = 0;
    for (size_t idx = 0; idx < slots; ++idx) {
      const uint64_t c = counters().PeekCounter(idx);
      if (counters().PeekTombstone(idx)) {
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
      const auto& record = derived().RecordAt(idx);
      const size_t bucket = idx / l;
      const Candidates cand = ComputeCandidates(record.key);
      if (cand.bucket[bucket / nb] != bucket) {
        return Status::Internal("occupant does not hash to bucket at " +
                                std::to_string(idx));
      }
      // The probe screens rely on a fingerprint mismatch proving a
      // different key.
      if (counters().PeekTag(idx) != (cand.tag & Derived::kTagMask)) {
        return Status::Internal("stale fingerprint at " + std::to_string(idx));
      }
      uint64_t copies = 0;
      size_t first_copy = idx;
      for (uint32_t t = 0; t < opts_.num_hashes; ++t) {
        uint32_t in_bucket = 0;
        for (uint32_t s = 0; s < l; ++s) {
          const size_t other = cand.bucket[t] * l + s;
          if (counters().PeekCounter(other) == 0 ||
              !(derived().RecordAt(other).key == record.key)) {
            continue;
          }
          if (++in_bucket > 1) {
            return Status::Internal("two copies of one key in one bucket at " +
                                    std::to_string(other));
          }
          if (!(derived().RecordAt(other).value == record.value)) {
            return Status::Internal("diverged copy values at " +
                                    std::to_string(other));
          }
          first_copy = std::min(first_copy, other);
          ++copies;
        }
      }
      if (c != copies) {
        return Status::Internal("counter != copy count at " +
                                std::to_string(idx));
      }
      if (first_copy == idx) ++distinct;
    }
    if (distinct != size_) {
      return Status::Internal("size_ does not match live distinct keys: " +
                              std::to_string(size_) + " vs " +
                              std::to_string(distinct));
    }
    return Status::OK();
  }

  /// The deep check for tests, harnesses and benchmark end-of-run checks,
  /// in every build type: ValidateInvariants plus the stash-screen rule
  /// that every stashed key's candidate buckets carry the stash flag
  /// (flags may be stale-set — they are sticky by design — but never
  /// missing).
  Status CheckInvariants() const {
    if (Status s = ValidateInvariants(); !s.ok()) return s;
    if (opts_.stash_kind != StashKind::kOffchip) return Status::OK();
    const uint32_t l = opts_.slots_per_bucket;
    for (const auto& [k, v] : stash_.Items()) {
      (void)v;
      const Candidates cand = ComputeCandidates(k);
      for (uint32_t t = 0; t < opts_.num_hashes; ++t) {
        const size_t bucket = cand.bucket[t];
        if (!FlagAt(bucket)) {
          return Status::Internal(
              "stashed key lacks a candidate stash flag at bucket " +
              std::to_string(bucket));
        }
        // Without deletions the screen additionally relies on every
        // stashed key's candidate slots holding sole copies forever: the
        // key was stashed only after TryPlace saw all-ones, and a
        // counter-1 slot can never fall to 0 nor climb past 1 again.
        if (opts_.deletion_mode != DeletionMode::kDisabled) continue;
        for (uint32_t s = 0; s < l; ++s) {
          const uint64_t c = counters().PeekCounter(bucket * l + s);
          if (c != 1) {
            return Status::Internal(
                "stashed key candidate bucket " + std::to_string(bucket) +
                " slot " + std::to_string(s) + " has counter " +
                std::to_string(c) +
                " != 1 under kDisabled; the stash screen would veto lookups");
          }
        }
      }
    }
    return Status::OK();
  }

  /// Read-only view of the auto-growth state machine (tests/diagnostics).
  const GrowthPolicy& growth_policy() const { return growth_; }

  /// Completed rehash commits over this table's lifetime (manual and
  /// growth-triggered). Changes exactly when the geometry/seeds may have;
  /// batch paths use it to detect a mid-batch change.
  uint64_t rehash_epoch() const { return rehash_epoch_; }

 protected:
  /// The d global candidate bucket indices of a key (t * buckets_per_table
  /// + h_t(key); distinct across sub-tables by construction), plus the
  /// key's 8-bit fingerprint, derived in the same hashing pass.
  struct Candidates {
    std::array<size_t, kMaxHashes> bucket;
    uint8_t tag = 0;
  };

  /// What a layout's main-table probe (Derived::ProbeMain) found: the hit
  /// and its global slot index, and on a miss the three facts the stash
  /// screen (ShouldProbeStash) reads. The probe fills the two counter facts
  /// only on a miss that saw a non-empty stash (the screen needs them only
  /// then); the defaults veto nothing, so a screen that races a stash
  /// insert stays sound.
  struct ProbeResult {
    bool hit = false;
    size_t slot = 0;
    /// Every candidate slot holds a sole copy (counter 1).
    bool all_sole = true;
    /// Some candidate is truly empty: no occupant and no tombstone (for the
    /// blocked layout, a whole bucket).
    bool any_true_empty = false;
    /// Bit t: the probe read candidate t's bucket, whose stash flag is
    /// therefore free to consult.
    uint32_t read_mask = 0;
  };

  /// The metrics sink of the single-writer writes' probes, which record no
  /// lookup metrics.
  struct NoLookupMetrics {
    void RecordLookupOutcome(uint64_t, int32_t) {}
    void RecordPartitionProbes(uint32_t, uint64_t) {}
  };

  /// What a lookup's main-table probe plus stash screen concluded.
  /// kCheckStash means "miss in the buckets, and the stash screen could not
  /// rule the stash out": the locked paths probe the stash, the optimistic
  /// paths bail out instead (the stash's array must never be traversed
  /// concurrently with a writer).
  enum class MainOutcome : uint8_t { kHit, kMiss, kCheckStash };

  static constexpr size_t kNoBucket = static_cast<size_t>(-1);

  /// Everything but the layout storage, which the derived table builds
  /// after this (its counters charge into stats_). Aborts on options
  /// Derived::CheckOptions rejects, so Debug and Release builds agree on
  /// what direct construction with unsupported options does; Create()
  /// reports the same conditions as a Status.
  TableSkeleton(const TableOptions& options, uint64_t rng_salt)
      : opts_(options),
        family_(options.num_hashes, options.buckets_per_table, options.seed),
        rng_(SplitMix64(options.seed ^ rng_salt)),
        growth_(options.growth_enabled) {
    if (Status s = Derived::CheckOptions(options); !s.ok()) {
      std::fprintf(stderr, "%s: %s\n", Derived::kName, s.message().c_str());
      std::abort();
    }
    if (options.eviction_policy == EvictionPolicy::kMinCounter) {
      kick_history_ = KickHistory(
          static_cast<size_t>(options.num_hashes) * options.buckets_per_table,
          stats_.get());
    }
    latency_->set_sample_period(options.latency_sample_period);
  }

  Derived& derived() { return static_cast<Derived&>(*this); }
  const Derived& derived() const { return static_cast<const Derived&>(*this); }
  const auto& counters() const { return derived().mem_.counters; }
  auto& counters() { return derived().mem_.counters; }

  // --- The stash flags (§III.E) -------------------------------------------
  //
  // One bit per bucket in the Storage's BitArray. The paper keeps the flag
  // in the bucket's own off-chip word, and the charges model that: reading
  // a flag is free with the bucket read the stash screen already charged
  // (ShouldProbeStash reads only the probed buckets'), and setting or
  // clearing one costs one off-chip write. Physically the flags sit apart,
  // so a record stays its own size (16 B for 8-byte keys and values, never
  // straddling a cache line). Up to 64 buckets, owned by up to 64 stripes,
  // share one flag word: striped writers set bits with an atomic OR
  // (StripedWriter::SetBit), and reads are relaxed atomic loads.

  /// Bucket count of the live storage.
  size_t NumBuckets() const { return derived().mem_.flags.size(); }

  /// Bucket `bucket`'s stash flag.
  bool FlagAt(size_t bucket) const {
    return derived().mem_.flags.AtomicTest(bucket);
  }

  /// Sets bucket `bucket`'s stash flag: one off-chip write.
  template <typename Ctx>
  void SetFlag(Ctx& ctx, size_t bucket) {
    ctx.Open(bucket);
    ctx.Charge(&AccessStats::offchip_writes);
    ctx.SetBit(derived().mem_.flags, bucket);
  }

  /// Clears every set stash flag: a word-at-a-time scan of the set bits,
  /// one charged write per flag actually cleared.
  void ClearStashFlags() {
    BitArray& flags = derived().mem_.flags;
    flags.ForEachSetBit([&](size_t bucket) {
      SeqOpen(bucket);
      ++stats_->offchip_writes;
    });
    flags.ClearAll();
  }

  /// Charges one stash probe: an off-chip read for the paper's off-chip
  /// stash, an on-chip read for the classic CHS stash.
  void ChargeStashProbe() const {
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

  Candidates ComputeCandidates(const Key& key) const {
    Candidates c{};
    // Fused: the tag falls out of the hash evaluation the family already
    // does for the bucket indices.
    const std::array<uint64_t, kMaxHashes> b = family_.Buckets(key, &c.tag);
    for (uint32_t t = 0; t < opts_.num_hashes; ++t) {
      c.bucket[t] = static_cast<size_t>(t) * opts_.buckets_per_table + b[t];
    }
    return c;
  }

  /// The global candidate buckets of a key that occupies global bucket
  /// `own`: the entry of own's sub-table is `own` itself, the others are
  /// hashed (d - 1 evaluations, no fingerprint). The BFS expansions' entry
  /// point.
  std::array<size_t, kMaxHashes> AlternateBuckets(const Key& key,
                                                  size_t own) const {
    const uint64_t nb = opts_.buckets_per_table;
    const uint32_t own_t = static_cast<uint32_t>(own / nb);
    std::array<size_t, kMaxHashes> c{};
    for (uint32_t t = 0; t < opts_.num_hashes; ++t) {
      c[t] = t == own_t ? own
                        : static_cast<size_t>(t) * nb + family_.Bucket(key, t);
    }
    return c;
  }

  /// Batching stage 1: hashes `n` keys through the family's batch entry
  /// point, then lets the layout prefetch every candidate's counters and
  /// records. Pure hint stage: no AccessStats are charged (hashing is
  /// on-chip work and prefetches are not algorithmic reads).
  void StageCandidates(const Key* keys, size_t n, Candidates* cand,
                       bool for_write) const {
    std::array<std::array<uint64_t, kMaxHashes>, kBatchTile> buckets;
    std::array<uint8_t, kBatchTile> tags;
    family_.BucketsBatch(keys, n, buckets.data(), tags.data());
    const uint32_t d = opts_.num_hashes;
    for (size_t i = 0; i < n; ++i) {
      for (uint32_t t = 0; t < d; ++t) {
        cand[i].bucket[t] = static_cast<size_t>(t) * opts_.buckets_per_table +
                            buckets[i][t];
      }
      cand[i].tag = tags[i];
    }
    derived().PrefetchCandidates(cand, n, for_write);
  }

  /// A scalar write's candidates, with the lines the write will touch (the
  /// candidates' counters, and their buckets for writing) prefetched before
  /// the write takes a stripe lock or opens a seqlock window: the counter
  /// and bucket misses then overlap instead of running back to back. Every
  /// single-writer Insert, InsertOrAssign and Erase starts here (the
  /// multi-writer forms prefetch the same lines in RacyCandidates). Pure
  /// hint, like StageCandidates: nothing is read for the algorithm or
  /// charged. Scalar reads do not do this on purpose: the counter screen
  /// exists so a lookup can skip bucket reads, and prefetching every
  /// candidate bucket would turn those skipped reads into real off-chip
  /// traffic.
  Candidates StageWriteCandidates(const Key& key) const {
    const Candidates cand = ComputeCandidates(key);
    derived().PrefetchCandidates(&cand, 1, /*for_write=*/true);
    return cand;
  }

  /// Whether the stash is empty, read racily for the optimistic and
  /// striped paths: they either validate the aux stripe afterwards or hold
  /// stripes that pin their own key's stash membership.
  bool StashEmpty() const {
    SeqlockReadCritical crit;
    return stash_.empty();
  }

  /// The stash screen (§III.E/F), the only place its rules live: whether a
  /// main-table miss described by `p` must probe the stash. The mode table
  /// is docs/ALGORITHM.md §3: under kDisabled a stashed key's candidate
  /// slots all hold sole copies forever, so anything else vetoes; under
  /// kTombstone a truly empty candidate still proves "never inserted";
  /// and in every mode a clear flag on a candidate bucket the probe read
  /// vetoes, since a stashed key set all d of its flags. Flags are read
  /// last, and only with a non-empty stash. The stash itself is consulted
  /// only through empty(), so optimistic readers may screen a torn probe
  /// and discard the answer at validation.
  bool ShouldProbeStash(const ProbeResult& p, const Candidates& cand) const {
    if (StashEmpty()) return false;  // the size is an on-chip register
    if (opts_.stash_kind == StashKind::kOnchipChs) return true;  // free probe
    if (!opts_.stash_screen_enabled) return true;
    if (opts_.deletion_mode == DeletionMode::kDisabled && !p.all_sole) {
      return false;
    }
    if (opts_.deletion_mode == DeletionMode::kTombstone && p.any_true_empty) {
      return false;
    }
    for (uint32_t m = p.read_mask; m != 0; m &= m - 1) {
      if (!FlagAt(cand.bucket[__builtin_ctz(m)])) return false;
    }
    return true;
  }

  /// The main-table probe plus the stash screen: everything a lookup does
  /// except the stash probe itself. The uncharged instantiation is the
  /// optimistic readers' entry point, safe on torn reads (indices stay in
  /// range, the stash is only asked empty()).
  template <bool kCharged, typename MetricsSink>
  MainOutcome ProbeAndScreen(const Key& key, const Candidates& cand,
                             Value* out, MetricsSink& sink) const {
    const ProbeResult p =
        derived().template ProbeMain<kCharged>(key, cand, out, sink);
    if (p.hit) return MainOutcome::kHit;
    return ShouldProbeStash(p, cand) ? MainOutcome::kCheckStash
                                     : MainOutcome::kMiss;
  }

  /// One lookup over precomputed candidates: Find (kCharged) and
  /// FindNoStats, scalar and batched. `sink` is the live TableMetrics for
  /// scalar calls, a stack-local LookupTally for batches.
  template <bool kCharged, typename MetricsSink>
  bool FindWith(const Key& key, const Candidates& cand, Value* out,
                MetricsSink& sink) const {
    const MainOutcome mo = ProbeAndScreen<kCharged>(key, cand, out, sink);
    if (mo != MainOutcome::kCheckStash) return mo == MainOutcome::kHit;
    if constexpr (kCharged) ChargeStashProbe();
    const bool hit = stash_.Find(key, out);
    sink.RecordStashProbe(hit);
    return hit;
  }

  /// FindBatch (kCharged) and FindBatchNoStats: FindWith per key over
  /// staged tiles. Lookup metrics accumulate on the stack and publish once
  /// per batch: same totals as per-key recording, a fraction of the atomic
  /// RMWs.
  template <bool kCharged>
  size_t FindBatchWith(std::span<const Key> keys, Value* out,
                       bool* found) const {
    ScopedLatencySample lat(latency_.get(), LatencyOp::kFindBatch);
    size_t hits = 0;
    std::array<Candidates, kBatchTile> cand;
    LookupTally tally;
    for (size_t base = 0; base < keys.size(); base += kBatchTile) {
      const size_t n = std::min(kBatchTile, keys.size() - base);
      StageCandidates(&keys[base], n, cand.data(), /*for_write=*/false);
      for (size_t i = 0; i < n; ++i) {
        const bool hit = FindWith<kCharged>(
            keys[base + i], cand[i], out != nullptr ? &out[base + i] : nullptr,
            tally);
        if (found != nullptr) found[base + i] = hit;
        hits += hit ? 1 : 0;
      }
    }
    tally.FlushTo(*metrics_);
    return hits;
  }

  /// The candidates of keys[0, n) computed while a racing Rehash commit may
  /// be swapping the geometry and hash seeds: one key (kMaxKeys == 1) by
  /// ComputeCandidates, with its lines prefetched only `for_write` (see
  /// StageWriteCandidates), a tile by StageCandidates. Returns d, or 0 when
  /// a torn read produced an out-of-range index, which must not reach a
  /// probe: the caller retries or falls back. Storage a racing commit
  /// replaced stays dereferenceable regardless (see retired_).
  template <size_t kMaxKeys>
  uint32_t RacyCandidates(const Key* keys, size_t n, Candidates* cand,
                          bool for_write = false) const {
    assert(n <= kMaxKeys);
    SeqlockReadCritical crit;
    const uint32_t d = opts_.num_hashes;
    if constexpr (kMaxKeys == 1) {
      cand[0] = ComputeCandidates(keys[0]);
    } else {
      StageCandidates(keys, n, cand, /*for_write=*/false);
    }
    for (size_t i = 0; i < n; ++i) {
      for (uint32_t t = 0; t < d; ++t) {
        if (cand[i].bucket[t] >= NumBuckets()) return 0;
      }
    }
    if (for_write) derived().PrefetchCandidates(cand, n, /*for_write=*/true);
    return d;
  }

  /// How every striped operation starts: computes `key`'s candidates at a
  /// recorded rehash epoch (while a commit may be racing) and claims their
  /// stripes. A commit bumps the epoch before its drain lets go of the
  /// stripes, and the claims are acquire barriers, so an epoch still
  /// current under the claims proves the candidates current; a moved one
  /// releases them and computes again. Returns d.
  uint32_t ClaimCandidatesAtEpoch(LockStripeSet& ls, const Key& key,
                                  Candidates* cand, bool for_write) const {
    for (;;) {
      // The acquire pairs with the commit's release bump.
      const uint64_t epoch = rehash_epoch_.LoadAcquire();
      const uint32_t d = RacyCandidates<1>(&key, 1, cand, for_write);
      if (d == 0) continue;  // a torn mid-commit read
      AcquireCandidateStripes(ls, *cand, d);
      if (rehash_epoch_.load() == epoch) [[likely]] return d;
      DropStaleClaims(ls);
    }
  }

  /// ClaimCandidatesAtEpoch's retry path, kept out of line: inlined, the
  /// release and its tally flush cost one-thread B-McCuckoo updates about
  /// 5% in a same-binary A/B.
  [[gnu::cold, gnu::noinline]] static void DropStaleClaims(LockStripeSet& ls) {
    ls.ReleaseAll();
  }

  /// The optimistic read protocol, once for TryFindOptimistic (kMaxKeys ==
  /// 1) and a TryFindBatchOptimistic tile:
  ///   1. record the aux version (it covers the geometry and the stash);
  ///   2. compute the candidates under it, bounds-checked;
  ///   3. record every candidate stripe's version (a stripe recorded twice
  ///      is validated twice, harmlessly);
  ///   4. probe into locals;
  ///   5. validate;
  ///   6. only then publish the lookup tallies and the results, so neither
  ///      the outputs nor the shared metrics observe a failed attempt.
  /// Returns the hit count with found[i] (when non-null) and, on a hit,
  /// out[i] (when non-null) set; or -1 when a stripe was (or became)
  /// active, an index was torn, or a key needs the stash, whose array must
  /// not be traversed racily.
  template <size_t kMaxKeys>
  int64_t OptimisticFind(const Key* keys, size_t n_keys, Value* out,
                         bool* found) const {
    // Torn reads of a bucket during a racing write are discarded after
    // validation, but reading a partially-updated non-trivial type (e.g.
    // std::string mid-reallocation) would be UB before validation happens.
    static_assert(std::is_trivially_copyable_v<Key> &&
                      std::is_trivially_copyable_v<Value>,
                  "optimistic reads require trivially copyable Key and Value");
    assert(n_keys <= kMaxKeys);
    if (seq_ == nullptr) return -1;
    std::array<size_t, kMaxKeys * kMaxHashes + 1> stripes;
    std::array<uint32_t, kMaxKeys * kMaxHashes + 1> versions;
    size_t n = 0;
    const auto record = [&](size_t stripe) {
      stripes[n] = stripe;
      versions[n] = seq_->ReadBegin(stripe);
      return !SeqlockArray::IsWriting(versions[n++]);
    };
    if (!record(seq_->aux_stripe())) return -1;
    std::array<Candidates, kMaxKeys> cand;
    const uint32_t d = RacyCandidates<kMaxKeys>(keys, n_keys, cand.data());
    if (d == 0) return -1;
    for (size_t i = 0; i < n_keys; ++i) {
      for (uint32_t t = 0; t < d; ++t) {
        if (!record(seq_->StripeOf(cand[i].bucket[t]))) return -1;
      }
    }
    std::array<Value, kMaxKeys> vals{};
    std::array<bool, kMaxKeys> hit{};
    LookupTally tally;
    {
      SeqlockReadCritical crit;
      for (size_t i = 0; i < n_keys; ++i) {
        const MainOutcome mo =
            ProbeAndScreen<false>(keys[i], cand[i], &vals[i], tally);
        if (mo == MainOutcome::kCheckStash) return -1;
        hit[i] = mo == MainOutcome::kHit;
      }
    }
    if (!seq_->Validate(stripes.data(), versions.data(), n)) return -1;
    tally.FlushTo(*metrics_);
    int64_t hits = 0;
    for (size_t i = 0; i < n_keys; ++i) {
      if (found != nullptr) found[i] = hit[i];
      if (out != nullptr && hit[i]) out[i] = vals[i];
      hits += hit[i] ? 1 : 0;
    }
    return hits;
  }

  /// What a collision's eviction reports for the metrics and the growth
  /// policy: the chain length, and for BFS the nodes expanded and the
  /// node budget of the search.
  struct ChainStats {
    uint32_t len = 0;
    uint32_t nodes = 0;
    uint32_t budget = 0;
  };

  /// Insert (assign = false) and InsertOrAssign (assign = true) over staged
  /// candidates (ctx.Stage; a striped writer replaces them at every claim),
  /// for either writer context. InsertOrAssign updates every
  /// copy in place when the key exists (main table or stash) and inserts
  /// otherwise; on kUpdated the replaced value is written through
  /// `previous` (when non-null). The insert timer (insert_ns) runs only
  /// for a `timer_weight` other than 0 (the caller's sampling draw, see
  /// ScopedLatencySample::weight and BatchTimerWeight), and starts once
  /// the write is known to be an insert, so an update reads no clock.
  template <typename Ctx>
  InsertResult WriteWith(Ctx& ctx, const Key& key, const Value& value,
                         Candidates cand, bool assign, Value* previous,
                         uint32_t timer_weight) {
    uint64_t t0 = 0;  // set once, on the first timed placement attempt
    ChainStats chain;
    bool collided = false;
    InsertResult r;
    for (;;) {
      ctx.ClaimCandidates(key, cand);
      // Located again after every restart: another writer of the same key
      // may have inserted it meanwhile.
      if (assign && UpdateIfPresent(ctx, key, value, cand, previous)) {
        ctx.Finish();
        return InsertResult::kUpdated;
      }
      if (timer_weight != 0 && t0 == 0) t0 = MetricsNowNs();
      if (PlaceOrEvict(ctx, key, value, cand, &r, &collided, &chain)) break;
      // A redundant candidate's other copies are claimed by another
      // writer: back off completely (breaking hold-and-wait) and redo the
      // acquisition. Nothing was mutated.
      ctx.Restart();
    }
    // The whole chain published at once: at no intermediate state was the
    // in-hand key absent from a stripe readers could have validated.
    ctx.Publish();
    metrics_->RecordInsert(chain.len,
                           timer_weight != 0 ? MetricsNowNs() - t0 : 0,
                           timer_weight);
    if (collided) {
      const bool bfs = EvictsByBfs<Ctx>();
      metrics_->RecordPolicyChain(
          static_cast<uint32_t>(bfs ? EvictionPolicy::kBfs
                                    : opts_.eviction_policy),
          chain.len);
      if (bfs) metrics_->RecordBfsNodes(chain.nodes);
    }
    // Before the claims go: a striped writer reads the growth inputs under
    // its held stripes, so no rehash commits meanwhile.
    ctx.ObserveInsert(r != InsertResult::kInserted, chain);
    ctx.Finish();
    return r;
  }

  /// InsertOrAssign's update step, with the candidates claimed: rewrites
  /// the value of every copy of a present key, or of its stash entry.
  /// Returns false when the key is absent.
  template <typename Ctx>
  bool UpdateIfPresent(Ctx& ctx, const Key& key, const Value& value,
                       const Candidates& cand, Value* previous) {
    NoLookupMetrics none;
    ProbeResult p = derived().template ProbeMain<Ctx::kCharged>(
        key, cand, previous, none);
    if (p.hit) {
      const auto copies = derived().LocateAllCopies(ctx, key, cand, p.slot);
      for (uint32_t i = 0; i < copies.count; ++i) {
        // Value-only store: the copy's key, fingerprint and counter stay.
        const size_t slot = derived().SlotIndex(copies.pos[i]);
        ctx.Open(derived().BucketOf(slot));
        ctx.Charge(&AccessStats::offchip_writes);
        derived().RecordAt(slot).value = value;
      }
      return true;
    }
    p.read_mask = ctx.ScreenMask(p.read_mask);
    if (!ShouldProbeStash(p, cand)) return false;
    ctx.ClaimAux();
    ctx.ChargeStashProbe();
    const bool in_stash = stash_.Find(key, previous);
    metrics_->RecordStashProbe(in_stash);
    if (!in_stash) return false;
    ctx.ChargeStashWrite();
    ctx.OpenAux();
    stash_.Insert(key, value);
    return true;
  }

  /// Places an absent key with its candidates claimed: principles 1-3
  /// (TryPlace), else the eviction (§III.D) and its stash tail. Returns
  /// false, with nothing mutated, when the caller must restart: a
  /// candidate still holds a redundant copy whose victim could not be
  /// claimed (BFS and the stash screen both require all-ones candidates).
  template <typename Ctx>
  bool PlaceOrEvict(Ctx& ctx, const Key& key, const Value& value,
                    const Candidates& cand, InsertResult* r, bool* collided,
                    ChainStats* chain) {
    if (derived().TryPlace(ctx, key, value, cand) > 0) {
      ctx.Add(size_, size_t{1});
      *r = InsertResult::kInserted;
      return true;
    }
    if (!AllCandidatesSole(cand)) return false;
    // All candidates hold sole copies: a real collision (§III.D).
    *collided = true;
    ctx.SetOnce(first_collision_items_, ApproxTotalItems() + 1);
    *r = EvictsByBfs<Ctx>()
             ? derived().BfsInsert(ctx, key, value, cand, chain)
             : derived().RandomWalkInsert(ctx, key, value, &chain->len);
    return true;
  }

  /// The one place the writer contexts decide differently: striped writers
  /// evict by BFS whatever the configured policy.
  template <typename Ctx>
  bool EvictsByBfs() const {
    return Ctx::kBfsOnly || opts_.eviction_policy == EvictionPolicy::kBfs;
  }

  /// Erase for either writer context (see Erase).
  template <typename Ctx>
  bool EraseWith(Ctx& ctx, const Key& key) {
    Candidates cand = ctx.Stage(key);
    ctx.ClaimCandidates(key, cand);
    // Checked under the claims: a striped writer reads the options only
    // once no rehash can be committing them.
    if (opts_.deletion_mode == DeletionMode::kDisabled) {
      std::fprintf(stderr,
                   "%s::Erase called with DeletionMode::kDisabled; construct "
                   "the table with kResetCounters or kTombstone\n",
                   Derived::kName);
      std::abort();
    }
    NoLookupMetrics none;
    ProbeResult p = derived().template ProbeMain<Ctx::kCharged>(
        key, cand, nullptr, none);
    if (p.hit) {
      const auto copies = derived().LocateAllCopies(ctx, key, cand, p.slot);
      for (uint32_t i = 0; i < copies.count; ++i) {
        const size_t slot = derived().SlotIndex(copies.pos[i]);
        ctx.Open(derived().BucketOf(slot));
        if (opts_.deletion_mode == DeletionMode::kTombstone) {
          ctx.MarkDeleted(slot);
        } else {
          ctx.SetCounter(slot, 0);
        }
      }
      ctx.Sub(size_, size_t{1});
      ctx.Finish();
      metrics_->RecordErase();
      return true;
    }
    p.read_mask = ctx.ScreenMask(p.read_mask);
    if (!ShouldProbeStash(p, cand)) {
      ctx.Finish();
      return false;
    }
    ctx.ClaimAux();
    ctx.ChargeStashProbe();
    ctx.OpenAux();
    const bool hit = stash_.Erase(key);
    ctx.Finish();
    metrics_->RecordStashProbe(hit);
    if (!hit) return false;
    ctx.ChargeStashWrite();
    // Flags are Bloom-like and not cleared (§III.F); false positives
    // accumulate until RebuildStashFlags().
    ctx.Add(stale_stash_flag_keys_, uint64_t{1});
    metrics_->RecordErase();
    return true;
  }

  /// Claims every bucket of `alt` but `except`: a displaced victim's other
  /// candidates, which hold its other copies. Returns false, with those
  /// claims released, when one fails.
  template <typename Ctx>
  bool ClaimAlternates(Ctx& ctx, const std::array<size_t, kMaxHashes>& alt,
                       size_t except) const {
    const size_t mark = ctx.Mark();
    for (uint32_t t = 0; t < opts_.num_hashes; ++t) {
      if (alt[t] != except && !ctx.Claim(alt[t])) {
        ctx.Release(mark);
        return false;
      }
    }
    return true;
  }

  /// Every candidate slot holds a sole copy (counter 1): the state in
  /// which BFS may start and a key may be stashed.
  bool AllCandidatesSole(const Candidates& cand) const {
    const uint32_t l = opts_.slots_per_bucket;
    for (uint32_t t = 0; t < opts_.num_hashes; ++t) {
      for (uint32_t s = 0; s < l; ++s) {
        if (counters().PeekCounter(cand.bucket[t] * l + s) != 1) return false;
      }
    }
    return true;
  }

  /// Whether a racily planned BFS chain still holds under its claimed
  /// stripes, slot by slot: every interior slot holds a sole copy, and its
  /// occupant's alternates include the next hop's bucket (recomputed from
  /// the now-stable key).
  bool ChainHolds(const BfsPathResult& path) const {
    for (size_t i = 0; i < path.node.size(); ++i) {
      const size_t slot = static_cast<size_t>(path.node[i]);
      if (counters().PeekCounter(slot) != 1) return false;
      const uint64_t next =
          i + 1 < path.node.size() ? path.node[i + 1] : path.terminal;
      const std::array<size_t, kMaxHashes> alt = AlternateBuckets(
          derived().RecordAt(slot).key, derived().BucketOf(slot));
      bool linked = false;
      for (uint32_t t = 0; t < opts_.num_hashes; ++t) {
        linked = linked || alt[t] == derived().BucketOf(next);
      }
      if (!linked) return false;
    }
    return true;
  }

  /// Node budget for one striped BFS search. While the table's growth can
  /// still act (enabled and below its size cap), a search may expand all
  /// of maxloop nodes: with the kBfsMaxNodes cap, a table grown by
  /// SplitGrow (fewer redundant copies than a rebuilt one) stashes inserts
  /// from about 0.8 load, and the cache store answers each stashed insert
  /// with two pressure evictions. Once growth cannot act, searches keep
  /// the cap: at saturation a full budget makes every doomed insert pay
  /// maxloop occupant reads.
  uint32_t ConcurrentBfsBudget() const {
    const bool growth_can_act =
        opts_.growth_enabled &&
        opts_.buckets_per_table < kGrowthMaxBucketsPerTable;
    return growth_can_act ? opts_.maxloop : BfsNodeBudget(opts_.maxloop);
  }

  /// Blocking ordered acquisition of a key's `d` candidate stripes.
  void AcquireCandidateStripes(LockStripeSet& ls, const Candidates& cand,
                               uint32_t d) const {
    std::array<size_t, kMaxHashes> stripes;
    for (uint32_t t = 0; t < d; ++t) {
      stripes[t] = seq_->StripeOf(cand.bucket[t]);
    }
    ls.AcquireOrdered(stripes.data(), d);
  }

  /// Racy item-count estimates (annotated: the stash may be mutating).
  size_t ApproxStashSize() const {
    SeqlockReadCritical crit;
    return stash_.size();
  }
  size_t ApproxTotalItems() const { return size_.load() + ApproxStashSize(); }

  /// The growth policy's view of the table (exact under exclusion).
  GrowthInputs CurrentGrowthInputs() const {
    return {ApproxTotalItems(), opts_.capacity(), ApproxStashSize(),
            opts_.buckets_per_table};
  }

  /// Growth-policy bookkeeping for one concurrent insert, under its held
  /// stripes (so the geometry is current). An easy insert settles it with
  /// one relaxed bump (ObserveQuietInsert); any other serializes the policy
  /// on the aux stripe (the highest index: waiting on it is always legal),
  /// except with growth off, where it can only raise the gauge. True when
  /// the policy wants a rehash/reseed: the caller escalates to the drain.
  bool ConcurrentGrowthCheck(LockStripeSet& ls, bool overflowed,
                             const ChainStats& chain) {
    const bool hard = GrowthPolicy::IsHard(overflowed, chain.len,
                                           opts_.maxloop, chain.nodes,
                                           chain.budget);
    if (growth_.ObserveQuietInsert(hard, CurrentGrowthInputs())) return false;
    if (growth_.enabled()) ls.AcquireAux();
    growth_.ObserveInsert(overflowed, chain.len, opts_.maxloop, chain.nodes,
                          chain.budget);
    const GrowthDecision d = growth_.Decide(CurrentGrowthInputs());
    if (d.action == GrowthAction::kSuppressed) {
      metrics_->SetGrowthSuppressed(true);
      return false;
    }
    return d.action != GrowthAction::kNone;
  }

  /// Runs the growth policy against the post-insert occupancy and performs
  /// the rehash it asks for. Called with no stripes open (SeqFlush done):
  /// the commit opens the aux stripe itself when the outer writer section
  /// does not already hold it, so optimistic readers stay correct whether
  /// the trigger fires in ShardedMcCuckoo's growth escalation or a bare
  /// table's Insert.
  void MaybeGrow() {
    const GrowthDecision d = growth_.Decide(CurrentGrowthInputs());
    if (d.action == GrowthAction::kNone) return;
    if (d.action == GrowthAction::kSuppressed) {
      metrics_->SetGrowthSuppressed(true);
      return;
    }
    Status s;
    const uint64_t grow_t0 = MetricsNowNs();
    try {
      s = derived().Grow(d);
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

  /// The growth step MaybeGrow takes: a full Rehash under the policy's
  /// next seed. A derived table may hide this with a cheaper step.
  Status Grow(const GrowthDecision& d) {
    return Rehash(d.new_buckets_per_table, growth_.NextSeed(opts_.seed));
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

  void SeqOpen(size_t bucket) {
    if (seq_ != nullptr) seq_open_.Open(*seq_, seq_->StripeOf(bucket));
  }

  /// Opens the aux stripe covering state outside the bucket array (stash
  /// membership and size).
  void SeqOpenAux() {
    if (seq_ != nullptr) seq_open_.Open(*seq_, seq_->aux_stripe());
  }

  void SeqFlush() {
    if (seq_ != nullptr) seq_open_.CloseAll(*seq_);
  }

  /// Shared insertion-failure tail: parks the in-hand item in the stash
  /// (flags set on its candidates `cand` for the off-chip kind,
  /// forced-rehash accounting for the on-chip kind) and records the
  /// stash-spill span, after the BFS dead-end span when `dead_end`. The
  /// caller guarantees the item's candidate slots all hold sole copies: the
  /// all-ones precondition the kDisabled stash screen relies on. A striped
  /// writer holds the candidates' stripes, so the flags land on buckets it
  /// owns, and the aux stripe serializes the stash and the span ring.
  template <typename Ctx>
  InsertResult StashOverflow(Ctx& ctx, const Key& key, const Value& value,
                             const Candidates& cand, bool dead_end,
                             uint32_t nodes) {
    ctx.SetOnce(first_failure_items_, ApproxTotalItems() + 1);
    ctx.ClaimAux();
    if (dead_end) spans_.RecordInstant(SpanKind::kBfsDeadEnd, nodes);
    ctx.ChargeStashWrite();
    ctx.OpenAux();
    stash_.Insert(key, value);
    spans_.RecordInstant(SpanKind::kStashSpill, stash_.size());
    if (opts_.stash_kind == StashKind::kOffchip) {
      for (uint32_t t = 0; t < opts_.num_hashes; ++t) {
        SetFlag(ctx, cand.bucket[t]);
      }
    } else if (stash_.size() > kOnchipStashCapacity) {
      // A real CHS deployment would rehash here.
      ctx.Add(forced_rehash_events_, uint64_t{1});
    }
    return InsertResult::kStashed;
  }

  // --- Writer contexts ----------------------------------------------------
  //
  // The two contexts every write runs in. They expose the same operations,
  // and the write engines (the protocol above, each layout's TryPlace, copy
  // location and BfsInsert) are written against those operations only:
  //
  //   claims     Stage (candidates computed up front, by the solo writer
  //              only), ClaimCandidates, ClaimAux,
  //              Claim(bucket), ClaimChain(path) (claims the chain, then
  //              checks it with ChainHolds), Mark/Release (drop the claims
  //              made since a mark), Restart
  //   reads      Counter(counters, slot), Charge(field),
  //              ChargeStashProbe/Write, ScreenMask (which candidates' flags
  //              the stash screen reads)
  //   writes     Open/OpenAux (seqlock windows), SetCounter, MarkDeleted,
  //              SetTag, SetBit (a shared flag word), Add/Sub/SetOnce (the
  //              lifetime counters), Kick (kick-out accounting)
  //   eviction   BfsBudget, ObserveBfs, kChainAttempts, kBfsOnly
  //   finish     Publish (close the seqlock windows), ObserveInsert
  //              (growth; claims still held), Finish (publish and release)

  /// The single writer (§III.H): charges AccessStats exactly as the paper's
  /// model does, opens the member seq_open_, and every claim succeeds. It
  /// honours the configured eviction policy and the BfsThrottle.
  class SoloWriter {
   public:
    static constexpr bool kCharged = true;
    static constexpr bool kBfsOnly = false;
    static constexpr int kChainAttempts = 1;

    explicit SoloWriter(TableSkeleton& t) : t_(t), stats_(t.stats_.get()) {}

    Candidates Stage(const Key& key) const {
      return t_.StageWriteCandidates(key);
    }
    void ClaimCandidates(const Key&, Candidates&) {}
    void ClaimAux() {}
    bool Claim(size_t) { return true; }
    bool ClaimChain(const BfsPathResult&) { return true; }
    size_t Mark() const { return 0; }
    void Release(size_t) {}
    void Restart() {}

    template <typename Counters>
    static uint64_t Counter(const Counters& counters, size_t slot) {
      return counters.Get(slot);
    }
    void Charge(uint64_t AccessStats::* field) { ++(stats_->*field); }
    void ChargeStashProbe() { t_.ChargeStashProbe(); }
    void ChargeStashWrite() { t_.ChargeStashWrite(); }
    uint32_t ScreenMask(uint32_t probed) const { return probed; }

    void Open(size_t bucket) { t_.SeqOpen(bucket); }
    void OpenAux() { t_.SeqOpenAux(); }
    void SetCounter(size_t slot, uint64_t v) { t_.counters().Set(slot, v); }
    void MarkDeleted(size_t slot) { t_.counters().MarkDeleted(slot); }
    void SetTag(size_t slot, uint8_t tag) { t_.counters().SetTag(slot, tag); }
    void SetBit(BitArray& bits, size_t i) { bits.Set(i); }
    template <typename T>
    void Add(MovableAtomic<T>& c, std::type_identity_t<T> d) {
      c += d;
    }
    template <typename T>
    void Sub(MovableAtomic<T>& c, std::type_identity_t<T> d) {
      c += static_cast<T>(-d);
    }
    void SetOnce(MovableAtomic<uint64_t>& c, uint64_t v) {
      if (c == 0) c = v;
    }
    void Kick(size_t bucket) {
      ++t_.stats_->kickouts;
      if (t_.kick_history_.enabled()) t_.kick_history_.Increment(bucket);
    }

    uint32_t BfsBudget() {
      return t_.bfs_throttle_.Budget(BfsNodeBudget(t_.opts_.maxloop));
    }
    void ObserveBfs(bool found) { t_.bfs_throttle_.Observe(found); }

    void Publish() { t_.SeqFlush(); }
    void Finish() { t_.SeqFlush(); }
    void ObserveInsert(bool overflowed, const ChainStats& chain) {
      t_.growth_.ObserveInsert(overflowed, chain.len, t_.opts_.maxloop,
                               chain.nodes, chain.budget);
      t_.MaybeGrow();
    }

   private:
    TableSkeleton& t_;
    AccessStats* stats_;
  };

  /// One of many concurrent writers (see "Multi-writer operations"): holds
  /// a LockStripeSet and a stack-local SeqlockWriterSet, claims its
  /// candidates at the epoch it computed them in, try-claims victims and
  /// chain nodes, writes counters, tags and shared flag words with relaxed
  /// atomics, and charges nothing. It always evicts by BFS, with
  /// ConcurrentBfsBudget() and up to kChainAttempts searches (a contended
  /// or invalidated chain is planned again) before the stash.
  class StripedWriter {
   public:
    static constexpr bool kCharged = false;
    static constexpr bool kBfsOnly = true;
    static constexpr int kChainAttempts = 3;

    explicit StripedWriter(TableSkeleton& t)
        : t_(t), ls_(*t.seq_, t.metrics_.get()) {
      assert(t.seq_ != nullptr);
    }

    /// Nothing up front: the candidates are computed (and prefetched) at
    /// every claim, at an epoch the claim then proves current.
    Candidates Stage(const Key&) const { return {}; }
    void ClaimCandidates(const Key& key, Candidates& cand) {
      t_.ClaimCandidatesAtEpoch(ls_, key, &cand, /*for_write=*/true);
    }
    void ClaimAux() { ls_.AcquireAux(); }
    bool Claim(size_t bucket) {
      return ls_.TryAcquire(t_.seq_->StripeOf(bucket));
    }
    /// Try-claims nodes[1..] (node[0] is a held root) and the terminal,
    /// then re-validates the chain under the claims.
    bool ClaimChain(const BfsPathResult& path) {
      for (size_t i = 1; i < path.node.size(); ++i) {
        if (!ls_.TryAcquireChain(
                t_.seq_->StripeOf(t_.derived().BucketOf(path.node[i])))) {
          return false;
        }
      }
      return ls_.TryAcquireChain(
                 t_.seq_->StripeOf(t_.derived().BucketOf(path.terminal))) &&
             t_.ChainHolds(path);
    }
    size_t Mark() const { return ls_.held_count(); }
    void Release(size_t mark) { ls_.ReleaseSuffix(mark); }
    void Restart() {
      ls_.ReleaseAll();
      std::this_thread::yield();
    }

    template <typename Counters>
    static uint64_t Counter(const Counters& counters, size_t slot) {
      return counters.PeekCounter(slot);
    }
    void Charge(uint64_t AccessStats::*) {}
    void ChargeStashProbe() {}
    void ChargeStashWrite() {}
    /// Every candidate's flag is stable under the held stripes, so all d
    /// count as read: a stronger screen than the lookup's, still sound,
    /// since a stashed key set all d flags.
    uint32_t ScreenMask(uint32_t) const {
      return (1u << t_.opts_.num_hashes) - 1;
    }

    void Open(size_t bucket) { ws_.Open(*t_.seq_, t_.seq_->StripeOf(bucket)); }
    void OpenAux() { ws_.Open(*t_.seq_, t_.seq_->aux_stripe()); }
    void SetCounter(size_t slot, uint64_t v) {
      t_.counters().AtomicSet(slot, v);
    }
    void MarkDeleted(size_t slot) { t_.counters().AtomicMarkDeleted(slot); }
    void SetTag(size_t slot, uint8_t tag) {
      t_.counters().AtomicSetTag(slot, tag);
    }
    void SetBit(BitArray& bits, size_t i) { bits.AtomicSet(i); }
    template <typename T>
    void Add(MovableAtomic<T>& c, std::type_identity_t<T> d) {
      c.FetchAdd(d);
    }
    template <typename T>
    void Sub(MovableAtomic<T>& c, std::type_identity_t<T> d) {
      c.FetchSub(d);
    }
    void SetOnce(MovableAtomic<uint64_t>& c, uint64_t v) {
      uint64_t expect_zero = 0;
      c.CompareExchange(expect_zero, v);
    }
    void Kick(size_t) {}

    uint32_t BfsBudget() const { return t_.ConcurrentBfsBudget(); }
    void ObserveBfs(bool) {}

    void Publish() { ws_.CloseAll(*t_.seq_); }
    /// Publishes the seqlock windows, then releases the stripes, strictly
    /// in that order (see the section comment), and flushes the
    /// lock-contention tallies. Safe with nothing held or open.
    void Finish() {
      Publish();
      ls_.ReleaseAll();
    }
    void ObserveInsert(bool overflowed, const ChainStats& chain) {
      wants_growth = t_.ConcurrentGrowthCheck(ls_, overflowed, chain);
    }

    /// Set by ObserveInsert when the policy asks for growth.
    bool wants_growth = false;

   private:
    TableSkeleton& t_;
    LockStripeSet ls_;
    SeqlockWriterSet ws_;
  };

  /// Invokes `fn(key, value)` once per live key of the main table (stash
  /// excluded), in ascending order of the key's first slot: the read-out
  /// Rehash and ForEachItem share (see read_out.h). A key holds at most
  /// one slot per candidate bucket. Uncharged.
  template <typename Fn>
  void ForEachMainItem(Fn&& fn) const {
    const uint32_t l = opts_.slots_per_bucket;
    ForEachDistinctOccupant(
        NumBuckets() * l, opts_.buckets_per_table * l, opts_.num_hashes,
        [this](size_t idx) -> uint64_t { return counters().PeekCounter(idx); },
        [this, l](size_t idx, uint32_t t) {
          const Key& key = derived().RecordAt(idx).key;
          const Candidates cand = ComputeCandidates(key);
          for (uint32_t u = 0; u < t; ++u) {
            for (uint32_t s = 0; s < l; ++s) {
              const size_t j = cand.bucket[u] * l + s;
              if (counters().PeekCounter(j) > 0 &&
                  derived().RecordAt(j).key == key) {
                return true;
              }
            }
          }
          return false;
        },
        [&](size_t idx) {
          const auto& r = derived().RecordAt(idx);
          fn(r.key, r.value);
        });
  }

  /// An empty table with `new_opts`' geometry and seed, built with growth
  /// disabled: a re-insertion overflow must not recursively rehash the
  /// table being built. CommitRehash restores the growth switch.
  static Derived ScratchRebuild(TableOptions new_opts) {
    new_opts.growth_enabled = false;
    return Derived(new_opts);
  }

  /// Commits a filled ScratchRebuild as this table: carries the lifetime
  /// counters, metrics, latency samples, span timeline, growth policy and
  /// rehash epoch across. With a seqlock attached (the version array
  /// survives the rebuild: its mask mapping is size-independent), the swap
  /// runs under the aux stripe: it reallocates every bucket, so in-flight
  /// optimistic reads must fail validation. ShardedMcCuckoo's
  /// WithExclusiveShard already holds the aux stripe open around the whole
  /// call; it is opened here only when no outer writer does, so the stripe
  /// stays odd through the commit either way (WriteBegin is a blind
  /// increment — opening it twice would flip it even).
  void CommitRehash(Derived&& rebuilt, uint64_t t0, size_t moved_items) {
    SeqlockArray* seq = seq_;
    const bool open_aux =
        seq != nullptr &&
        !SeqlockArray::IsWriting(seq->Version(seq->aux_stripe()));
    if (open_aux) seq->WriteBegin(seq->aux_stripe());
    CommitRebuild(std::move(rebuilt));  // leaves seq_ untouched
    if (open_aux) seq->WriteEnd(seq->aux_stripe());
    metrics_->RecordRehash(MetricsNowNs() - t0);
    spans_.Record(SpanKind::kRehash, t0, MetricsNowNs(), moved_items);
  }

  /// Installs a rebuilt table in place, safe while optimistic readers may
  /// be probing this one (caller holds the aux stripe odd when a seqlock
  /// is attached). The reader-visible Storage is exchanged pointer-wise, so
  /// a racing reader sees the old or the new buffers but never a transient
  /// moved-from state. With a seqlock attached the replaced epoch is parked
  /// in retired_ so lagging readers keep dereferencing live memory; with
  /// none there are no such readers and it is freed at once. Everything
  /// else is either invisible to the optimistic probe or moves wholesale.
  /// The stats_/metrics_/latency_ heap objects stay identity-stable — a
  /// lagging reader flushes its tally through the pre-commit pointer after
  /// validation, and the Insert whose growth triggered the rehash still
  /// records into latency_ — so the rebuild's deltas are merged into them
  /// rather than replacing them. NOTE: keep in sync with the member list
  /// below — a member missed here keeps its pre-rehash value. The derived
  /// tables' own non-storage members (the resolved probe kernel) are
  /// deliberately kept: the rebuild resolves the same options to the same
  /// kernel.
  void CommitRebuild(Derived&& rebuilt) {
    using Storage = typename Derived::Storage;
    derived().mem_.Swap(rebuilt.mem_);
    auto old = std::make_unique<Storage>(std::move(rebuilt.mem_));
    if (seq_ != nullptr) {
      retired_.push_back(Retired(
          old.release(), [](void* p) { delete static_cast<Storage*>(p); }));
    }
    rebuilt.opts_.growth_enabled = opts_.growth_enabled;  // see ScratchRebuild
    opts_ = rebuilt.opts_;
    family_ = std::move(rebuilt.family_);
    *stats_ += *rebuilt.stats_;
    // Discard any degraded-state signal the growth-disabled rebuild
    // raised; the live policy re-evaluates pressure after the commit.
    rebuilt.metrics_->SetGrowthSuppressed(false);
    metrics_->MergeFrom(*rebuilt.metrics_);
    latency_->MergeFrom(*rebuilt.latency_);
    // spans_ deliberately keeps this table's ring: it is a lifetime
    // timeline (the rehash span lands in it right after this commit);
    // the scratch rebuild's ring holds nothing worth keeping.
    kick_history_.AdoptStorage(std::move(rebuilt.kick_history_));
    stash_ = std::move(rebuilt.stash_);
    rng_ = std::move(rebuilt.rng_);
    // The rebuild just freed space, so any dead-end streak is stale.
    bfs_throttle_ = {};
    size_ = rebuilt.size_;
    // first_collision_items_ and first_failure_items_ are lifetime
    // counters: the rebuild's re-insertions never set them here.
    redundant_writes_ += rebuilt.redundant_writes_;
    stale_stash_flag_keys_ = rebuilt.stale_stash_flag_keys_;
    forced_rehash_events_ = rebuilt.forced_rehash_events_;
    // A release store: a striped operation that loads the new epoch (with
    // acquire, before computing its candidates) sees everything above.
    rehash_epoch_.StoreRelease(rehash_epoch_ + 1);
    // seq_, seq_open_, retired_, spans_ and growth_ deliberately
    // keep this table's values (the policy's backoff/reseed state spans
    // rebuilds, and the seqlock attachment belongs to the wrapper, not the
    // scratch rebuild).
  }

  TableOptions opts_;
  HashFamily<Key, Hasher> family_;
  // Heap-allocated so the pointer handed to the counter store /
  // KickHistory stays valid when the table is moved (Rehash, snapshot
  // loading, factory returns).
  mutable std::unique_ptr<AccessStats> stats_ =
      std::make_unique<AccessStats>();
  // Same pattern for the metrics: atomics are immovable, the unique_ptr
  // keeps the table movable and lets const read paths record.
  mutable std::unique_ptr<TableMetrics> metrics_ =
      std::make_unique<TableMetrics>();
  // Sampled op-latency recorder: heap-held for the same identity-stability
  // reason as metrics_ (const read paths record through it, and lagging
  // optimistic readers must see a live object across Rehash commits).
  mutable std::unique_ptr<LatencyRecorder> latency_ =
      std::make_unique<LatencyRecorder>();
  // Growth/rehash/dead-end/spill timeline (writer-exclusion threading
  // model; see span_recorder.h).
  SpanRecorder spans_;
  KickHistory kick_history_;
  Stash<Key, Value> stash_;
  Xoshiro256 rng_;
  BfsThrottle bfs_throttle_;
  // Concurrency support: the non-owning stripe array (versions for the
  // optimistic readers, writer locks for the multi-writer operations)
  // attached by the concurrent wrapper, null in single-threaded use and
  // kept across Rehash commits; and the set of stripes the in-flight
  // single-writer mutation holds odd until its SeqFlush().
  SeqlockArray* seq_ = nullptr;
  SeqlockWriterSet seq_open_;
  // Storage epochs retired by Rehash while a seqlock was attached, each a
  // Derived::Storage (incomplete here, hence the type-erased owner). Never
  // accessed again (the counter store's stats pointer inside is dangling
  // by design) — held only so lagging optimistic readers dereference live
  // memory; freed when the table is destroyed.
  using Retired = std::unique_ptr<void, void (*)(void*)>;
  std::vector<Retired> retired_;

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
  // Both survive Rehash commits (see CommitRehash).
  GrowthPolicy growth_;
  MovableAtomic<uint64_t> rehash_epoch_ = 0;
};

}  // namespace mccuckoo

#endif  // MCCUCKOO_CORE_TABLE_SKELETON_H_
