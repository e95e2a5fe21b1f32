// Single-copy d-ary cuckoo hash table — both of the paper's baselines
// (§IV.A.3) in one class: the standard table ("Cuckoo") at
// slots_per_bucket l = 1, and the Blocked Cuckoo Hash Table [18] ("BCHT",
// 3-hash 3-slot in the experiments) at l > 1.
//
// Each key lives in exactly one slot of one of its d candidate buckets. The
// table has no on-chip helping structure, so every question about a bucket
// — does it have a free slot? does it hold the key? — costs one off-chip
// read; one bucket is fetched per access regardless of l ([33]), so a
// lookup costs at most d reads. The set-associativity inside a bucket
// absorbs most collisions at l > 1, pushing the achievable load well past
// 95%. The rest are resolved by a kick-out chain bounded by maxloop that
// evicts one slot of the chosen victim bucket (random walk, MinCounter or
// bubbling; BFS at l = 1 only). Overruns go to a stash (modeling the
// common CHS arrangement [22]) so that no key is ever lost, but without
// McCuckoo's counters every main-table miss must probe the stash.

#ifndef MCCUCKOO_BASELINE_CUCKOO_TABLE_H_
#define MCCUCKOO_BASELINE_CUCKOO_TABLE_H_

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdint>
#include <memory>
#include <cstdio>
#include <cstdlib>
#include <span>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/core/config.h"
#include "src/core/eviction.h"
#include "src/core/stash.h"
#include "src/hash/hash_family.h"
#include "src/mem/access_stats.h"
#include "src/obs/latency_recorder.h"
#include "src/obs/metrics.h"
#include "src/obs/span_recorder.h"

namespace mccuckoo {

/// Classic d-ary cuckoo hash table with l-slot buckets (l = 1: standard
/// cuckoo; l > 1: BCHT).
template <typename Key, typename Value, typename Hasher = BobHasher>
  requires SeedableHasher<Hasher, Key>
class CuckooTable {
 public:
  /// Exposed template parameters (used by wrappers/adapters).
  using KeyType = Key;
  using ValueType = Value;
  using HasherType = Hasher;

  /// One off-chip record slot. `occupied` models the valid bit stored with
  /// the record; reading it requires reading the bucket.
  struct Slot {
    Key key{};
    Value value{};
    bool occupied = false;
  };

  /// The configuration conditions Create() reports as Status. The
  /// constructor enforces the same conditions with an unconditional abort,
  /// so Debug and Release builds agree on what direct construction with
  /// unsupported options does.
  static Status CheckOptions(const TableOptions& options) {
    if (Status s = options.Validate(); !s.ok()) return s;
    if (options.slots_per_bucket > 1 &&
        options.eviction_policy == EvictionPolicy::kBfs) {
      return Status::InvalidArgument(
          "CuckooTable supports BFS eviction only at slots_per_bucket = 1; "
          "use McCuckooTable or BlockedMcCuckooTable");
    }
    return Status::OK();
  }

  /// Constructs a table; `options` must satisfy CheckOptions() (aborts
  /// otherwise — use Create() for untrusted configuration).
  explicit CuckooTable(const TableOptions& options)
      : opts_(options),
        family_(options.num_hashes, options.buckets_per_table, options.seed),
        slots_(options.capacity()),
        rng_(SplitMix64(options.seed ^ (options.slots_per_bucket == 1
                                            ? kSingleSlotRngSalt
                                            : kBlockedRngSalt))) {
    if (Status s = CheckOptions(options); !s.ok()) {
      std::fprintf(stderr, "CuckooTable: %s\n", s.message().c_str());
      std::abort();
    }
    if (options.eviction_policy == EvictionPolicy::kMinCounter) {
      kick_history_ = KickHistory(NumBuckets(), options.kick_counter_bits,
                                  stats_.get());
    }
    latency_->set_sample_period(options.latency_sample_period);
  }

  /// Validating factory for untrusted configuration.
  static Result<CuckooTable> Create(const TableOptions& options) {
    if (Status s = CheckOptions(options); !s.ok()) return s;
    return CuckooTable(options);
  }

  // --- Core operations ---------------------------------------------------

  /// Inserts a key assumed not to be present.
  InsertResult Insert(Key key, Value value) {
    ScopedLatencySample lat(latency_.get(), LatencyOp::kInsert);
    const std::array<size_t, kMaxHashes> cand = Candidates(key);
    return InsertWithCandidates(std::move(key), std::move(value), cand);
  }

  /// Inserts or updates the single copy of an existing key.
  InsertResult InsertOrAssign(const Key& key, const Value& value) {
    const int64_t idx = FindInMain(key, Candidates(key), nullptr);
    if (idx >= 0) {
      StoreSlot(static_cast<size_t>(idx), key, value);
      return InsertResult::kUpdated;
    }
    if (!stash_.empty()) {
      ChargeStashProbe();
      const bool in_stash = stash_.Find(key, nullptr);
      metrics_->RecordStashProbe(in_stash);
      if (in_stash) {
        ChargeStashWrite();
        stash_.Insert(key, value);
        return InsertResult::kUpdated;
      }
    }
    return Insert(key, value);
  }

  /// Looks `key` up (candidate buckets in order, then the stash on a miss).
  bool Find(const Key& key, Value* out = nullptr) const {
    ScopedLatencySample lat(latency_.get(), LatencyOp::kFind);
    return FindImpl(key, Candidates(key), out);
  }

  bool Contains(const Key& key) const { return Find(key, nullptr); }

  // --- Batched operations --------------------------------------------------
  //
  // Software-pipelined equivalents of the scalar operations: stage 1 hashes
  // a tile of keys and prefetches every candidate bucket's slot range;
  // stage 2 replays the unchanged scalar logic against the warm lines.
  // Results and AccessStats are identical to the scalar loop by
  // construction.

  /// Internal tile width for the batched paths. Capped so one tile's
  /// staged state plus touched buckets fits in L1d (see the derivation on
  /// McCuckooTable::kBatchTile); 64 overflowed it and lost ~25% on load95.
  static constexpr size_t kBatchTile = 16;

  /// Batched Find: out[i]/found[i] mirror Find(keys[i], &out[i]).
  /// Returns the number of hits. `out` may be nullptr.
  size_t FindBatch(std::span<const Key> keys, Value* out, bool* found) const {
    ScopedLatencySample lat(latency_.get(), LatencyOp::kFindBatch);
    size_t hits = 0;
    std::array<std::array<size_t, kMaxHashes>, kBatchTile> cand;
    for (size_t base = 0; base < keys.size(); base += kBatchTile) {
      const size_t n = std::min(kBatchTile, keys.size() - base);
      StageCandidates(&keys[base], n, cand.data(), /*for_write=*/false);
      for (size_t i = 0; i < n; ++i) {
        const bool hit = FindImpl(keys[base + i], cand[i],
                                  out != nullptr ? &out[base + i] : nullptr);
        if (found != nullptr) found[base + i] = hit;
        hits += hit ? 1 : 0;
      }
    }
    return hits;
  }

  /// Batched Contains: found[i] = Contains(keys[i]). Returns the hit count.
  size_t ContainsBatch(std::span<const Key> keys, bool* found) const {
    return FindBatch(keys, nullptr, found);
  }

  /// Batched Insert of keys assumed not present. results[i] (optional)
  /// receives the InsertResult for keys[i].
  void InsertBatch(std::span<const Key> keys, std::span<const Value> values,
                   InsertResult* results = nullptr) {
    ScopedLatencySample lat(latency_.get(), LatencyOp::kInsertBatch);
    assert(keys.size() == values.size());
    std::array<std::array<size_t, kMaxHashes>, kBatchTile> cand;
    for (size_t base = 0; base < keys.size(); base += kBatchTile) {
      const size_t n = std::min(kBatchTile, keys.size() - base);
      StageCandidates(&keys[base], n, cand.data(), /*for_write=*/true);
      for (size_t i = 0; i < n; ++i) {
        const InsertResult r =
            InsertWithCandidates(keys[base + i], values[base + i], cand[i]);
        if (results != nullptr) results[base + i] = r;
      }
    }
  }

  /// Deletes `key`: one off-chip write to clear the slot's valid bit.
  bool Erase(const Key& key) {
    ScopedLatencySample lat(latency_.get(), LatencyOp::kErase);
    const int64_t idx = FindInMain(key, Candidates(key), nullptr);
    if (idx >= 0) {
      slots_[static_cast<size_t>(idx)].occupied = false;
      ++stats_->offchip_writes;
      --size_;
      metrics_->RecordErase();
      return true;
    }
    if (!stash_.empty()) {
      ChargeStashProbe();
      const bool hit = stash_.Erase(key);
      metrics_->RecordStashProbe(hit);
      if (hit) {
        ChargeStashWrite();
        metrics_->RecordErase();
        return true;
      }
    }
    return false;
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
  /// (all zeros under -DMCCUCKOO_NO_METRICS). Partition metrics use slot 0:
  /// the baseline has no counter partitions.
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

  /// Clears the metrics, the latency samples and the span ring.
  void ResetMetrics() {
    metrics_->Reset();
    latency_->Reset();
    spans_.Clear();
  }

  /// Sampled op-latency recorder.
  LatencyRecorder& latency() const { return *latency_; }

  /// Span ring: the BFS dead ends and stash spills (the baseline has no
  /// growth or rehash).
  const SpanRecorder& spans() const { return spans_; }

  uint64_t first_collision_items() const { return first_collision_items_; }
  uint64_t first_failure_items() const { return first_failure_items_; }

  /// Times the CHS on-chip stash exceeded its capacity — forced-rehash
  /// events in a real deployment (§II.B).
  uint64_t forced_rehash_events() const { return forced_rehash_events_; }

  /// No on-chip helping structure (MinCounter's kick history when active).
  size_t onchip_memory_bytes() const { return kick_history_.memory_bytes(); }

  /// Invokes `fn(key, value)` once per live key (main table in slot order,
  /// then the stash). Uncharged maintenance/snapshot path.
  template <typename Fn>
  void ForEachItem(Fn&& fn) const {
    for (const Slot& s : slots_) {
      if (s.occupied) fn(s.key, s.value);
    }
    for (const auto& [k, v] : stash_.Items()) fn(k, v);
  }

  /// Structural check (uncharged; testing): occupants hash to their bucket
  /// and size_ matches the number of occupied slots.
  Status ValidateInvariants() const {
    size_t live = 0;
    const uint64_t nb = opts_.buckets_per_table;
    for (size_t idx = 0; idx < slots_.size(); ++idx) {
      if (!slots_[idx].occupied) continue;
      ++live;
      const size_t bucket = idx / opts_.slots_per_bucket;
      const uint32_t t = static_cast<uint32_t>(bucket / nb);
      if (family_.Bucket(slots_[idx].key, t) != bucket % nb) {
        return Status::Internal("occupant does not hash to bucket " +
                                std::to_string(idx));
      }
    }
    if (live != size_) {
      return Status::Internal("size_ mismatch: " + std::to_string(size_) +
                              " vs " + std::to_string(live));
    }
    return Status::OK();
  }

 private:
  // Walk RNG salts, one per layout: each layout keeps the stream its
  // paper outputs (bench/golden) were recorded with.
  static constexpr uint64_t kSingleSlotRngSalt = 0x1234ABCD5678EF00ull;
  static constexpr uint64_t kBlockedRngSalt = 0xBC47BC47BC47BC47ull;

  static constexpr size_t kNoBucket = static_cast<size_t>(-1);

  /// Charges one stash probe (off-chip read, or free-ish on-chip read for
  /// the classic CHS stash).
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

  size_t NumBuckets() const {
    return static_cast<size_t>(opts_.num_hashes) * opts_.buckets_per_table;
  }

  size_t SlotIndex(size_t bucket, uint32_t slot) const {
    return bucket * opts_.slots_per_bucket + slot;
  }

  /// Scan order for the free-slot scans: bubbling places fresh and
  /// displaced items as *high* (largest sub-table index) as possible,
  /// reserving headroom in the low levels for the items its eviction cycle
  /// sweeps upward (arXiv 2501.02312); every other policy scans in table
  /// order. Returns the t-th candidate to try at scan position `i`.
  uint32_t ScanLevel(uint32_t i) const {
    return opts_.eviction_policy == EvictionPolicy::kBubble
               ? opts_.num_hashes - 1 - i
               : i;
  }

  /// Reads bucket `bucket` (one off-chip access) and returns a free slot
  /// index within it, or -1 if the bucket is full.
  int FreeSlotIn(size_t bucket) {
    ++stats_->offchip_reads;
    for (uint32_t s = 0; s < opts_.slots_per_bucket; ++s) {
      if (!slots_[SlotIndex(bucket, s)].occupied) return static_cast<int>(s);
    }
    return -1;
  }

  /// Writes the record at global slot index `idx` and sets its valid bit.
  void StoreSlot(size_t idx, const Key& key, const Value& value) {
    ++stats_->offchip_writes;
    Slot& s = slots_[idx];
    s.key = key;
    s.value = value;
    s.occupied = true;
  }

  /// Reads the candidates in scan order, skipping `exclude` (the bucket the
  /// item in hand was just evicted from), and stores the item in the first
  /// free slot found. Returns false when every scanned bucket is full.
  bool TryPlace(const Key& key, const Value& value,
                const std::array<size_t, kMaxHashes>& cand, size_t exclude) {
    for (uint32_t i = 0; i < opts_.num_hashes; ++i) {
      const uint32_t t = ScanLevel(i);
      if (cand[t] == exclude) continue;
      const int slot = FreeSlotIn(cand[t]);
      if (slot >= 0) {
        StoreSlot(SlotIndex(cand[t], static_cast<uint32_t>(slot)), key, value);
        ++size_;
        return true;
      }
    }
    return false;
  }

  /// Scalar Insert body operating on precomputed candidates.
  InsertResult InsertWithCandidates(Key key, Value value,
                                    const std::array<size_t, kMaxHashes>& cand) {
    const uint64_t t0 = MetricsNowNs();
    if (TryPlace(key, value, cand, kNoBucket)) {
      metrics_->RecordInsert(/*chain_len=*/0, MetricsNowNs() - t0);
      return InsertResult::kInserted;
    }
    // All candidates full: resolve per the configured policy.
    if (first_collision_items_ == 0) {
      first_collision_items_ = TotalItems() + 1;
    }
    const bool bfs = opts_.eviction_policy == EvictionPolicy::kBfs;
    uint32_t chain_len = 0;
    uint32_t bfs_nodes = 0;
    const InsertResult r =
        bfs ? BfsInsert(std::move(key), std::move(value), cand, &chain_len,
                        &bfs_nodes)
            : WalkInsert(std::move(key), std::move(value), cand, &chain_len);
    metrics_->RecordInsert(chain_len, MetricsNowNs() - t0);
    metrics_->RecordPolicyChain(
        static_cast<uint32_t>(opts_.eviction_policy), chain_len);
    if (bfs) metrics_->RecordBfsNodes(bfs_nodes);
    return r;
  }

  /// Scalar Find body operating on precomputed candidates.
  bool FindImpl(const Key& key, const std::array<size_t, kMaxHashes>& cand,
                Value* out) const {
    auto* self = const_cast<CuckooTable*>(this);
    uint32_t probes = 0;
    const int64_t idx = self->FindInMain(key, cand, out, &probes);
    if constexpr (kMetricsEnabled) {
      metrics_->RecordLookupOutcome(probes, idx >= 0 ? 0 : -1);
      metrics_->RecordPartitionProbes(0, probes);  // no partitions: slot 0
    }
    if (idx >= 0) return true;
    if (!stash_.empty()) {
      self->ChargeStashProbe();
      const bool hit = stash_.Find(key, out);
      metrics_->RecordStashProbe(hit);
      return hit;
    }
    return false;
  }

  /// Stage 1 of the batched paths: hash `n` keys, compute their global
  /// candidate bucket indices, and prefetch each 64 B line of every
  /// candidate bucket's slot range (one line at l = 1; l slots may straddle
  /// lines). Prefetching is a pure hint — no AccessStats are charged here.
  void StageCandidates(const Key* keys, size_t n,
                       std::array<size_t, kMaxHashes>* cand,
                       bool for_write) const {
    std::array<std::array<uint64_t, kMaxHashes>, kBatchTile> buckets;
    family_.BucketsBatch(keys, n, buckets.data());
    const size_t bucket_bytes = opts_.slots_per_bucket * sizeof(Slot);
    for (size_t i = 0; i < n; ++i) {
      for (uint32_t t = 0; t < opts_.num_hashes; ++t) {
        const size_t b = static_cast<size_t>(t) * opts_.buckets_per_table +
                         static_cast<size_t>(buckets[i][t]);
        cand[i][t] = b;
        const char* base =
            reinterpret_cast<const char*>(&slots_[SlotIndex(b, 0)]);
        // Branch outside the intrinsic: its rw/locality arguments must be
        // compile-time constants (a ?: only folds at -O1 and above).
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

  /// Parks the item in hand in the stash after a failed insertion chain
  /// and records the stash-spill span.
  InsertResult Spill(Key key, Value value) {
    if (first_failure_items_ == 0) first_failure_items_ = TotalItems() + 1;
    ChargeStashWrite();
    stash_.Insert(std::move(key), std::move(value));
    spans_.RecordInstant(SpanKind::kStashSpill, stash_.size());
    if (opts_.stash_kind == StashKind::kOnchipChs &&
        stash_.size() > opts_.onchip_stash_capacity) {
      ++forced_rehash_events_;  // a real CHS deployment would rehash here
    }
    return opts_.stash_enabled ? InsertResult::kStashed
                               : InsertResult::kFailed;
  }

  /// Random-walk / MinCounter / bubbling kick-out chain: evicts one slot of
  /// the chosen victim bucket per step. `cand` are the (already read, all
  /// full) candidates of `key`.
  InsertResult WalkInsert(Key key, Value value,
                          std::array<size_t, kMaxHashes> cand,
                          uint32_t* chain_len_out) {
    size_t exclude = kNoBucket;
    int32_t from_level = -1;  // bubbling: level the in-hand item left
    uint32_t chain = 0;
    for (uint32_t loop = 0; loop < opts_.maxloop; ++loop) {
      if (loop > 0) {
        cand = Candidates(key);
        if (TryPlace(key, value, cand, exclude)) {
          *chain_len_out = chain;
          return InsertResult::kInserted;
        }
      }
      const uint32_t t =
          opts_.eviction_policy == EvictionPolicy::kBubble
              ? PickBubbleVictim(cand, opts_.num_hashes, exclude, from_level)
              : PickVictim(cand, opts_.num_hashes, exclude, kick_history_,
                           rng_);
      // Below(1) would still consume a draw; skipping it at l = 1 keeps
      // the standard table's walk stream.
      const uint32_t s =
          opts_.slots_per_bucket == 1
              ? 0
              : static_cast<uint32_t>(rng_.Below(opts_.slots_per_bucket));
      const size_t victim = SlotIndex(cand[t], s);  // bucket already read
      Key vk = slots_[victim].key;
      Value vv = slots_[victim].value;
      StoreSlot(victim, key, value);
      ++stats_->kickouts;
      if (kick_history_.enabled()) kick_history_.Increment(cand[t]);
      exclude = cand[t];
      from_level = static_cast<int32_t>(t);
      key = std::move(vk);
      value = std::move(vv);
      ++chain;
    }
    *chain_len_out = chain;
    return Spill(std::move(key), std::move(value));
  }

  /// Breadth-first search for the shortest cuckoo path [3] (l = 1 only;
  /// CheckOptions rejects it at l > 1, where a bucket has l occupants),
  /// driven by the shared BfsFindPath engine (src/core/eviction.h): explore
  /// the eviction tree level by level until an empty bucket appears, then
  /// shift the items along the path *backwards* (empty end first) so no
  /// item is ever absent from the table. The baseline has no counters, so
  /// the only terminal is a true hole and every child check costs a charged
  /// bucket read; a local visited mirror keeps each bucket read at most
  /// once.
  ///
  /// The node budget is the full maxloop, NOT the kBfsMaxNodes cap the
  /// counter-guided tables use: their searches terminate on free *or*
  /// redundant-copy buckets, so a few dozen nodes nearly always reach a
  /// terminal, while the hole-only baseline needs the deeper frontier to
  /// match the walk policies' attainable load (capping at 48 nodes dropped
  /// first-failure from ~0.90 to 0.80). The dead-end cost of the bigger
  /// budget is bounded by the same BfsThrottle the other tables run: after
  /// a failed search further inserts probe with a few nodes until one
  /// succeeds again.
  InsertResult BfsInsert(Key key, Value value,
                         const std::array<size_t, kMaxHashes>& cand,
                         uint32_t* chain_len_out, uint32_t* nodes_out) {
    std::array<uint64_t, kMaxHashes> roots{};
    for (uint32_t t = 0; t < opts_.num_hashes; ++t) roots[t] = cand[t];
    // Alloc-free visited mirror (the per-insert unordered_set it replaces
    // was the single largest cost of a successful high-load BFS insert).
    // If a near-budget search overflows it, dedup falls to the engine's
    // own id set — a bucket may be re-read, never re-enqueued.
    std::array<uint64_t, 192> seen;
    size_t seen_n = 0;
    for (uint32_t t = 0; t < opts_.num_hashes; ++t) seen[seen_n++] = roots[t];
    auto mark_new = [&](uint64_t id) {
      for (size_t i = 0; i < seen_n; ++i) {
        if (seen[i] == id) return false;
      }
      if (seen_n < seen.size()) seen[seen_n++] = id;
      return true;
    };
    // At l = 1 a bucket index is also its slot index.
    const BfsPathResult path = BfsFindPath(
        roots.data(), opts_.num_hashes,
        bfs_throttle_.Budget(opts_.maxloop),
        [&](uint64_t id, auto&& emit, auto&& terminal) {
          const size_t bucket = static_cast<size_t>(id);
          const Key occupant = slots_[bucket].key;  // read earlier
          const std::array<size_t, kMaxHashes> alt = Candidates(occupant);
          for (uint32_t t = 0; t < opts_.num_hashes; ++t) {
            if (alt[t] == bucket) continue;
            if (!mark_new(alt[t])) continue;
            if (FreeSlotIn(alt[t]) >= 0) {
              terminal(alt[t]);
              return;
            }
            emit(alt[t]);
          }
        });
    bfs_throttle_.Observe(path.found);
    *nodes_out = path.nodes_expanded;
    if (!path.found) {
      // Node budget exhausted without finding an empty bucket.
      *chain_len_out = 0;
      spans_.RecordInstant(SpanKind::kBfsDeadEnd, path.nodes_expanded);
      return Spill(std::move(key), std::move(value));
    }
    // Move items from the empty end backwards.
    size_t hole = static_cast<size_t>(path.terminal);
    for (size_t i = path.node.size(); i-- > 0;) {
      const size_t src = static_cast<size_t>(path.node[i]);
      StoreSlot(hole, slots_[src].key, slots_[src].value);
      ++stats_->kickouts;
      hole = src;
    }
    StoreSlot(hole, key, value);
    ++size_;
    *chain_len_out = static_cast<uint32_t>(path.node.size());
    return InsertResult::kInserted;
  }

  std::array<size_t, kMaxHashes> Candidates(const Key& key) const {
    std::array<size_t, kMaxHashes> c{};
    for (uint32_t t = 0; t < opts_.num_hashes; ++t) {
      c[t] = static_cast<size_t>(t) * opts_.buckets_per_table +
             family_.Bucket(key, t);
    }
    return c;
  }

  /// Probes candidate buckets in table order (one read each); returns the
  /// hit's global slot index or -1. `probes_out` (optional) receives the
  /// number of buckets read.
  int64_t FindInMain(const Key& key,
                     const std::array<size_t, kMaxHashes>& cand, Value* out,
                     uint32_t* probes_out = nullptr) {
    for (uint32_t t = 0; t < opts_.num_hashes; ++t) {
      ++stats_->offchip_reads;
      if (probes_out != nullptr) ++*probes_out;
      for (uint32_t s = 0; s < opts_.slots_per_bucket; ++s) {
        const size_t idx = SlotIndex(cand[t], s);
        const Slot& slot = slots_[idx];
        if (slot.occupied && slot.key == key) {
          if (out != nullptr) *out = slot.value;
          return static_cast<int64_t>(idx);
        }
      }
    }
    return -1;
  }

  TableOptions opts_;
  HashFamily<Key, Hasher> family_;
  std::vector<Slot> slots_;  // d * n * l; bucket b owns [b*l, (b+1)*l)
  // Heap-allocated so the pointer handed to KickHistory stays valid when
  // the table is moved (snapshot loading, factory returns).
  mutable std::unique_ptr<AccessStats> stats_ =
      std::make_unique<AccessStats>();
  // Same pattern for the metrics: atomics are immovable, the unique_ptr
  // keeps the table movable and lets const read paths record.
  mutable std::unique_ptr<TableMetrics> metrics_ =
      std::make_unique<TableMetrics>();
  // Sampled op-latency recorder (heap-held like metrics_; const read
  // paths record through it). Period applied in the constructor body.
  mutable std::unique_ptr<LatencyRecorder> latency_ =
      std::make_unique<LatencyRecorder>();
  // Dead-end/spill timeline (writer-exclusion threading model; see
  // span_recorder.h).
  SpanRecorder spans_;
  KickHistory kick_history_;
  Stash<Key, Value> stash_;
  Xoshiro256 rng_;
  // Dead-end damping for the BFS policy (see BfsInsert). The baseline has
  // no rehash, so unlike the core tables there is no reset site: the
  // throttle only relaxes again when a search succeeds.
  BfsThrottle bfs_throttle_;

  size_t size_ = 0;
  uint64_t first_collision_items_ = 0;
  uint64_t first_failure_items_ = 0;
  uint64_t forced_rehash_events_ = 0;
};

}  // namespace mccuckoo

#endif  // MCCUCKOO_BASELINE_CUCKOO_TABLE_H_
