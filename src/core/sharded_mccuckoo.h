// The concurrent front-end over the multi-copy tables.
//
// The paper's §III.H design puts one writer and many readers of a table
// behind a lock. This front-end runs one extension of it, the striped
// plan/claim/validate design of PAPERS.md arXiv 1605.05236:
//
//  * Readers run seqlock-validated lock-free probes (TryFindOptimistic;
//    src/core/seqlock.h) and, after kMaxOptimisticSpins lost attempts,
//    fall back to the table's FindStriped, which takes only the key's
//    candidate stripes. No read touches a table-wide lock.
//  * Writers run concurrently within a shard and serialize per bucket
//    through the writer locks of the shard's stripe array (discipline in
//    src/core/lock_stripes.h). Both tables run it: each layout's one write
//    engine is compiled for the striped writer context (see TableSkeleton's
//    "Writer contexts"). That context always evicts by BFS with
//    ConcurrentBfsBudget (kBfsOnly) and charges no AccessStats, so
//    TableOptions::eviction_policy has no effect here and the simulator's
//    access counts come from bare tables.
//  * Growth is the only exclusive step: it drains every stripe
//    (GrowShardExclusive), and so does WithExclusiveShard. There is no
//    other lock: a writer re-checks the rehash epoch under its candidate
//    stripes and starts over if a rehash committed meanwhile, and
//    introspection (sizes, metrics, the span ring) reads under the aux
//    stripe alone, so a scrape never waits for writers on other stripes.
//
// N shards hash-partition the key space, each a complete table (own hash
// family, counters, stash) with its own stripe array, so one shard's growth
// or maintenance pass pauses only that shard.
//
// Routing uses the top bits of a dedicated routing hash. That hash MUST be
// decorrelated from the bucket hashes: the tables reduce hashes to bucket
// indices with the multiply-shift reduction (FastRange64), which consumes
// the *high* bits, so reusing a bucket hash for routing would make every
// key of a shard land in the same region of its table. A separate routing
// seed (plus per-shard table seeds) keeps the two partitions independent.
//
// FindBatch groups the batch by destination shard and validates each
// group per kBatchTile-sized tile; InsertBatch is a loop of scalar
// Inserts, so a per-key Insert escalates growth as soon as the table asks
// for it. Neither ever holds stripes of two shards at once.
//
// Auto-growth (options.growth_enabled) is per shard: each shard's table
// runs its own GrowthPolicy, and the rehash commits under the shard's
// drain, so a hot shard grows without pausing the others. Aggregate
// metrics sum the per-shard growth counters; growth_suppressed counts
// degraded shards.

#ifndef MCCUCKOO_CORE_SHARDED_MCCUCKOO_H_
#define MCCUCKOO_CORE_SHARDED_MCCUCKOO_H_

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>
#include <memory>
#include <span>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/common/bits.h"
#include "src/common/rng.h"
#include "src/core/config.h"
#include "src/core/lock_stripes.h"
#include "src/core/seqlock.h"
#include "src/obs/metrics.h"
#include "src/obs/span_recorder.h"

namespace mccuckoo {

/// Hash-partitioned sharded wrapper; Table is McCuckooTable or
/// BlockedMcCuckooTable (anything with the striped and optimistic API).
template <typename Table>
class ShardedMcCuckoo {
 public:
  using Key = typename Table::KeyType;
  using Value = typename Table::ValueType;
  using Hasher = typename Table::HasherType;

  // Optimistic reads copy records that a writer may be tearing; that is
  // defined behaviour only for trivially copyable types.
  static_assert(std::is_trivially_copyable_v<Key> &&
                    std::is_trivially_copyable_v<Value>,
                "optimistic reads need trivially copyable keys and values");

  /// Optimistic attempts per read before the striped fallback. Contention
  /// means a writer is mid-operation; a yield gives it the core (essential
  /// when threads are oversubscribed), and after a few losses waiting on
  /// the candidate stripes is cheaper than spinning on.
  static constexpr int kMaxOptimisticSpins = 3;

  /// Builds `num_shards` (a power of two, >= 1) shards. `options` describes
  /// the *aggregate* table: each shard gets ~1/num_shards of the buckets,
  /// its own decorrelated seed, and the same policy knobs.
  ShardedMcCuckoo(const TableOptions& options, size_t num_shards)
      : shard_bits_(std::countr_zero(num_shards)),
        route_seed_(SplitMix64(options.seed ^ 0x9E3779B97F4A7C15ull)) {
    assert(num_shards >= 1 && (num_shards & (num_shards - 1)) == 0);
    shards_.reserve(num_shards);
    TableOptions shard_opts = options;
    shard_opts.buckets_per_table =
        (options.buckets_per_table + num_shards - 1) / num_shards;
    for (size_t i = 0; i < num_shards; ++i) {
      shard_opts.seed =
          SplitMix64(options.seed + 0xA24BAED4963EE407ull * (i + 1));
      shards_.push_back(std::make_unique<Shard>(shard_opts));
    }
  }

  size_t num_shards() const { return shards_.size(); }

  /// Shard index of `key` (top shard_bits_ of the routing hash).
  size_t ShardOf(const Key& key) const {
    if (shard_bits_ == 0) return 0;
    return static_cast<size_t>(hasher_(key, route_seed_) >>
                               (64 - shard_bits_));
  }

  // --- Scalar operations --------------------------------------------------

  InsertResult Insert(const Key& key, const Value& value) {
    Shard& s = *shards_[ShardOf(key)];
    bool wants_growth = false;
    const InsertResult r = s.table.ConcurrentWrite(
        key, value, /*assign=*/false, nullptr, &wants_growth);
    if (wants_growth) GrowShardExclusive(s);
    return r;
  }

  /// Inserts or updates `key`. On kUpdated the replaced value is written
  /// through `previous` (when non-null), so a caller that needs the old
  /// value makes one table probe, not a Find followed by this call.
  InsertResult InsertOrAssign(const Key& key, const Value& value,
                              Value* previous = nullptr) {
    Shard& s = *shards_[ShardOf(key)];
    bool wants_growth = false;
    const InsertResult r = s.table.ConcurrentWrite(
        key, value, /*assign=*/true, previous, &wants_growth);
    if (wants_growth) GrowShardExclusive(s);
    return r;
  }

  bool Erase(const Key& key) {
    return shards_[ShardOf(key)]->table.ConcurrentErase(key);
  }

  /// Mutation-free lookup: bounded seqlock-validated lock-free attempts
  /// against the key's shard, then the striped fallback, which waits only
  /// for writers on this key's own candidates.
  bool Find(const Key& key, Value* out = nullptr) const {
    const Shard& s = *shards_[ShardOf(key)];
    for (int attempt = 0; attempt <= kMaxOptimisticSpins; ++attempt) {
      const OptimisticResult r = s.table.TryFindOptimistic(key, out);
      if (r == OptimisticResult::kHit) return true;
      if (r == OptimisticResult::kMiss) return false;
      if constexpr (kMetricsEnabled) s.optimistic_retries.Inc();
      if (attempt < kMaxOptimisticSpins) std::this_thread::yield();
    }
    if constexpr (kMetricsEnabled) s.optimistic_fallbacks.Inc();
    return s.table.FindStriped(key, out);
  }

  bool Contains(const Key& key) const { return Find(key, nullptr); }

  // --- Batched operations -------------------------------------------------

  /// Batched lookup: groups keys by shard, then validates each shard's
  /// group per kBatchTile-sized tile (OptimisticGroupFind). out[i]/found[i]
  /// line up with keys[i] (out may be null); returns the hit count.
  size_t FindBatch(std::span<const Key> keys, Value* out, bool* found) const {
    const ShardGroups g = GroupByShard(keys);
    size_t hits = 0;
    std::vector<Key> shard_keys;
    std::vector<Value> shard_vals;
    std::vector<uint8_t> shard_found;
    for (size_t s = 0; s < shards_.size(); ++s) {
      const size_t n = g.CountOf(s);
      if (n == 0) continue;
      shard_keys.clear();
      for (size_t j = g.begin[s]; j < g.begin[s] + n; ++j) {
        shard_keys.push_back(keys[g.order[j]]);
      }
      shard_vals.resize(n);
      shard_found.resize(n);
      hits += OptimisticGroupFind(
          *shards_[s], std::span<const Key>(shard_keys.data(), n),
          out != nullptr ? shard_vals.data() : nullptr,
          reinterpret_cast<bool*>(shard_found.data()));
      for (size_t j = 0; j < n; ++j) {
        const size_t i = g.order[g.begin[s] + j];
        if (found != nullptr) found[i] = shard_found[j] != 0;
        if (out != nullptr && shard_found[j] != 0) out[i] = shard_vals[j];
      }
    }
    return hits;
  }

  /// Batched insert: a loop of scalar Inserts, so each key escalates
  /// growth as soon as its shard asks for it rather than spilling the rest
  /// of the batch. results[i] (optional) lines up with keys[i].
  void InsertBatch(std::span<const Key> keys, std::span<const Value> values,
                   InsertResult* results = nullptr) {
    assert(keys.size() == values.size());
    for (size_t i = 0; i < keys.size(); ++i) {
      const InsertResult r = Insert(keys[i], values[i]);
      if (results != nullptr) results[i] = r;
    }
  }

  // --- Merged introspection -----------------------------------------------
  //
  // Each shard is read under its aux stripe: the stash, the geometry and
  // the span ring are written only under it, the item count and metrics
  // are atomics. Writers on other stripes keep running, so a total is a
  // point-in-time sum per shard, exact once writers quiesce.

  size_t size() const {
    return SumShards([](const Table& t) { return t.size(); });
  }

  size_t stash_size() const {
    return SumShards([](const Table& t) { return t.stash_size(); });
  }

  size_t TotalItems() const {
    return SumShards([](const Table& t) { return t.TotalItems(); });
  }

  uint64_t capacity() const {
    return SumShards([](const Table& t) { return t.capacity(); });
  }

  double load_factor() const {
    return static_cast<double>(TotalItems()) /
           static_cast<double>(capacity());
  }

  /// Component-wise sum of all shards' metrics (histograms merge bucket-
  /// wise; occupancy/capacity gauges sum to the aggregate view).
  MetricsSnapshot metrics_snapshot() const {
    MetricsSnapshot merged;
    for (size_t i = 0; i < shards_.size(); ++i) {
      merged += shard_metrics_snapshot(i);
    }
    return merged;
  }

  /// One shard's metrics snapshot (testing / per-shard dashboards).
  MetricsSnapshot shard_metrics_snapshot(size_t shard) const {
    const Shard& s = *shards_[shard];
    MetricsSnapshot snap =
        WithAux(s, [](const Table& t) { return t.SnapshotMetrics(); });
    snap.optimistic_retries = s.optimistic_retries.Value();
    snap.optimistic_fallbacks = s.optimistic_fallbacks.Value();
    return snap;
  }

  /// A copy of one shard's span ring, oldest first.
  std::vector<Span> shard_spans(size_t shard) const {
    return WithAux(*shards_[shard],
                   [](const Table& t) { return t.spans().Events(); });
  }

  /// Exclusive access to one shard's table (setup/validation only): every
  /// stripe drained so writers and striped readers quiesce, and the aux
  /// stripe's version held odd for `fn`'s duration, so lock-free readers
  /// retry while `fn` may restructure storage (e.g. Rehash).
  template <typename Fn>
  auto WithExclusiveShard(size_t shard, Fn&& fn) {
    Shard& s = *shards_[shard];
    LockStripeDrain drain(s.stripes);
    struct AuxGuard {
      SeqlockArray& seq;
      explicit AuxGuard(SeqlockArray& s_) : seq(s_) {
        seq.WriteBegin(seq.aux_stripe());
      }
      ~AuxGuard() { seq.WriteEnd(seq.aux_stripe()); }
    } guard(s.stripes);
    return std::forward<Fn>(fn)(s.table);
  }

 private:
  // Padded to its own cache line(s) so one shard's counter traffic does
  // not false-share with its neighbours. Heap-allocated behind unique_ptr,
  // so &stripes stays stable for the table's attached pointer.
  struct alignas(64) Shard {
    explicit Shard(const TableOptions& options)
        : table(options), stripes(table.seqlock_domain()) {
      table.AttachSeqlock(&stripes);
    }
    Table table;
    // Versions for optimistic readers and writer locks for concurrent
    // writers, with the aux stripe scrapes read under: the shard's only
    // exclusion. Mutable: a const scrape locks the aux stripe.
    mutable SeqlockArray stripes;
    mutable Counter optimistic_retries;
    mutable Counter optimistic_fallbacks;
  };

  /// `fn(table)` with the shard's aux stripe held (no version bump: it
  /// only reads).
  template <typename Fn>
  static auto WithAux(const Shard& s, Fn&& fn) {
    LockStripeSet ls(s.stripes, /*metrics=*/nullptr);
    ls.AcquireAux();
    return fn(s.table);
  }

  /// The sum of `fn(table)` over the shards, each read under its aux
  /// stripe.
  template <typename Fn>
  auto SumShards(Fn&& fn) const {
    decltype(fn(shards_[0]->table)) total = 0;
    for (const auto& s : shards_) total += WithAux(*s, fn);
    return total;
  }

  /// Per-key striped lookup for a tile whose optimistic attempts all lost
  /// (nothing excludes writers from the whole shard, so the unlocked
  /// batch pipeline is off the table).
  size_t StripedGroupFind(const Shard& sh, std::span<const Key> keys,
                          Value* out, bool* found) const {
    size_t hits = 0;
    for (size_t i = 0; i < keys.size(); ++i) {
      Value* o = out != nullptr ? out + i : nullptr;
      const bool hit = sh.table.FindStriped(keys[i], o);
      if (found != nullptr) found[i] = hit;
      if (hit) ++hits;
    }
    return hits;
  }

  /// Escalates one shard to full exclusivity (a drain of every stripe) and
  /// runs its growth engine; a no-op if a competing writer's escalation
  /// already grew the shard (the policy re-decides inside).
  void GrowShardExclusive(Shard& s) {
    LockStripeDrain drain(s.stripes);
    s.table.MaybeGrowExclusive();
  }

  /// Stable grouping of batch positions by destination shard:
  /// order[begin[s] .. begin[s] + CountOf(s)) are the indices routed to s,
  /// in their original batch order.
  struct ShardGroups {
    std::vector<size_t> order;  // batch indices, grouped by shard
    std::vector<size_t> begin;  // per-shard start offset into order
    size_t CountOf(size_t s) const {
      const size_t end = s + 1 < begin.size() ? begin[s + 1] : order.size();
      return end - begin[s];
    }
  };

  /// One shard's batch group: validates per kBatchTile-sized tile
  /// (all-or-nothing), retrying lost tiles and re-running persistent losers
  /// per key through the stripes.
  size_t OptimisticGroupFind(const Shard& sh, std::span<const Key> keys,
                             Value* out, bool* found) const {
    size_t hits = 0;
    for (size_t base = 0; base < keys.size(); base += Table::kBatchTile) {
      const size_t n = std::min(Table::kBatchTile, keys.size() - base);
      const std::span<const Key> tile = keys.subspan(base, n);
      Value* tile_out = out != nullptr ? out + base : nullptr;
      bool* tile_found = found != nullptr ? found + base : nullptr;
      int64_t r = -1;
      for (int attempt = 0; attempt <= kMaxOptimisticSpins; ++attempt) {
        r = sh.table.TryFindBatchOptimistic(tile, tile_out, tile_found);
        if (r >= 0) break;
        if constexpr (kMetricsEnabled) sh.optimistic_retries.Inc();
        if (attempt < kMaxOptimisticSpins) std::this_thread::yield();
      }
      if (r < 0) {
        if constexpr (kMetricsEnabled) sh.optimistic_fallbacks.Inc();
        r = static_cast<int64_t>(
            StripedGroupFind(sh, tile, tile_out, tile_found));
      }
      hits += static_cast<size_t>(r);
    }
    return hits;
  }

  ShardGroups GroupByShard(std::span<const Key> keys) const {
    const size_t n_shards = shards_.size();
    std::vector<size_t> shard_of(keys.size());
    std::vector<size_t> counts(n_shards, 0);
    for (size_t i = 0; i < keys.size(); ++i) {
      shard_of[i] = ShardOf(keys[i]);
      ++counts[shard_of[i]];
    }
    ShardGroups g;
    g.begin.resize(n_shards);
    size_t off = 0;
    for (size_t s = 0; s < n_shards; ++s) {
      g.begin[s] = off;
      off += counts[s];
    }
    g.order.resize(keys.size());
    std::vector<size_t> cursor = g.begin;
    for (size_t i = 0; i < keys.size(); ++i) {
      g.order[cursor[shard_of[i]]++] = i;
    }
    return g;
  }

  size_t shard_bits_;
  uint64_t route_seed_;
  Hasher hasher_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace mccuckoo

#endif  // MCCUCKOO_CORE_SHARDED_MCCUCKOO_H_
