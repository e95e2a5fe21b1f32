// The concurrent front-end over the multi-copy tables.
//
// One shard is the paper's §III.H design: one writer, many readers. Readers
// share the shard's readers-writer lock and probe through the table's
// mutation-free FindNoStats path (or, in ReadMode::kOptimistic, run
// seqlock-validated lock-free probes first); the single writer takes the
// lock exclusively for the short span of an insert or erase. N shards
// hash-partition the key space — each a complete table (own hash family,
// counters, stash) behind its own shared_mutex — so writers to different
// shards proceed in parallel and readers only contend with writers of
// their own shard.
//
// Routing uses the top bits of a dedicated routing hash. That hash MUST be
// decorrelated from the bucket hashes: the tables reduce hashes to bucket
// indices with the multiply-shift reduction (FastRange64), which consumes
// the *high* bits, so reusing a bucket hash for routing would make every
// key of a shard land in the same region of its table. A separate routing
// seed (plus per-shard table seeds) keeps the two partitions independent.
//
// Batched operations group the batch by destination shard first and then
// process one shard at a time under a single lock span, preserving the
// per-shard prefetch pipeline (the underlying FindBatchNoStats/InsertBatch)
// and never holding more than one shard lock at once — so no lock-order
// deadlock is possible against concurrent batches.
//
// Auto-growth (options.growth_enabled) is per shard: each shard's table
// runs its own GrowthPolicy inside Insert, under that shard's unique_lock
// — a hot shard grows without pausing the others, and with optimistic
// reads the growing shard's rehash commits under its aux seqlock stripe
// so that shard's readers never block either. Aggregate metrics sum the
// per-shard growth counters; growth_suppressed counts degraded shards.
//
// WriteMode::kMultiWriter additionally runs writers concurrently *within*
// one shard: writers take the shard mutex SHARED and serialize per bucket
// through the writer locks of the shard's stripe array (src/core/seqlock.h,
// discipline in src/core/lock_stripes.h), growth
// escalates to the exclusive side plus a full stripe drain, and — since the
// shared shard lock no longer excludes writers — readers fall back to the
// table's FindStriped (candidate-stripe locks + rehash-epoch revalidation)
// instead of the shared-lock FindNoStats. Both tables run it: each
// layout's one write engine is compiled for the striped writer context
// (see TableSkeleton's "Writer contexts").

#ifndef MCCUCKOO_CORE_SHARDED_MCCUCKOO_H_
#define MCCUCKOO_CORE_SHARDED_MCCUCKOO_H_

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
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
#include "src/mem/access_stats.h"
#include "src/obs/metrics.h"

namespace mccuckoo {

/// Hash-partitioned sharded wrapper; Table is McCuckooTable or
/// BlockedMcCuckooTable (anything with FindNoStats + the batch API).
template <typename Table>
class ShardedMcCuckoo {
 public:
  using Key = typename Table::KeyType;
  using Value = typename Table::ValueType;
  using Hasher = typename Table::HasherType;

  /// Whether optimistic reads are even possible for these types (torn
  /// reads of non-trivially-copyable records would be UB before
  /// validation could discard them).
  static constexpr bool kOptimisticCapable =
      std::is_trivially_copyable_v<Key> && std::is_trivially_copyable_v<Value>;

  /// Optimistic attempts per read before the lock fallback. Contention
  /// means a writer is mid-operation; a yield gives it the core (essential
  /// when threads are oversubscribed), and after a few losses the lock's
  /// queueing is cheaper than spinning on.
  static constexpr int kMaxOptimisticSpins = 3;

  /// Builds `num_shards` (a power of two, >= 1) shards. `options` describes
  /// the *aggregate* table: each shard gets ~1/num_shards of the buckets,
  /// its own decorrelated seed, and the same policy knobs. `read_mode`
  /// opts every shard into seqlock-validated lock-free reads; it demotes
  /// to kLocked when the key/value types cannot support them. `write_mode`
  /// opts every shard into concurrent writers under its striped locks, on
  /// either table type.
  ShardedMcCuckoo(const TableOptions& options, size_t num_shards,
                  ReadMode read_mode = ReadMode::kLocked,
                  WriteMode write_mode = WriteMode::kSingleWriter)
      : shard_bits_(std::countr_zero(num_shards)),
        route_seed_(SplitMix64(options.seed ^ 0x9E3779B97F4A7C15ull)),
        read_mode_(kOptimisticCapable ? read_mode : ReadMode::kLocked),
        write_mode_(write_mode) {
    assert(num_shards >= 1 && (num_shards & (num_shards - 1)) == 0);
    shards_.reserve(num_shards);
    TableOptions shard_opts = options;
    shard_opts.buckets_per_table =
        (options.buckets_per_table + num_shards - 1) / num_shards;
    for (size_t i = 0; i < num_shards; ++i) {
      shard_opts.seed =
          SplitMix64(options.seed + 0xA24BAED4963EE407ull * (i + 1));
      shards_.push_back(std::make_unique<Shard>(shard_opts, Striped()));
    }
  }

  size_t num_shards() const { return shards_.size(); }

  /// The reader policy actually in effect (post type-capability demotion).
  ReadMode read_mode() const { return read_mode_; }

  /// The writer policy in effect (as requested; it is never demoted).
  WriteMode write_mode() const { return write_mode_; }

  /// Shard index of `key` (top shard_bits_ of the routing hash).
  size_t ShardOf(const Key& key) const {
    if (shard_bits_ == 0) return 0;
    return static_cast<size_t>(hasher_(key, route_seed_) >>
                               (64 - shard_bits_));
  }

  // --- Scalar operations --------------------------------------------------

  InsertResult Insert(const Key& key, const Value& value) {
    Shard& s = *shards_[ShardOf(key)];
    if (write_mode_ == WriteMode::kMultiWriter) {
      bool wants_growth = false;
      InsertResult r;
      {
        std::shared_lock lock(s.mutex);
        r = s.table.ConcurrentInsert(key, value, s.growth_mu, &wants_growth);
      }
      if (wants_growth) GrowShardExclusive(s);
      return r;
    }
    std::unique_lock lock(s.mutex);
    return s.table.Insert(key, value);
  }

  /// Inserts or updates `key`. On kUpdated the replaced value is written
  /// through `previous` (when non-null), so a caller that needs the old
  /// value makes one table probe, not a Find followed by this call.
  InsertResult InsertOrAssign(const Key& key, const Value& value,
                              Value* previous = nullptr) {
    Shard& s = *shards_[ShardOf(key)];
    if (write_mode_ == WriteMode::kMultiWriter) {
      bool wants_growth = false;
      InsertResult r;
      {
        std::shared_lock lock(s.mutex);
        r = s.table.ConcurrentInsertOrAssign(key, value, s.growth_mu,
                                             &wants_growth, previous);
      }
      if (wants_growth) GrowShardExclusive(s);
      return r;
    }
    std::unique_lock lock(s.mutex);
    return s.table.InsertOrAssign(key, value, previous);
  }

  bool Erase(const Key& key) {
    Shard& s = *shards_[ShardOf(key)];
    if (write_mode_ == WriteMode::kMultiWriter) {
      std::shared_lock lock(s.mutex);
      return s.table.ConcurrentErase(key);
    }
    std::unique_lock lock(s.mutex);
    return s.table.Erase(key);
  }

  /// Mutation-free lookup. kLocked: shared lock + FindNoStats. kOptimistic:
  /// bounded seqlock-validated lock-free attempts against the key's shard,
  /// then the same shared-lock fallback (readers only ever contend with
  /// their own shard's writer either way).
  bool Find(const Key& key, Value* out = nullptr) const {
    const Shard& s = *shards_[ShardOf(key)];
    if constexpr (kOptimisticCapable) {
      if (read_mode_ == ReadMode::kOptimistic) {
        for (int attempt = 0; attempt <= kMaxOptimisticSpins; ++attempt) {
          const OptimisticResult r = s.table.TryFindOptimistic(key, out);
          if (r == OptimisticResult::kHit) return true;
          if (r == OptimisticResult::kMiss) return false;
          if constexpr (kMetricsEnabled) s.optimistic_retries.Inc();
          if (attempt < kMaxOptimisticSpins) std::this_thread::yield();
        }
        if constexpr (kMetricsEnabled) s.optimistic_fallbacks.Inc();
      }
    }
    if (write_mode_ == WriteMode::kMultiWriter) {
      // The shared shard lock no longer excludes writers; the striped
      // fallback waits only for writers on this key's own candidates.
      return s.table.FindStriped(key, out);
    }
    std::shared_lock lock(s.mutex);
    return s.table.FindNoStats(key, out);
  }

  bool Contains(const Key& key) const { return Find(key, nullptr); }

  // --- Batched operations -------------------------------------------------

  /// Batched lookup: groups keys by shard, then runs each shard's group
  /// through its prefetch-pipelined FindBatchNoStats under one shared-lock
  /// span. out[i]/found[i] line up with keys[i] (out may be null); returns
  /// the hit count.
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
      {
        const Shard& sh = *shards_[s];
        const std::span<const Key> group(shard_keys.data(), n);
        Value* group_vals = out != nullptr ? shard_vals.data() : nullptr;
        bool* group_found = reinterpret_cast<bool*>(shard_found.data());
        bool done = false;
        if constexpr (kOptimisticCapable) {
          if (read_mode_ == ReadMode::kOptimistic) {
            hits += OptimisticGroupFind(sh, group, group_vals, group_found);
            done = true;
          }
        }
        if (!done && write_mode_ == WriteMode::kMultiWriter) {
          hits += StripedGroupFind(sh, group, group_vals, group_found);
        } else if (!done) {
          std::shared_lock lock(sh.mutex);
          hits += sh.table.FindBatchNoStats(group, group_vals, group_found);
        }
      }
      for (size_t j = 0; j < n; ++j) {
        const size_t i = g.order[g.begin[s] + j];
        if (found != nullptr) found[i] = shard_found[j] != 0;
        if (out != nullptr && shard_found[j] != 0) out[i] = shard_vals[j];
      }
    }
    return hits;
  }

  /// Batched insert: groups keys by shard, one exclusive-lock span per
  /// shard, delegating to the shard table's pipelined InsertBatch.
  /// results[i] (optional) lines up with keys[i]. In multi-writer mode the
  /// batch is a loop of scalar Inserts: the pipeline assumes writer
  /// exclusion, and a per-key Insert escalates growth as soon as the
  /// table asks for it rather than spilling the rest of the batch.
  void InsertBatch(std::span<const Key> keys, std::span<const Value> values,
                   InsertResult* results = nullptr) {
    assert(keys.size() == values.size());
    if (write_mode_ == WriteMode::kMultiWriter) {
      for (size_t i = 0; i < keys.size(); ++i) {
        const InsertResult r = Insert(keys[i], values[i]);
        if (results != nullptr) results[i] = r;
      }
      return;
    }
    const ShardGroups g = GroupByShard(keys);
    std::vector<Key> shard_keys;
    std::vector<Value> shard_vals;
    std::vector<InsertResult> shard_results;
    for (size_t s = 0; s < shards_.size(); ++s) {
      const size_t n = g.CountOf(s);
      if (n == 0) continue;
      shard_keys.clear();
      shard_vals.clear();
      for (size_t j = g.begin[s]; j < g.begin[s] + n; ++j) {
        shard_keys.push_back(keys[g.order[j]]);
        shard_vals.push_back(values[g.order[j]]);
      }
      shard_results.resize(n);
      {
        Shard& sh = *shards_[s];
        std::unique_lock lock(sh.mutex);
        sh.table.InsertBatch(std::span<const Key>(shard_keys.data(), n),
                             std::span<const Value>(shard_vals.data(), n),
                             shard_results.data());
      }
      if (results != nullptr) {
        for (size_t j = 0; j < n; ++j) {
          results[g.order[g.begin[s] + j]] = shard_results[j];
        }
      }
    }
  }

  // --- Merged introspection -----------------------------------------------

  size_t size() const {
    size_t total = 0;
    for (const auto& s : shards_) {
      std::shared_lock lock(s->mutex);
      total += s->table.size();
    }
    return total;
  }

  size_t stash_size() const {
    size_t total = 0;
    for (const auto& s : shards_) {
      std::shared_lock lock(s->mutex);
      total += s->table.ApproxStashSize();
    }
    return total;
  }

  size_t TotalItems() const {
    size_t total = 0;
    for (const auto& s : shards_) {
      std::shared_lock lock(s->mutex);
      total += s->table.size() + s->table.ApproxStashSize();
    }
    return total;
  }

  uint64_t capacity() const {
    // Capacity is no longer a construction-time constant: a shard's
    // auto-growth rehash (inside Insert, under the shard's unique_lock)
    // changes its geometry, so reading it requires the shard lock too.
    uint64_t total = 0;
    for (const auto& s : shards_) {
      std::shared_lock lock(s->mutex);
      total += s->table.capacity();
    }
    return total;
  }

  double load_factor() const {
    return static_cast<double>(TotalItems()) /
           static_cast<double>(capacity());
  }

  /// Component-wise sum of all shards' writer-side access statistics.
  AccessStats stats_snapshot() const {
    AccessStats merged;
    for (const auto& s : shards_) {
      std::shared_lock lock(s->mutex);
      merged += s->table.stats();
    }
    return merged;
  }

  /// Component-wise sum of all shards' metrics (histograms merge bucket-
  /// wise; occupancy/capacity gauges sum to the aggregate view). Takes each
  /// shard's lock exclusively: in multi-writer mode the shared side no
  /// longer excludes writers, and exact totals need a quiesced shard.
  MetricsSnapshot metrics_snapshot() const {
    MetricsSnapshot merged;
    for (const auto& s : shards_) {
      std::unique_lock lock(s->mutex);
      merged += s->table.SnapshotMetrics();
      merged.optimistic_retries += s->optimistic_retries.Value();
      merged.optimistic_fallbacks += s->optimistic_fallbacks.Value();
    }
    return merged;
  }

  /// One shard's metrics snapshot (testing / per-shard dashboards).
  MetricsSnapshot shard_metrics_snapshot(size_t shard) const {
    const Shard& s = *shards_[shard];
    std::unique_lock lock(s.mutex);
    MetricsSnapshot snap = s.table.SnapshotMetrics();
    snap.optimistic_retries = s.optimistic_retries.Value();
    snap.optimistic_fallbacks = s.optimistic_fallbacks.Value();
    return snap;
  }

  /// Exclusive access to one shard's table (setup/validation only). In
  /// optimistic mode the shard's aux stripe is held for `fn`'s duration,
  /// forcing lock-free readers onto the shared lock while `fn` may
  /// restructure storage (e.g. Rehash); in multi-writer mode every stripe
  /// is additionally drained so striped readers quiesce too.
  template <typename Fn>
  auto WithExclusiveShard(size_t shard, Fn&& fn) {
    Shard& s = *shards_[shard];
    std::unique_lock lock(s.mutex);
    std::optional<LockStripeDrain> drain;
    if (write_mode_ == WriteMode::kMultiWriter) drain.emplace(s.stripes);
    struct AuxGuard {
      SeqlockArray* seq;
      explicit AuxGuard(SeqlockArray* s_) : seq(s_) {
        if (seq != nullptr) seq->WriteBegin(seq->aux_stripe());
      }
      ~AuxGuard() {
        if (seq != nullptr) seq->WriteEnd(seq->aux_stripe());
      }
    } guard(Striped() ? &s.stripes : nullptr);
    return std::forward<Fn>(fn)(s.table);
  }

 private:
  // Padded to its own cache line(s) so one shard's lock traffic does not
  // false-share with its neighbours. Heap-allocated behind unique_ptr, so
  // &stripes stays stable for the table's attached pointer.
  struct alignas(64) Shard {
    Shard(const TableOptions& options, bool striped)
        : table(options), stripes(table.seqlock_domain()) {
      if (striped) table.AttachSeqlock(&stripes);
    }
    mutable std::shared_mutex mutex;
    // The table starts on a fresh cache line: every reader and writer RMWs
    // the lock word, and the table's first members (its options) are read
    // on every probe, so sharing a line with the lock costs four concurrent
    // writers about 30% of their throughput.
    alignas(64) Table table;
    // Versions for optimistic readers and writer locks for concurrent
    // writers (constructed always — a few cache lines — attached only when
    // used; see Striped()).
    SeqlockArray stripes;
    // Growth serialization for kMultiWriter shards.
    std::mutex growth_mu;
    mutable Counter optimistic_retries;
    mutable Counter optimistic_fallbacks;
  };

  /// Whether the shards attach their stripe arrays: optimistic readers
  /// validate against its versions, and concurrent writers take its locks
  /// and must open version windows even when readers use the stripe locks.
  bool Striped() const {
    return read_mode_ == ReadMode::kOptimistic ||
           write_mode_ == WriteMode::kMultiWriter;
  }

  /// Per-key striped lookup for one shard's batch group (multi-writer
  /// mode: the shared shard lock would not exclude writers, so the batch
  /// pipeline's unlocked probes are off the table).
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

  /// Escalates one shard to full exclusivity (unique shard lock + stripe
  /// drain) and runs its growth engine; a no-op if a competing writer's
  /// escalation already grew the shard (the policy re-decides inside).
  void GrowShardExclusive(Shard& s) {
    std::unique_lock lock(s.mutex);
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

  /// Optimistic path for one shard's batch group: validates per
  /// kBatchTile-sized tile (all-or-nothing), retrying lost tiles and
  /// re-running persistent losers under that shard's shared lock. Only
  /// instantiated for optimistic-capable types.
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
        if (write_mode_ == WriteMode::kMultiWriter) {
          // Under multi-writer the shared shard lock no longer excludes
          // writers, so the locked batch fallback would race them (the
          // stash especially); fall back per key through the stripes.
          r = static_cast<int64_t>(
              StripedGroupFind(sh, tile, tile_out, tile_found));
        } else {
          std::shared_lock lock(sh.mutex);
          r = static_cast<int64_t>(
              sh.table.FindBatchNoStats(tile, tile_out, tile_found));
        }
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
  ReadMode read_mode_;
  WriteMode write_mode_;
  Hasher hasher_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace mccuckoo

#endif  // MCCUCKOO_CORE_SHARDED_MCCUCKOO_H_
