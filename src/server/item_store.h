// The cache server's item layer: variable-size keys/values with TTL and
// eviction, stored as pointers inside ShardedMcCuckoo.
//
// This is the Pelikan storage::cuckoo idiom adapted to this codebase: the
// cuckoo table itself stays a fixed-width (uint64 -> uint64) machine — the
// shape every optimization below it (SIMD tag probes, batched prefetch
// pipelines, optimistic reads) is built for — and the item layer above it
// owns layout, lifetime, expiry, and memory budget:
//
//   table key    = XxHash64(key bytes, key_seed)
//   table value  = Item*  (one heap allocation: header + key + value)
//
// Full key bytes live in the Item and are verified on every read, so a
// 64-bit hash collision can never serve the wrong value (on write, the
// colliding newcomer overwrites and the collision is counted). Items are
// threaded onto 64 striped FIFO lists for sweep and eviction; each stripe's
// mutex also serializes writers per key-hash, which is what makes the
// remove-then-retire dance race-free.
//
// Concurrency model:
//  * GET/MGET are lock-free: an EpochReclaimer::Guard brackets the table
//    lookup and the value copy, so a concurrently retired item stays
//    allocated until the guard drops. MGET rides the table's FindBatch —
//    the same batched prefetch pipeline the paper's lookups use.
//  * SET/DEL/TOUCH serialize per stripe (hash-partitioned, so unrelated
//    keys rarely contend) and run the table write under WriteMode::
//    kMultiWriter, so writers to different stripes truly overlap.
//  * TTL expiry is lazy-on-read (an expired item is removed by the reader
//    that trips over it, after re-verification under the stripe lock) plus
//    a periodic SweepExpired() walk. The clock is injected, so TTL tests
//    never sleep.
//  * Eviction is FIFO (oldest stripe-list head): capacity eviction enforces
//    max_bytes; pressure eviction fires when an insert lands in the stash —
//    the GrowthPolicy graceful-degradation signal that the table cannot
//    absorb more keys (growth disabled, capped, or backing off).

#ifndef MCCUCKOO_SERVER_ITEM_STORE_H_
#define MCCUCKOO_SERVER_ITEM_STORE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/status.h"
#include "src/core/config.h"
#include "src/core/mccuckoo_table.h"
#include "src/core/sharded_mccuckoo.h"
#include "src/hash/hashers.h"
#include "src/obs/server_metrics.h"
#include "src/server/epoch.h"

namespace mccuckoo {
namespace server {

/// Injected time source, nanoseconds on an arbitrary monotone base.
using StoreClock = std::function<uint64_t()>;

struct ItemStoreOptions {
  /// Aggregate slot target across all shards (rounded up to table
  /// geometry). With growth enabled this is just the starting size.
  uint64_t initial_slots = 1 << 16;
  /// Shard count (power of two).
  size_t shards = 8;
  uint64_t seed = 0x5EEDCAFE;
  /// Payload budget (key + value bytes); 0 = unlimited. Exceeding it
  /// FIFO-evicts until back under.
  uint64_t max_bytes = 0;
  /// Let shards grow under load. When growth cannot act (disabled here, or
  /// at kGrowthMaxBucketsPerTable), inserts degrade to the stash and the
  /// store answers with pressure eviction instead.
  bool growth_enabled = true;
  /// Time source for TTL decisions; defaults to the shared NowNs() clock.
  /// Tests inject a fake to exercise expiry without sleeping.
  StoreClock clock;
};

class ItemStore {
 public:
  using Table = McCuckooTable<uint64_t, uint64_t, XxHasher>;
  using Sharded = ShardedMcCuckoo<Table>;

  explicit ItemStore(const ItemStoreOptions& options);
  ~ItemStore();

  ItemStore(const ItemStore&) = delete;
  ItemStore& operator=(const ItemStore&) = delete;

  // --- Cache operations ---------------------------------------------------

  /// Copies the live value of `key` into `*value_out`; returns false on
  /// miss or expiry (an expired item is reclaimed on the spot).
  bool Get(std::string_view key, std::string* value_out);

  /// Batched Get over the table's FindBatch pipeline. values/found are
  /// resized to keys.size(); returns the live-hit count.
  size_t GetBatch(std::span<const std::string_view> keys,
                  std::vector<std::string>* values,
                  std::vector<uint8_t>* found);

  /// Inserts or replaces `key`. ttl_seconds 0 = never expires. The table
  /// always places the key (a stash landing triggers pressure eviction),
  /// so only an empty key is an error.
  Status Set(std::string_view key, std::string_view value,
             uint32_t ttl_seconds);

  /// Removes `key`; returns false if absent (or already expired).
  bool Del(std::string_view key);

  /// Resets the TTL of a live `key`; returns false on miss or expiry.
  bool Touch(std::string_view key, uint32_t ttl_seconds);

  /// Removes every expired item (the periodic sweep). Returns the number
  /// reclaimed.
  size_t SweepExpired();

  /// FIFO-evicts up to `n` items. `pressure` selects which eviction
  /// counter the removals land in. Returns the number evicted.
  size_t EvictOldest(size_t n, bool pressure);

  // --- Introspection ------------------------------------------------------

  uint64_t items() const { return items_.load(std::memory_order_relaxed); }
  uint64_t bytes() const { return bytes_.load(std::memory_order_relaxed); }

  /// The server-level metric cells (shared with the network layer, which
  /// adds its connection/byte counters to the same instance).
  ServerMetrics& metrics() { return metrics_; }
  const ServerMetrics& metrics() const { return metrics_; }

  /// Snapshot with the store's gauges (items/bytes) filled in.
  ServerMetricsSnapshot MetricsSnapshot() const;

  /// The underlying sharded table (stats routes, tests).
  Sharded& table() { return *table_; }
  const Sharded& table() const { return *table_; }

  uint64_t now_ns() const { return clock_(); }

  /// Structural validation: every shard table's CheckInvariants(), plus the
  /// item-layer tallies (table entries == stripe-list entries == items_,
  /// byte tally matches the linked items). Quiescent callers only.
  Status CheckInvariants() const;

  /// Drains the epoch reclaimer (tests that count live allocations).
  size_t ReclaimRetired() { return epoch_.TryReclaim(); }

 private:
  /// One cache entry: header + key bytes + value bytes in a single
  /// allocation. prev/next are guarded by the owning stripe's mutex;
  /// expire_at_ns is atomic so TOUCH/lazy-expiry race benignly with
  /// readers. Items are immutable after Link() except for expire_at_ns.
  struct Item {
    Item* prev = nullptr;
    Item* next = nullptr;
    std::atomic<uint64_t> expire_at_ns{0};  ///< 0 = never expires.
    uint64_t hash = 0;
    uint32_t key_len = 0;
    uint32_t val_len = 0;

    const char* key_data() const {
      return reinterpret_cast<const char*>(this + 1);
    }
    const char* val_data() const { return key_data() + key_len; }
    std::string_view key() const { return {key_data(), key_len}; }
    std::string_view value() const { return {val_data(), val_len}; }
    uint64_t payload_bytes() const {
      return static_cast<uint64_t>(key_len) + val_len;
    }

    static Item* New(uint64_t hash, std::string_view key,
                     std::string_view value, uint64_t expire_at_ns);
    static void Free(void* p) { ::operator delete(p); }
  };

  static constexpr size_t kStripes = 64;

  /// Stripe of a key hash. Fibonacci-scrambled so the table's routing and
  /// bucket reductions (which consume high bits of decorrelated seeds)
  /// stay independent of the stripe partition.
  static size_t StripeOf(uint64_t h) {
    return static_cast<size_t>((h * 0x9E3779B97F4A7C15ull) >> 58);
  }

  struct alignas(64) Stripe {
    std::mutex mu;
    Item* head = nullptr;  ///< Oldest (eviction side).
    Item* tail = nullptr;  ///< Newest (append side).
  };

  /// List maintenance; callers hold the stripe's mutex.
  void Link(Stripe& s, Item* it);
  void Unlink(Stripe& s, Item* it);

  /// Removes `it` from table + list and retires it; caller holds the
  /// stripe's mutex and has verified `it` is the current table entry.
  void RemoveLocked(Stripe& s, Item* it);

  uint64_t HashKey(std::string_view key) const;
  uint64_t ExpireAt(uint32_t ttl_seconds) const;
  static bool Expired(const Item* it, uint64_t now) {
    const uint64_t e = it->expire_at_ns.load(std::memory_order_relaxed);
    return e != 0 && e <= now;
  }

  /// Lazy-expiry: re-verifies under the stripe lock that `h` still maps to
  /// `expected` and it is still expired, then removes it. The re-check
  /// makes the race with SET/TOUCH/DEL/sweep benign.
  void LazyExpire(uint64_t h, const Item* expected);

  uint64_t key_seed_;
  StoreClock clock_;
  uint64_t max_bytes_;
  std::unique_ptr<Sharded> table_;
  EpochReclaimer epoch_;
  mutable std::array<Stripe, kStripes> stripes_;
  std::atomic<uint64_t> items_{0};
  std::atomic<uint64_t> bytes_{0};
  std::atomic<size_t> evict_cursor_{0};
  mutable ServerMetrics metrics_;
};

}  // namespace server
}  // namespace mccuckoo

#endif  // MCCUCKOO_SERVER_ITEM_STORE_H_
