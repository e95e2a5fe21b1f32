#include "src/server/item_store.h"

#include <bit>
#include <cassert>
#include <cstring>

#include "src/common/rng.h"
#include "src/obs/timing.h"

namespace mccuckoo {
namespace server {

namespace {

TableOptions StoreTableOptions(const ItemStoreOptions& options) {
  TableOptions t;
  t.num_hashes = 3;
  t.slots_per_bucket = 1;
  t.buckets_per_table =
      std::max<uint64_t>(1, (options.initial_slots + t.num_hashes - 1) /
                                t.num_hashes);
  t.seed = options.seed;
  // DEL, TTL expiry and eviction all erase; counter resets keep erased
  // buckets reusable at zero off-chip writes (tombstones would accrete).
  t.deletion_mode = DeletionMode::kResetCounters;
  t.growth_enabled = options.growth_enabled;
  return t;
}

}  // namespace

ItemStore::Item* ItemStore::Item::New(uint64_t hash, std::string_view key,
                                      std::string_view value,
                                      uint64_t expire_at_ns) {
  void* mem = ::operator new(sizeof(Item) + key.size() + value.size());
  Item* it = new (mem) Item();
  it->hash = hash;
  it->key_len = static_cast<uint16_t>(key.size());
  it->val_len = static_cast<uint32_t>(value.size());
  it->expire_at_ns.store(expire_at_ns, std::memory_order_relaxed);
  char* dst = reinterpret_cast<char*>(it + 1);
  std::memcpy(dst, key.data(), key.size());
  if (!value.empty()) std::memcpy(dst + key.size(), value.data(), value.size());
  return it;
}

ItemStore::ItemStore(const ItemStoreOptions& options)
    : key_seed_(SplitMix64(options.seed ^ 0xD6E8FEB86659FD93ull)),
      clock_(options.clock ? options.clock
                           : StoreClock([] { return NowNs(); })),
      max_bytes_(options.max_bytes) {
  table_ = std::make_unique<Sharded>(
      StoreTableOptions(options),
      std::bit_ceil(std::max<size_t>(1, options.shards)));
}

ItemStore::~ItemStore() {
  // No readers or writers may be active here; linked items were never
  // retired, so free them directly (the reclaimer frees the retired ones).
  for (Stripe& s : stripes_) {
    Item* it = s.head;
    while (it != nullptr) {
      Item* next = it->next;
      Item::Free(it);
      it = next;
    }
  }
}

uint64_t ItemStore::HashKey(std::string_view key) const {
  return XxHash64(key.data(), key.size(), key_seed_);
}

uint64_t ItemStore::ExpireAt(uint32_t ttl_seconds) const {
  if (ttl_seconds == 0) return 0;
  return clock_() + static_cast<uint64_t>(ttl_seconds) * 1'000'000'000ull;
}

void ItemStore::Link(Stripe& s, Item* it) {
  it->prev = s.tail;
  it->next = nullptr;
  if (s.tail != nullptr) {
    s.tail->next = it;
  } else {
    s.head = it;
  }
  s.tail = it;
}

void ItemStore::Unlink(Stripe& s, Item* it) {
  if (it->prev != nullptr) {
    it->prev->next = it->next;
  } else {
    s.head = it->next;
  }
  if (it->next != nullptr) {
    it->next->prev = it->prev;
  } else {
    s.tail = it->prev;
  }
  it->prev = it->next = nullptr;
}

void ItemStore::RemoveLocked(Stripe& s, Item* it) {
  table_->Erase(it->hash);
  Unlink(s, it);
  items_.fetch_sub(1, std::memory_order_relaxed);
  bytes_.fetch_sub(it->payload_bytes(), std::memory_order_relaxed);
  epoch_.Retire(it, &Item::Free);
}

void ItemStore::LazyExpire(uint64_t h, const Item* expected) {
  Stripe& s = stripes_[StripeOf(h)];
  std::lock_guard<std::mutex> l(s.mu);
  uint64_t pv = 0;
  if (!table_->Find(h, &pv)) return;
  Item* it = reinterpret_cast<Item*>(pv);
  if (it != expected) return;            // Replaced since the read.
  if (!Expired(it, clock_())) return;    // TOUCHed back to life since.
  RemoveLocked(s, it);
  metrics_.expired_lazy.Inc();
}

bool ItemStore::Get(std::string_view key, std::string* value_out) {
  const uint64_t h = HashKey(key);
  const uint64_t now = clock_();
  const Item* expired_item = nullptr;
  {
    EpochReclaimer::Guard g(epoch_);
    uint64_t pv = 0;
    if (table_->Find(h, &pv)) {
      Item* it = reinterpret_cast<Item*>(pv);
      if (it->key() == key) {
        if (!Expired(it, now)) {
          if (value_out != nullptr) value_out->assign(it->value());
          it->MarkHit();
          metrics_.get_hits.Inc();
          return true;
        }
        expired_item = it;
      }
      // Key mismatch: a different key owns this 64-bit hash — a miss for
      // the caller (counted as a collision when the writer overwrites).
    }
  }
  if (expired_item != nullptr) LazyExpire(h, expired_item);
  metrics_.get_misses.Inc();
  return false;
}

size_t ItemStore::GetBatch(std::span<const std::string_view> keys,
                           std::vector<std::string>* values,
                           std::vector<uint8_t>* found) {
  const size_t n = keys.size();
  values->clear();
  values->resize(n);
  found->assign(n, 0);
  if (n == 0) return 0;
  std::vector<uint64_t> hashes(n);
  for (size_t i = 0; i < n; ++i) hashes[i] = HashKey(keys[i]);
  std::vector<uint64_t> ptrs(n);
  std::vector<uint8_t> table_found(n);
  const uint64_t now = clock_();
  // (hash, item) pairs discovered expired inside the guard; reclaimed
  // after it drops so the expiry path never nests guard -> stripe lock.
  std::vector<std::pair<uint64_t, const Item*>> expired;
  size_t hits = 0;
  {
    EpochReclaimer::Guard g(epoch_);
    table_->FindBatch(std::span<const uint64_t>(hashes.data(), n), ptrs.data(),
                      reinterpret_cast<bool*>(table_found.data()));
    for (size_t i = 0; i < n; ++i) {
      if (table_found[i] == 0) continue;
      Item* it = reinterpret_cast<Item*>(ptrs[i]);
      if (it->key() != keys[i]) continue;
      if (Expired(it, now)) {
        expired.emplace_back(hashes[i], it);
        continue;
      }
      (*values)[i].assign(it->value());
      it->MarkHit();
      (*found)[i] = 1;
      ++hits;
    }
  }
  for (const auto& [h, it] : expired) LazyExpire(h, it);
  metrics_.batched_lookups.Inc(n);
  metrics_.get_hits.Inc(hits);
  metrics_.get_misses.Inc(n - hits);
  return hits;
}

Status ItemStore::Set(std::string_view key, std::string_view value,
                      uint32_t ttl_seconds) {
  if (key.empty()) return Status::InvalidArgument("empty key");
  if (key.size() > kMaxKeyLen) return Status::InvalidArgument("key too long");
  return SetHashed(HashKey(key), key, value, ttl_seconds);
}

Status ItemStore::SetHashed(uint64_t h, std::string_view key,
                            std::string_view value, uint32_t ttl_seconds) {
  Item* fresh = Item::New(h, key, value, ExpireAt(ttl_seconds));
  Stripe& s = stripes_[StripeOf(h)];
  InsertResult r;
  {
    std::lock_guard<std::mutex> l(s.mu);
    // One probe: the stripe lock serializes writers of this hash, so the
    // value InsertOrAssign replaced is the item to unlink.
    uint64_t pv = 0;
    r = table_->InsertOrAssign(h, reinterpret_cast<uint64_t>(fresh), &pv);
    if (r == InsertResult::kUpdated) {
      Item* old = reinterpret_cast<Item*>(pv);
      if (old->key() != key) {
        metrics_.hash_collisions.Inc();
      } else if (!Expired(old, clock_())) {
        // An update is an access: the fresh item inherits the old count
        // plus one. A reader may already have marked `fresh`; overwriting
        // that mark only misjudges warmth by one.
        fresh->hits.store(old->hits.load(std::memory_order_relaxed),
                          std::memory_order_relaxed);
        fresh->MarkHit();
      }
      Unlink(s, old);
      items_.fetch_sub(1, std::memory_order_relaxed);
      bytes_.fetch_sub(old->payload_bytes(), std::memory_order_relaxed);
      epoch_.Retire(old, &Item::Free);
    }
    Link(s, fresh);
    items_.fetch_add(1, std::memory_order_relaxed);
    bytes_.fetch_add(fresh->payload_bytes(), std::memory_order_relaxed);
  }
  // Eviction runs after the stripe lock drops: victims live on other
  // stripes, and taking a second stripe lock while holding ours could
  // deadlock against a Set evicting in the other direction.
  if (r == InsertResult::kStashed) {
    // The table absorbed the key into its stash — the GrowthPolicy
    // graceful-degradation signal that it cannot grow (disabled, capped,
    // or backing off). Relieve the pressure by evicting two items the
    // access counts mark as cold.
    EvictOldest(2, /*pressure=*/true);
  }
  while (max_bytes_ != 0 &&
         bytes_.load(std::memory_order_relaxed) > max_bytes_) {
    if (EvictOldest(1, /*pressure=*/false) == 0) break;
  }
  return Status::OK();
}

bool ItemStore::Del(std::string_view key) {
  const uint64_t h = HashKey(key);
  Stripe& s = stripes_[StripeOf(h)];
  std::lock_guard<std::mutex> l(s.mu);
  uint64_t pv = 0;
  if (!table_->Find(h, &pv)) return false;
  Item* it = reinterpret_cast<Item*>(pv);
  if (it->key() != key) return false;
  const bool was_live = !Expired(it, clock_());
  RemoveLocked(s, it);
  if (!was_live) metrics_.expired_lazy.Inc();
  return was_live;
}

bool ItemStore::Touch(std::string_view key, uint32_t ttl_seconds) {
  const uint64_t h = HashKey(key);
  Stripe& s = stripes_[StripeOf(h)];
  std::lock_guard<std::mutex> l(s.mu);
  uint64_t pv = 0;
  if (!table_->Find(h, &pv)) return false;
  Item* it = reinterpret_cast<Item*>(pv);
  if (it->key() != key) return false;
  if (Expired(it, clock_())) {
    // An expired item is gone as far as clients are concerned; reclaim it
    // rather than resurrecting stale data.
    RemoveLocked(s, it);
    metrics_.expired_lazy.Inc();
    return false;
  }
  it->expire_at_ns.store(ExpireAt(ttl_seconds), std::memory_order_relaxed);
  return true;
}

size_t ItemStore::SweepExpired() {
  const uint64_t now = clock_();
  size_t reclaimed = 0;
  for (Stripe& s : stripes_) {
    std::lock_guard<std::mutex> l(s.mu);
    Item* it = s.head;
    while (it != nullptr) {
      Item* next = it->next;
      if (Expired(it, now)) {
        RemoveLocked(s, it);
        ++reclaimed;
      }
      it = next;
    }
  }
  metrics_.sweep_runs.Inc();
  metrics_.expired_swept.Inc(reclaimed);
  epoch_.TryReclaim();
  return reclaimed;
}

size_t ItemStore::EvictOldest(size_t n, bool pressure) {
  size_t evicted = 0;
  size_t spared = 0;
  size_t empty_streak = 0;
  while (evicted < n && empty_streak < kStripes) {
    Stripe& s = stripes_[evict_cursor_.fetch_add(1, std::memory_order_relaxed) %
                         kStripes];
    std::lock_guard<std::mutex> l(s.mu);
    if (s.head == nullptr) {
      ++empty_streak;
      continue;
    }
    empty_streak = 0;
    // A counted head gives one count back and goes to the tail. Each spare
    // undoes one access, so the walk ends, amortized O(1) per access.
    Item* victim = s.head;
    while (const uint8_t c = victim->hits.load(std::memory_order_relaxed)) {
      victim->hits.store(static_cast<uint8_t>(c - 1),
                         std::memory_order_relaxed);
      Unlink(s, victim);
      Link(s, victim);
      ++spared;
      victim = s.head;
    }
    RemoveLocked(s, victim);
    (pressure ? metrics_.evictions_pressure : metrics_.evictions_capacity)
        .Inc();
    ++evicted;
  }
  metrics_.evictions_spared.Inc(spared);
  return evicted;
}

ServerMetricsSnapshot ItemStore::MetricsSnapshot() const {
  ServerMetricsSnapshot s = metrics_.Snapshot();
  s.items = items_.load(std::memory_order_relaxed);
  s.bytes = bytes_.load(std::memory_order_relaxed);
  return s;
}

Status ItemStore::CheckInvariants() const {
  auto* self = const_cast<ItemStore*>(this);
  for (size_t i = 0; i < table_->num_shards(); ++i) {
    Status st = self->table_->WithExclusiveShard(
        i, [](Table& t) { return t.CheckInvariants(); });
    if (!st.ok()) return st;
  }
  uint64_t listed = 0;
  uint64_t listed_bytes = 0;
  for (Stripe& s : stripes_) {
    std::lock_guard<std::mutex> l(s.mu);
    for (const Item* it = s.head; it != nullptr; it = it->next) {
      if (StripeOf(it->hash) != static_cast<size_t>(&s - stripes_.data())) {
        return Status::Internal("item linked on the wrong stripe");
      }
      uint64_t pv = 0;
      if (!table_->Find(it->hash, &pv) ||
          reinterpret_cast<const Item*>(pv) != it) {
        return Status::Internal("linked item is not the table entry");
      }
      ++listed;
      listed_bytes += it->payload_bytes();
    }
  }
  if (listed != items_.load(std::memory_order_relaxed)) {
    return Status::Internal("stripe-list count != items tally");
  }
  if (listed_bytes != bytes_.load(std::memory_order_relaxed)) {
    return Status::Internal("stripe-list bytes != bytes tally");
  }
  if (table_->TotalItems() != listed) {
    return Status::Internal("table entries != stripe-list count");
  }
  return Status::OK();
}

}  // namespace server
}  // namespace mccuckoo
