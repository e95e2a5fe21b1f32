// TTL, expiry, and eviction semantics of the ItemStore, on an injected
// clock — no test here ever sleeps; time moves only when the test advances
// it. Also covers the byte/item tallies and structural invariants after
// every sequence, since expiry and eviction are exactly where a tally can
// silently drift from the table. The eviction-rule cases put every key on
// one stripe, so the victim order is the documented one, not a mix of
// stripes.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/rng.h"
#include "src/server/item_store.h"

namespace mccuckoo {
namespace server {

/// Reaches the store's stripe map, item access counts and a Set with a
/// chosen key hash (the only way to make two keys collide in 64 bits).
class ItemStoreTestPeer {
 public:
  static uint64_t Hash(const ItemStore& store, std::string_view key) {
    return store.HashKey(key);
  }

  /// The first `n` keys "<prefix><i>" that share the stripe of key 0.
  static std::vector<std::string> SameStripeKeys(const ItemStore& store,
                                                 const std::string& prefix,
                                                 size_t n) {
    const size_t stripe = ItemStore::StripeOf(Hash(store, prefix + "0"));
    std::vector<std::string> keys;
    for (int i = 0; keys.size() < n; ++i) {
      std::string key = prefix + std::to_string(i);
      if (ItemStore::StripeOf(Hash(store, key)) == stripe) keys.push_back(key);
    }
    return keys;
  }

  /// Access count of the item the table holds under hash `h`; -1 if none.
  static int Hits(ItemStore& store, uint64_t h) {
    uint64_t pv = 0;
    if (!store.table().Find(h, &pv)) return -1;
    return reinterpret_cast<const ItemStore::Item*>(pv)->hits.load();
  }
  static int Hits(ItemStore& store, std::string_view key) {
    return Hits(store, Hash(store, key));
  }

  static Status SetWithHash(ItemStore& store, uint64_t h, std::string_view key,
                            std::string_view value) {
    return store.SetHashed(h, key, value, 0);
  }
};

namespace {

constexpr uint64_t kSecond = 1'000'000'000ull;

class TtlTest : public ::testing::Test {
 protected:
  /// Runs `body` on a fresh store.
  template <typename Body>
  void WithStore(ItemStoreOptions options, Body body) {
    // The clock reads the fixture's counter; Advance() is the only way
    // time passes.
    options.clock = [this] { return now_ns_; };
    ItemStore store(options);
    body(&store);
  }

  void Advance(uint64_t seconds) { now_ns_ += seconds * kSecond; }

  uint64_t now_ns_ = 1;  // Nonzero so expire_at never collides with "never".
};

TEST_F(TtlTest, EntryExpiresLazilyOnGet) {
  WithStore({}, [&](ItemStore* store) {
    ASSERT_TRUE(store->Set("k", "v", /*ttl_seconds=*/10).ok());
    std::string value;
    EXPECT_TRUE(store->Get("k", &value));
    EXPECT_EQ(value, "v");

    Advance(9);
    EXPECT_TRUE(store->Get("k", &value));  // 9s < 10s: still live.

    Advance(2);  // 11s total: expired.
    EXPECT_FALSE(store->Get("k", &value));
    EXPECT_EQ(store->metrics().expired_lazy.Value(), 1u);
    EXPECT_EQ(store->items(), 0u);  // The tripping reader reclaimed it.
    EXPECT_EQ(store->bytes(), 0u);
    EXPECT_TRUE(store->CheckInvariants().ok());
  });
}

TEST_F(TtlTest, TtlZeroNeverExpires) {
  WithStore({}, [&](ItemStore* store) {
    ASSERT_TRUE(store->Set("forever", "v", 0).ok());
    Advance(1u << 20);
    std::string value;
    EXPECT_TRUE(store->Get("forever", &value));
    EXPECT_EQ(store->SweepExpired(), 0u);
    EXPECT_EQ(store->items(), 1u);
  });
}

TEST_F(TtlTest, TouchExtendsLifetime) {
  WithStore({}, [&](ItemStore* store) {
    ASSERT_TRUE(store->Set("k", "v", 10).ok());
    Advance(8);
    EXPECT_TRUE(store->Touch("k", 10));  // New deadline: t=18s.
    Advance(8);                          // t=16s: would be dead without Touch.
    std::string value;
    EXPECT_TRUE(store->Get("k", &value));
    Advance(3);  // t=19s: past the refreshed deadline.
    EXPECT_FALSE(store->Get("k", &value));
  });
}

TEST_F(TtlTest, TouchCanRemoveExpiry) {
  WithStore({}, [&](ItemStore* store) {
    ASSERT_TRUE(store->Set("k", "v", 5).ok());
    EXPECT_TRUE(store->Touch("k", 0));  // 0 = clear the TTL.
    Advance(1000);
    std::string value;
    EXPECT_TRUE(store->Get("k", &value));
  });
}

TEST_F(TtlTest, TouchOnExpiredReclaimsAndReportsMiss) {
  WithStore({}, [&](ItemStore* store) {
    ASSERT_TRUE(store->Set("k", "v", 5).ok());
    Advance(6);
    EXPECT_FALSE(store->Touch("k", 100));  // Too late: gone, not refreshed.
    EXPECT_EQ(store->items(), 0u);
    EXPECT_EQ(store->metrics().expired_lazy.Value(), 1u);
    std::string value;
    EXPECT_FALSE(store->Get("k", &value));
  });
}

TEST_F(TtlTest, DelOnExpiredReportsAbsent) {
  WithStore({}, [&](ItemStore* store) {
    ASSERT_TRUE(store->Set("k", "v", 5).ok());
    Advance(6);
    EXPECT_FALSE(store->Del("k"));  // Expired before the DEL: "wasn't there".
    EXPECT_EQ(store->items(), 0u);
  });
}

TEST_F(TtlTest, SetOverwriteResetsTtl) {
  WithStore({}, [&](ItemStore* store) {
    ASSERT_TRUE(store->Set("k", "old", 5).ok());
    Advance(4);
    ASSERT_TRUE(store->Set("k", "new", 5).ok());  // Fresh 5s from t=4.
    Advance(4);                                   // t=8: old would be dead.
    std::string value;
    EXPECT_TRUE(store->Get("k", &value));
    EXPECT_EQ(value, "new");
    EXPECT_EQ(store->items(), 1u);
    EXPECT_TRUE(store->CheckInvariants().ok());
  });
}

TEST_F(TtlTest, SweepRemovesOnlyExpired) {
  WithStore({}, [&](ItemStore* store) {
    for (int i = 0; i < 50; ++i) {
      const std::string key = "short" + std::to_string(i);
      ASSERT_TRUE(store->Set(key, "v", 10).ok());
    }
    for (int i = 0; i < 30; ++i) {
      const std::string key = "long" + std::to_string(i);
      ASSERT_TRUE(store->Set(key, "v", 100).ok());
    }
    Advance(11);
    EXPECT_EQ(store->SweepExpired(), 50u);
    EXPECT_EQ(store->items(), 30u);
    EXPECT_EQ(store->metrics().expired_swept.Value(), 50u);
    EXPECT_GE(store->metrics().sweep_runs.Value(), 1u);
    std::string value;
    EXPECT_TRUE(store->Get("long0", &value));
    EXPECT_FALSE(store->Get("short0", &value));
    EXPECT_TRUE(store->CheckInvariants().ok());
    // Second sweep finds nothing new.
    EXPECT_EQ(store->SweepExpired(), 0u);
  });
}

TEST_F(TtlTest, GetBatchExpiresLazily) {
  WithStore({}, [&](ItemStore* store) {
    ASSERT_TRUE(store->Set("live", "a", 100).ok());
    ASSERT_TRUE(store->Set("dead", "b", 5).ok());
    Advance(6);
    const std::vector<std::string_view> keys = {"live", "dead", "missing"};
    std::vector<std::string> values;
    std::vector<uint8_t> found;
    EXPECT_EQ(store->GetBatch(keys, &values, &found), 1u);
    ASSERT_EQ(found.size(), 3u);
    EXPECT_TRUE(found[0]);
    EXPECT_EQ(values[0], "a");
    EXPECT_FALSE(found[1]);  // Expired mid-universe...
    EXPECT_FALSE(found[2]);
    EXPECT_EQ(store->items(), 1u);  // ...and reclaimed by the batch reader.
    EXPECT_EQ(store->metrics().expired_lazy.Value(), 1u);
  });
}

TEST_F(TtlTest, ByteTallyTracksPayloads) {
  WithStore({}, [&](ItemStore* store) {
    ASSERT_TRUE(store->Set("abc", "12345", 0).ok());   // 3 + 5 = 8 bytes
    ASSERT_TRUE(store->Set("de", "6", 0).ok());        // 2 + 1 = 3 bytes
    EXPECT_EQ(store->bytes(), 11u);
    ASSERT_TRUE(store->Set("abc", "1", 0).ok());       // Shrinks to 3 + 1.
    EXPECT_EQ(store->bytes(), 7u);
    EXPECT_TRUE(store->Del("de"));
    EXPECT_EQ(store->bytes(), 4u);
    EXPECT_EQ(store->items(), 1u);
    EXPECT_TRUE(store->CheckInvariants().ok());
  });
}

TEST_F(TtlTest, CapacityEvictionEnforcesMaxBytes) {
  ItemStoreOptions options;
  options.max_bytes = 1024;
  WithStore(options, [&](ItemStore* store) {
    const std::string value(100, 'v');
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE(store->Set("key" + std::to_string(i), value, 0).ok());
    }
    EXPECT_LE(store->bytes(), 1024u);
    EXPECT_GT(store->metrics().evictions_capacity.Value(), 0u);
    EXPECT_GT(store->items(), 0u);  // Evicts to fit, not to empty.
    EXPECT_TRUE(store->CheckInvariants().ok());
  });
}

TEST_F(TtlTest, GrowingStorePreloadsWithoutPressureEvictionOrReseed) {
  // Growth can act the whole time, so no SET may land in the stash (each
  // landing pressure-evicts two live items), and the growth engine must
  // only grow, never fall back to reseeding a choked size. Multi-writer
  // SETs place through the concurrent BFS search.
  ItemStoreOptions options;  // 64Ki initial slots, growth enabled
  options.clock = [this] { return now_ns_; };
  ItemStore store(options);
  constexpr uint64_t kKeys = uint64_t{1} << 20;
  char key[24];
  for (uint64_t i = 0; i < kKeys; ++i) {
    std::snprintf(key, sizeof(key), "k%016llx",
                  static_cast<unsigned long long>(SplitMix64(i)));
    ASSERT_TRUE(store.Set(key, "v", 0).ok()) << i;
  }
  EXPECT_EQ(store.items(), kKeys);
  EXPECT_EQ(store.metrics().evictions_pressure.Value(), 0u);
  const MetricsSnapshot m = store.table().metrics_snapshot();
  if constexpr (kMetricsEnabled) {
    EXPECT_GT(m.growth_rehashes, 0u);
  }
  EXPECT_EQ(m.growth_reseeds, 0u);
  EXPECT_TRUE(store.CheckInvariants().ok());
}

TEST_F(TtlTest, PressureEvictionWhenGrowthCapped) {
  // A tiny capped table: once placement fails into the stash, the store
  // must shed old items (graceful degradation) instead of erroring.
  ItemStoreOptions options;
  options.initial_slots = 64;
  options.shards = 1;
  options.growth_enabled = false;
  WithStore(options, [&](ItemStore* store) {
    for (int i = 0; i < 2000; ++i) {
      ASSERT_TRUE(store->Set("key" + std::to_string(i), "v", 0).ok()) << i;
    }
    EXPECT_GT(store->metrics().evictions_pressure.Value(), 0u);
    EXPECT_TRUE(store->CheckInvariants().ok());
    // Recent keys should still be retrievable: nothing read them, so the
    // victims were each stripe's oldest.
    std::string value;
    EXPECT_TRUE(store->Get("key1999", &value));
  });
}

TEST_F(TtlTest, OverwriteOfStashedItemsUnlinksTheOldItem) {
  // With growth off the tiny table parks items in its stash; a SET of such
  // a key must find the old item there and replace it, not link a second.
  ItemStoreOptions options;
  options.initial_slots = 64;
  options.shards = 1;
  options.growth_enabled = false;
  WithStore(options, [&](ItemStore* store) {
    for (int i = 0; i < 200; ++i) {
      ASSERT_TRUE(store->Set("key" + std::to_string(i), "old", 0).ok());
    }
    ASSERT_GT(store->table().stash_size(), 0u);
    std::vector<std::string> live;
    std::string value;
    for (int i = 0; i < 200; ++i) {
      const std::string key = "key" + std::to_string(i);
      if (store->Get(key, &value)) live.push_back(key);
    }
    const uint64_t evictions = store->metrics().evictions_pressure.Value();
    uint64_t bytes = 0;
    for (const std::string& key : live) {
      ASSERT_TRUE(store->Set(key, "new!", 0).ok());
      bytes += key.size() + 4;
    }
    // Overwrites place nothing new, so nothing more is evicted.
    EXPECT_EQ(store->metrics().evictions_pressure.Value(), evictions);
    EXPECT_EQ(store->items(), live.size());
    EXPECT_EQ(store->bytes(), bytes);
    for (const std::string& key : live) {
      ASSERT_TRUE(store->Get(key, &value)) << key;
      EXPECT_EQ(value, "new!");
    }
    EXPECT_TRUE(store->CheckInvariants().ok());
  });
}

TEST_F(TtlTest, PressureEvictionSparesAReadItem) {
  // One stripe, a tiny growth-off table: the first stash landing evicts two
  // items. The oldest item was read, so it is spared (moved to the tail)
  // and the next two unread items go instead.
  ItemStoreOptions options;
  options.initial_slots = 64;
  options.shards = 1;
  options.growth_enabled = false;
  WithStore(options, [&](ItemStore* store) {
    const std::vector<std::string> keys =
        ItemStoreTestPeer::SameStripeKeys(*store, "p", 400);
    std::string value;
    ASSERT_TRUE(store->Set(keys[0], "v", 0).ok());
    ASSERT_TRUE(store->Get(keys[0], &value));
    size_t landed = 0;  // Index of the SET whose stash landing evicted.
    for (size_t i = 1; i < keys.size() && landed == 0; ++i) {
      ASSERT_TRUE(store->Set(keys[i], "v", 0).ok());
      if (store->metrics().evictions_pressure.Value() != 0) landed = i;
    }
    ASSERT_GT(landed, 2u) << "no stash landing";
    EXPECT_EQ(store->metrics().evictions_pressure.Value(), 2u);
    EXPECT_EQ(store->metrics().evictions_spared.Value(), 1u);
    EXPECT_EQ(ItemStoreTestPeer::Hits(*store, keys[0]), 0);
    EXPECT_FALSE(store->Get(keys[1], &value));
    EXPECT_FALSE(store->Get(keys[2], &value));
    for (size_t i = 3; i <= landed; ++i) {
      EXPECT_TRUE(store->Get(keys[i], &value)) << i;
    }
    EXPECT_TRUE(store->Get(keys[0], &value));
    EXPECT_TRUE(store->CheckInvariants().ok());
  });
}

TEST_F(TtlTest, CapacityEvictionSparesAReadItem) {
  // max_bytes fits four 10-byte payloads; the fifth SET evicts one item.
  // The oldest was read, so the second-oldest goes.
  ItemStoreOptions options;
  options.shards = 1;
  options.max_bytes = 40;
  WithStore(options, [&](ItemStore* store) {
    const std::vector<std::string> keys =
        ItemStoreTestPeer::SameStripeKeys(*store, "c", 5);
    const auto value_for = [](const std::string& key) {
      return std::string(10 - key.size(), 'v');
    };
    for (size_t i = 0; i < 4; ++i) {
      ASSERT_TRUE(store->Set(keys[i], value_for(keys[i]), 0).ok());
    }
    std::string value;
    ASSERT_TRUE(store->Get(keys[0], &value));
    ASSERT_TRUE(store->Set(keys[4], value_for(keys[4]), 0).ok());
    EXPECT_EQ(store->metrics().evictions_capacity.Value(), 1u);
    EXPECT_EQ(store->metrics().evictions_spared.Value(), 1u);
    EXPECT_EQ(store->bytes(), 40u);
    EXPECT_FALSE(store->Get(keys[1], &value));
    for (const size_t i : {0, 2, 3, 4}) {
      EXPECT_TRUE(store->Get(keys[i], &value)) << i;
    }
    EXPECT_TRUE(store->CheckInvariants().ok());
  });
}

TEST_F(TtlTest, FullyMarkedStripeEvictsExactlyN) {
  // Every item on the stripe was read once. EvictOldest(2) spares each of
  // them once, which brings the oldest back to the head at count 0, so it
  // still evicts exactly two (the two oldest) and returns; the survivors
  // end one count lower.
  ItemStoreOptions options;
  options.shards = 1;
  WithStore(options, [&](ItemStore* store) {
    const std::vector<std::string> keys =
        ItemStoreTestPeer::SameStripeKeys(*store, "m", 5);
    for (const std::string& key : keys) {
      ASSERT_TRUE(store->Set(key, "v", 0).ok());
    }
    // A batched read marks as a single GET does.
    const std::vector<std::string_view> views(keys.begin(), keys.end());
    std::vector<std::string> values;
    std::vector<uint8_t> found;
    ASSERT_EQ(store->GetBatch(views, &values, &found), keys.size());
    EXPECT_EQ(store->EvictOldest(2, /*pressure=*/false), 2u);
    EXPECT_EQ(store->metrics().evictions_spared.Value(), keys.size());
    EXPECT_EQ(ItemStoreTestPeer::Hits(*store, keys[0]), -1);
    EXPECT_EQ(ItemStoreTestPeer::Hits(*store, keys[1]), -1);
    for (size_t i = 2; i < keys.size(); ++i) {
      EXPECT_EQ(ItemStoreTestPeer::Hits(*store, keys[i]), 0) << i;
    }
    EXPECT_EQ(store->items(), keys.size() - 2);
    EXPECT_TRUE(store->CheckInvariants().ok());
  });
}

TEST_F(TtlTest, SetUpdateCarriesTheCountACollisionDoesNot) {
  ItemStoreOptions options;
  options.shards = 1;
  WithStore(options, [&](ItemStore* store) {
    const std::vector<std::string> keys =
        ItemStoreTestPeer::SameStripeKeys(*store, "u", 3);
    const std::string& a = keys[0];
    std::string value;
    // An update counts as an access and inherits the old count, capped at
    // three.
    ASSERT_TRUE(store->Set(a, "v", 0).ok());
    ASSERT_TRUE(store->Get(a, &value));
    ASSERT_TRUE(store->Set(a, "v2", 0).ok());
    EXPECT_EQ(ItemStoreTestPeer::Hits(*store, a), 2);
    ASSERT_TRUE(store->Set(a, "v3", 0).ok());
    ASSERT_TRUE(store->Set(a, "v4", 0).ok());
    EXPECT_EQ(ItemStoreTestPeer::Hits(*store, a), 3);
    ASSERT_TRUE(store->Del(a));

    // Order a, b, a' (update), c: FIFO would evict b and a'. The update's
    // count spares a' once, so b and c go.
    ASSERT_TRUE(store->Set(a, "v", 0).ok());
    ASSERT_TRUE(store->Set(keys[1], "v", 0).ok());
    ASSERT_TRUE(store->Set(a, "v2", 0).ok());
    ASSERT_TRUE(store->Set(keys[2], "v", 0).ok());
    EXPECT_EQ(store->EvictOldest(2, /*pressure=*/true), 2u);
    EXPECT_TRUE(store->Get(a, &value));
    EXPECT_EQ(value, "v2");
    EXPECT_FALSE(store->Get(keys[1], &value));
    EXPECT_FALSE(store->Get(keys[2], &value));

    // A different key with a's 64-bit hash replaces it but starts unread.
    const uint64_t h = ItemStoreTestPeer::Hash(*store, a);
    ASSERT_GT(ItemStoreTestPeer::Hits(*store, h), 0);
    ASSERT_TRUE(ItemStoreTestPeer::SetWithHash(*store, h, "other", "x").ok());
    EXPECT_EQ(store->metrics().hash_collisions.Value(), 1u);
    EXPECT_EQ(ItemStoreTestPeer::Hits(*store, h), 0);
    EXPECT_FALSE(store->Get(a, &value));
    EXPECT_EQ(store->items(), 1u);
    EXPECT_TRUE(store->CheckInvariants().ok());
  });
}

TEST_F(TtlTest, DelTouchAndLazyExpiryIgnoreTheRule) {
  // TOUCH does not mark, a read count does not shield an item from expiry
  // or DEL, and an expired read marks nothing.
  ItemStoreOptions options;
  options.shards = 1;
  WithStore(options, [&](ItemStore* store) {
    const std::vector<std::string> keys =
        ItemStoreTestPeer::SameStripeKeys(*store, "d", 5);
    ASSERT_TRUE(store->Set(keys[0], "v", 100).ok());
    ASSERT_TRUE(store->Set(keys[1], "v", 100).ok());
    ASSERT_TRUE(store->Set(keys[2], "v", 5).ok());
    ASSERT_TRUE(store->Set(keys[3], "v", 0).ok());
    ASSERT_TRUE(store->Set(keys[4], "v", 5).ok());
    std::string value;
    ASSERT_TRUE(store->Get(keys[0], &value));
    ASSERT_TRUE(store->Get(keys[4], &value));
    EXPECT_TRUE(store->Touch(keys[1], 200));
    EXPECT_EQ(ItemStoreTestPeer::Hits(*store, keys[1]), 0);

    Advance(6);  // keys[2] and the read keys[4] expire.
    EXPECT_FALSE(store->Get(keys[2], &value));
    EXPECT_EQ(store->metrics().expired_lazy.Value(), 1u);
    EXPECT_FALSE(store->Touch(keys[4], 100));
    EXPECT_EQ(store->metrics().expired_lazy.Value(), 2u);

    // Stripe order keys[0] (read), keys[1] (touched), keys[3].
    EXPECT_EQ(store->EvictOldest(1, /*pressure=*/false), 1u);
    EXPECT_EQ(store->metrics().evictions_spared.Value(), 1u);
    EXPECT_FALSE(store->Get(keys[1], &value));
    EXPECT_TRUE(store->Del(keys[0]));
    EXPECT_FALSE(store->Get(keys[0], &value));
    EXPECT_EQ(store->items(), 1u);
    EXPECT_TRUE(store->CheckInvariants().ok());
  });
}

TEST_F(TtlTest, KeyLongerThanTheProtocolLimitIsRejected) {
  // An item stores its key length in 16 bits; the store takes the keys the
  // protocol accepts and refuses longer ones instead of truncating.
  WithStore({}, [&](ItemStore* store) {
    const std::string longest(kMaxKeyLen, 'k');
    ASSERT_TRUE(store->Set(longest, "v", 0).ok());
    std::string value;
    EXPECT_TRUE(store->Get(longest, &value));
    const Status s = store->Set(std::string(kMaxKeyLen + 1, 'k'), "v", 0);
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(store->items(), 1u);
    EXPECT_EQ(store->bytes(), kMaxKeyLen + 1);
  });
}

TEST_F(TtlTest, MetricsSnapshotCarriesGauges) {
  WithStore({}, [&](ItemStore* store) {
    ASSERT_TRUE(store->Set("k", "value", 0).ok());
    std::string v;
    store->Get("k", &v);
    store->Get("absent", &v);
    const ServerMetricsSnapshot snap = store->MetricsSnapshot();
    EXPECT_EQ(snap.items, 1u);
    EXPECT_EQ(snap.bytes, 6u);
    EXPECT_EQ(snap.get_hits, 1u);
    EXPECT_EQ(snap.get_misses, 1u);
    EXPECT_DOUBLE_EQ(snap.HitRatio(), 0.5);
  });
}

}  // namespace
}  // namespace server
}  // namespace mccuckoo
