// TTL, expiry, and eviction semantics of the ItemStore, on an injected
// clock — no test here ever sleeps; time moves only when the test advances
// it. Also covers the byte/item tallies and structural invariants after
// every sequence, since expiry and eviction are exactly where a tally can
// silently drift from the table.

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
    // Recent keys should still be retrievable (FIFO evicts the oldest).
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
