// Concurrency stress for the cache server, built to run under TSan (the
// CI tsan job runs every test labeled "tsan"): many pipelined connections
// hammering one server whose table starts tiny, so the fill drives real
// shard growth (exclusive-writer escalation + drain) underneath live
// GET/SET/DEL traffic, with HTTP scrapes and STATS mixed in from other
// threads. Afterwards the test demands exact bookkeeping: the item-layer
// invariants hold and the live-item count equals what a full sweep of the
// keyspace finds, modulo only the pressure evictions the store reported.
// A second case drives the ItemStore directly: readers mark items while
// writers overfill a growth-off store, so eviction spares and relinks the
// very items the readers are marking.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/rng.h"
#include "src/server/client.h"
#include "src/server/item_store.h"
#include "src/server/server.h"

namespace mccuckoo {
namespace server {
namespace {

constexpr int kConnections = 8;
constexpr int kKeysPerConn = 1500;
constexpr int kPipelineChunk = 64;

std::string OwnedKey(int conn, int i) {
  std::string key = "c";
  key += std::to_string(conn);
  key += '-';
  key += std::to_string(i);
  return key;
}

std::string ValueOf(int i) {
  std::string value = "v";
  value += std::to_string(i);
  return value;
}

TEST(ServerStressTest, PipelinedConnectionsThroughGrowth) {
  ServerOptions options;
  options.threads = 4;
  options.sweep_interval_ms = 50;
  options.store.initial_slots = 1 << 10;  // Tiny: the fill forces growth.
  options.store.shards = 4;
  CacheServer server(options);
  ASSERT_TRUE(server.Start().ok());

  std::atomic<int> failures{0};
  std::atomic<bool> scraping{true};
  const auto fail = [&](const char* what) {
    failures.fetch_add(1);
    ADD_FAILURE() << what;
  };

  // HTTP scraper: hits the stats routes while the table is growing, so
  // their aux-stripe reads (the span rings behind /trace, the counter scans
  // behind /heatmap) overlap writer traffic and growth.
  std::thread scraper([&] {
    while (scraping.load(std::memory_order_relaxed)) {
      for (const char* route : {"/metrics", "/trace", "/heatmap"}) {
        std::string body;
        int code = 0;
        if (!CacheClient::HttpGet("127.0.0.1", server.port(), route, &body,
                                  &code)
                 .ok() ||
            code != 200) {
          fail(route);
          return;
        }
      }
    }
  });

  std::vector<std::thread> workers;
  for (int c = 0; c < kConnections; ++c) {
    workers.emplace_back([&, c] {
      CacheClient client;
      if (!client.Connect("127.0.0.1", server.port()).ok()) {
        fail("connect failed");
        return;
      }
      Xoshiro256 rng(1000 + static_cast<uint64_t>(c));
      std::vector<PipelinedResult> results;

      // Phase 1: pipelined fill of this connection's own keyspace.
      for (int base = 0; base < kKeysPerConn; base += kPipelineChunk) {
        const int end = std::min(base + kPipelineChunk, kKeysPerConn);
        for (int i = base; i < end; ++i) {
          client.PipelineSet(OwnedKey(c, i), "value" + std::to_string(i));
        }
        if (!client.FlushPipeline(&results).ok()) {
          fail("pipelined fill flush failed");
          return;
        }
        for (const PipelinedResult& r : results) {
          if (r.status != RespStatus::kOk) {
            fail("pipelined SET rejected");
            return;
          }
        }
      }

      // Phase 2: mixed pipelined traffic — reread own keys, delete every
      // third, interleave STATS and shared-key churn with other threads.
      for (int i = 0; i < kKeysPerConn; ++i) {
        if (i % 3 == 0) {
          client.PipelineDel(OwnedKey(c, i));
        } else {
          client.PipelineGet(OwnedKey(c, i));
        }
        // Shared hot keys: every connection reads and writes these, so
        // stripe locks, optimistic readers, and the epoch reclaimer all
        // contend for real.
        const std::string shared = "hot" + std::to_string(rng.Below(64));
        if (rng.Below(2) == 0) {
          client.PipelineSet(shared, "from" + std::to_string(c));
        } else {
          client.PipelineGet(shared);
        }
        if (client.pipeline_depth() >= kPipelineChunk) {
          if (!client.FlushPipeline(&results).ok()) {
            fail("mixed flush failed");
            return;
          }
          for (const PipelinedResult& r : results) {
            if (r.status == RespStatus::kOk && !r.body.empty() &&
                r.body[0] != 'v' && r.body[0] != 'f') {
              fail("corrupt value read");  // Wrong bytes = torn read.
              return;
            }
          }
        }
      }
      if (!client.FlushPipeline(&results).ok()) fail("final flush failed");

      std::string stats;
      if (!client.Stats(&stats).ok()) fail("stats failed");
    });
  }

  for (auto& t : workers) t.join();
  scraping.store(false, std::memory_order_relaxed);
  scraper.join();
  ASSERT_EQ(failures.load(), 0);

  // Growth really happened (the point of the tiny initial table).
  if constexpr (kMetricsEnabled) {
    EXPECT_GT(server.store().table().metrics_snapshot().growth_rehashes, 0u);
  }
  EXPECT_TRUE(server.store().CheckInvariants().ok());

  // Exact tallies. Every key the keyspace can contain is probed; what the
  // probe finds live must equal items() exactly, and the gap between the
  // expected survivors and the found survivors must be fully explained by
  // the pressure evictions the store counted (nothing else removes keys:
  // no TTLs were set and max_bytes is 0).
  CacheClient auditor;
  ASSERT_TRUE(auditor.Connect("127.0.0.1", server.port()).ok());
  uint64_t found_owned = 0;
  uint64_t found_deleted = 0;
  std::vector<std::string> batch;
  std::vector<MgetResult> results;
  for (int c = 0; c < kConnections; ++c) {
    for (int i = 0; i < kKeysPerConn; ++i) {
      batch.push_back(OwnedKey(c, i));
      if (batch.size() == 256 || (c == kConnections - 1 &&
                                  i == kKeysPerConn - 1)) {
        ASSERT_TRUE(auditor.MGet(batch, &results).ok());
        for (size_t j = 0; j < batch.size(); ++j) {
          if (!results[j].found) continue;
          const size_t dash = batch[j].find('-');
          const int idx = std::stoi(batch[j].substr(dash + 1));
          if (idx % 3 == 0) {
            ++found_deleted;  // Deleted keys must never resurrect.
          } else {
            ++found_owned;
          }
        }
        batch.clear();
      }
    }
  }
  EXPECT_EQ(found_deleted, 0u);
  uint64_t found_shared = 0;
  batch.clear();
  for (int i = 0; i < 64; ++i) batch.push_back("hot" + std::to_string(i));
  ASSERT_TRUE(auditor.MGet(batch, &results).ok());
  for (const MgetResult& r : results) found_shared += r.found ? 1 : 0;

  const ServerMetricsSnapshot snap = server.metrics_snapshot();
  const uint64_t expected_live =
      static_cast<uint64_t>(kConnections) * kKeysPerConn -
      static_cast<uint64_t>(kConnections) * ((kKeysPerConn + 2) / 3);
  EXPECT_EQ(server.store().items(), found_owned + found_shared);
  EXPECT_LE(found_owned, expected_live);
  EXPECT_GE(found_owned + snap.evictions_pressure, expected_live);
  EXPECT_EQ(snap.protocol_errors, 0u);

  server.Stop();
  EXPECT_FALSE(server.running());
}

TEST(ServerStressTest, ReadMarkingRacesSparingEviction) {
  // Readers raise access counts through Get and GetBatch, without a lock,
  // while writers SET into a capped growth-off store (every stash landing
  // walks a stripe, sparing and relinking marked items) and DEL every
  // third key a little after setting it.
  constexpr int kWriters = 3;
  constexpr int kReaders = 2;
  constexpr int kKeys = 3000;
  constexpr int kDelLag = 16;
  ItemStoreOptions options;
  options.initial_slots = 1 << 11;  // Overfilled several times over.
  options.shards = 2;
  options.growth_enabled = false;
  ItemStore store(options);

  std::array<std::atomic<int>, kWriters> progress{};
  std::atomic<int> writers_left{kWriters};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      for (int i = 0; i < kKeys; ++i) {
        if (!store.Set(OwnedKey(w, i), ValueOf(i), 0).ok()) {
          failures.fetch_add(1);
        }
        progress[w].store(i + 1, std::memory_order_release);
        const int d = i - kDelLag;
        if (d >= 0 && d % 3 == 0) store.Del(OwnedKey(w, d));
      }
      for (int d = std::max(0, kKeys - kDelLag); d < kKeys; ++d) {
        if (d % 3 == 0) store.Del(OwnedKey(w, d));
      }
      writers_left.fetch_sub(1);
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      Xoshiro256 rng(77 + static_cast<uint64_t>(r));
      std::vector<std::string> keys;
      std::vector<std::string_view> views;
      std::vector<std::string> values;
      std::vector<uint8_t> found;
      std::string value;
      const auto pick = [&](int* idx) {
        const int w = static_cast<int>(rng.Below(kWriters));
        const int n = progress[w].load(std::memory_order_acquire);
        // Recent keys are the likeliest to be live, hence to be marked.
        *idx = n == 0 ? 0 : n - 1 - static_cast<int>(rng.Below(
                                        static_cast<uint64_t>(std::min(n, 64))));
        return OwnedKey(w, *idx);
      };
      while (writers_left.load(std::memory_order_relaxed) > 0) {
        int idx = 0;
        const std::string key = pick(&idx);
        if (store.Get(key, &value) && value != ValueOf(idx)) {
          failures.fetch_add(1);
        }
        keys.clear();
        std::vector<int> idxs;
        for (int k = 0; k < 8; ++k) {
          keys.push_back(pick(&idx));
          idxs.push_back(idx);
        }
        views.assign(keys.begin(), keys.end());
        store.GetBatch(views, &values, &found);
        for (size_t k = 0; k < keys.size(); ++k) {
          if (found[k] && values[k] != ValueOf(idxs[k])) {
            failures.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  ASSERT_EQ(failures.load(), 0);
  EXPECT_TRUE(store.CheckInvariants().ok());

  // Same accounting as the server case: the only removals besides DEL are
  // the pressure evictions the store counted.
  uint64_t found_owned = 0;
  uint64_t found_deleted = 0;
  std::string value;
  for (int w = 0; w < kWriters; ++w) {
    for (int i = 0; i < kKeys; ++i) {
      if (!store.Get(OwnedKey(w, i), &value)) continue;
      ++(i % 3 == 0 ? found_deleted : found_owned);
    }
  }
  const ServerMetricsSnapshot snap = store.MetricsSnapshot();
  const uint64_t expected_live =
      static_cast<uint64_t>(kWriters) * (kKeys - (kKeys + 2) / 3);
  EXPECT_EQ(found_deleted, 0u);
  EXPECT_EQ(store.items(), found_owned);
  EXPECT_LE(found_owned, expected_live);
  EXPECT_GT(snap.evictions_pressure, 0u);
  EXPECT_GT(snap.evictions_spared, 0u);
  EXPECT_GE(found_owned + snap.evictions_pressure, expected_live);

  // Every retired item is reclaimable once no guard is held.
  store.ReclaimRetired();
  EXPECT_EQ(store.ReclaimRetired(), 0u);
}

}  // namespace
}  // namespace server
}  // namespace mccuckoo
