// Concurrency stress for the cache server, built to run under TSan (the
// CI tsan job runs every test labeled "tsan"): many pipelined connections
// hammering one server whose table starts tiny, so the fill drives real
// shard growth (exclusive-writer escalation + drain) underneath live
// GET/SET/DEL traffic, with HTTP scrapes and STATS mixed in from other
// threads. Afterwards the test demands exact bookkeeping: the item-layer
// invariants hold and the live-item count equals what a full sweep of the
// keyspace finds, modulo only the pressure evictions the store reported.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/rng.h"
#include "src/server/client.h"
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
  // the exclusive-shard walks in /trace and /heatmap overlap writer
  // traffic.
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

}  // namespace
}  // namespace server
}  // namespace mccuckoo
