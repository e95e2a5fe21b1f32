// End-to-end integration: a real CacheServer on an ephemeral loopback
// port, driven through real client sockets. Covers the full request path
// (socket -> epoll -> Connection -> StoreHandler -> ItemStore -> table)
// that the unit tests exercise piecewise, and diffs the server against a
// std::unordered_map oracle with an expiry model on an injected clock.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/server/client.h"
#include "src/server/protocol.h"
#include "src/server/server.h"

namespace mccuckoo {
namespace server {
namespace {

constexpr uint64_t kSecond = 1'000'000'000ull;

/// The integer after `"key": ` at or past the first `anchor` in a JSON
/// body (the exporters' stable flat layout); fails the test when absent.
uint64_t JsonUint(const std::string& body, const std::string& anchor,
                  const std::string& key) {
  const size_t from = body.find(anchor);
  EXPECT_NE(from, std::string::npos) << anchor;
  const std::string needle = "\"" + key + "\": ";
  const size_t at = body.find(needle, from == std::string::npos ? 0 : from);
  EXPECT_NE(at, std::string::npos) << key;
  if (at == std::string::npos) return 0;
  return std::strtoull(body.c_str() + at + needle.size(), nullptr, 10);
}

class ServerIntegrationTest : public ::testing::Test {
 protected:
  void StartServer(ServerOptions options = {}) {
    now_ns_ = 1;
    // The injected clock makes TTL behaviour deterministic end to end: the
    // server's lazy expiry and periodic sweep both read this counter.
    options.store.clock = [this] {
      return now_ns_.load(std::memory_order_relaxed);
    };
    server_ = std::make_unique<CacheServer>(options);
    ASSERT_TRUE(server_->Start().ok());
    ASSERT_NE(server_->port(), 0);
  }

  void Advance(uint64_t seconds) {
    now_ns_.fetch_add(seconds * kSecond, std::memory_order_relaxed);
  }

  void ConnectClient(CacheClient* client) {
    ASSERT_TRUE(client->Connect("127.0.0.1", server_->port()).ok());
  }

  std::atomic<uint64_t> now_ns_{1};
  std::unique_ptr<CacheServer> server_;
};

TEST_F(ServerIntegrationTest, BasicRoundTrips) {
  StartServer();
  CacheClient client;
  ConnectClient(&client);

  ASSERT_TRUE(client.Set("hello", "world").ok());
  std::string value;
  bool found = false;
  ASSERT_TRUE(client.Get("hello", &value, &found).ok());
  EXPECT_TRUE(found);
  EXPECT_EQ(value, "world");

  ASSERT_TRUE(client.Get("absent", &value, &found).ok());
  EXPECT_FALSE(found);

  bool existed = false;
  ASSERT_TRUE(client.Del("hello", &existed).ok());
  EXPECT_TRUE(existed);
  ASSERT_TRUE(client.Del("hello", &existed).ok());
  EXPECT_FALSE(existed);

  ASSERT_TRUE(client.Set("t", "v", /*ttl_seconds=*/100).ok());
  ASSERT_TRUE(client.Touch("t", 200, &found).ok());
  EXPECT_TRUE(found);
  ASSERT_TRUE(client.Touch("absent", 200, &found).ok());
  EXPECT_FALSE(found);

  std::string stats;
  ASSERT_TRUE(client.Stats(&stats).ok());
  EXPECT_NE(stats.find("\"requests\""), std::string::npos);
  EXPECT_NE(stats.find("\"get\""), std::string::npos);
}

TEST_F(ServerIntegrationTest, MgetMixedHitsAndMisses) {
  StartServer();
  CacheClient client;
  ConnectClient(&client);
  ASSERT_TRUE(client.Set("a", "1").ok());
  ASSERT_TRUE(client.Set("c", "3").ok());
  std::vector<MgetResult> results;
  ASSERT_TRUE(client.MGet({"a", "b", "c", "d"}, &results).ok());
  ASSERT_EQ(results.size(), 4u);
  EXPECT_TRUE(results[0].found);
  EXPECT_EQ(results[0].value, "1");
  EXPECT_FALSE(results[1].found);
  EXPECT_TRUE(results[2].found);
  EXPECT_EQ(results[2].value, "3");
  EXPECT_FALSE(results[3].found);
}

TEST_F(ServerIntegrationTest, TtlExpiryOverTheWire) {
  StartServer();
  CacheClient client;
  ConnectClient(&client);
  ASSERT_TRUE(client.Set("soon", "gone", /*ttl_seconds=*/10).ok());
  ASSERT_TRUE(client.Set("later", "alive", /*ttl_seconds=*/1000).ok());
  Advance(11);
  std::string value;
  bool found = true;
  ASSERT_TRUE(client.Get("soon", &value, &found).ok());
  EXPECT_FALSE(found);
  ASSERT_TRUE(client.Get("later", &value, &found).ok());
  EXPECT_TRUE(found);
}

TEST_F(ServerIntegrationTest, PipelinedBatchAnswersInOrder) {
  StartServer();
  CacheClient client;
  ConnectClient(&client);
  ASSERT_TRUE(client.Set("p1", "v1").ok());
  ASSERT_TRUE(client.Set("p2", "v2").ok());
  client.PipelineGet("p1");
  client.PipelineGet("missing");
  client.PipelineSet("p3", "v3");
  client.PipelineGet("p2");
  client.PipelineDel("p1");
  EXPECT_EQ(client.pipeline_depth(), 5u);
  std::vector<PipelinedResult> results;
  ASSERT_TRUE(client.FlushPipeline(&results).ok());
  ASSERT_EQ(results.size(), 5u);
  EXPECT_EQ(results[0].status, RespStatus::kOk);
  EXPECT_EQ(results[0].body, "v1");
  EXPECT_EQ(results[1].status, RespStatus::kNotFound);
  EXPECT_EQ(results[2].status, RespStatus::kOk);
  EXPECT_EQ(results[3].body, "v2");
  EXPECT_EQ(results[4].status, RespStatus::kOk);  // DEL hit.
  // The pipeline really happened: p3 landed, p1 is gone.
  std::string value;
  bool found = false;
  ASSERT_TRUE(client.Get("p3", &value, &found).ok());
  EXPECT_TRUE(found);
  ASSERT_TRUE(client.Get("p1", &value, &found).ok());
  EXPECT_FALSE(found);
}

TEST_F(ServerIntegrationTest, OracleDiffUnderRandomOps) {
  StartServer();
  CacheClient client;
  ConnectClient(&client);

  // Oracle: value + absolute expiry deadline per key.
  struct Entry {
    std::string value;
    uint64_t expire_at_ns = 0;  // 0 = never.
  };
  std::unordered_map<std::string, Entry> oracle;
  const auto oracle_live = [&](const std::string& key) -> const Entry* {
    const auto it = oracle.find(key);
    if (it == oracle.end()) return nullptr;
    if (it->second.expire_at_ns != 0 &&
        it->second.expire_at_ns <= now_ns_.load(std::memory_order_relaxed)) {
      return nullptr;
    }
    return &it->second;
  };

  Xoshiro256 rng(20260807);
  const int kKeys = 200;
  for (int step = 0; step < 5000; ++step) {
    const std::string key = "key" + std::to_string(rng.Below(kKeys));
    const uint64_t dice = rng.Below(100);
    if (dice < 40) {  // GET
      std::string value;
      bool found = false;
      ASSERT_TRUE(client.Get(key, &value, &found).ok());
      const Entry* want = oracle_live(key);
      ASSERT_EQ(found, want != nullptr) << "step " << step << " key " << key;
      if (want != nullptr) {
        ASSERT_EQ(value, want->value);
      }
    } else if (dice < 70) {  // SET, sometimes with a TTL
      const uint32_t ttl = rng.Below(4) == 0
                               ? static_cast<uint32_t>(1 + rng.Below(50))
                               : 0;
      std::string value = "v";
      value += std::to_string(step);
      ASSERT_TRUE(client.Set(key, value, ttl).ok());
      const uint64_t now = now_ns_.load(std::memory_order_relaxed);
      oracle[key] = {value, ttl == 0 ? 0 : now + ttl * kSecond};
    } else if (dice < 85) {  // DEL
      bool existed = false;
      ASSERT_TRUE(client.Del(key, &existed).ok());
      ASSERT_EQ(existed, oracle_live(key) != nullptr) << "step " << step;
      oracle.erase(key);
    } else if (dice < 95) {  // TOUCH
      const uint32_t ttl = static_cast<uint32_t>(rng.Below(60));
      bool found = false;
      ASSERT_TRUE(client.Touch(key, ttl, &found).ok());
      const Entry* want = oracle_live(key);
      ASSERT_EQ(found, want != nullptr) << "step " << step;
      if (want != nullptr) {
        const uint64_t now = now_ns_.load(std::memory_order_relaxed);
        oracle[key].expire_at_ns = ttl == 0 ? 0 : now + ttl * kSecond;
      } else {
        oracle.erase(key);  // Expired entries are reclaimed by the touch.
      }
    } else {  // Time passes.
      Advance(1 + rng.Below(10));
    }
  }

  // Full final diff over the whole keyspace, through MGET.
  std::vector<std::string> all_keys;
  for (int i = 0; i < kKeys; ++i) all_keys.push_back("key" + std::to_string(i));
  std::vector<MgetResult> results;
  ASSERT_TRUE(client.MGet(all_keys, &results).ok());
  for (int i = 0; i < kKeys; ++i) {
    const Entry* want = oracle_live(all_keys[i]);
    ASSERT_EQ(results[i].found, want != nullptr) << all_keys[i];
    if (want != nullptr) {
      ASSERT_EQ(results[i].value, want->value);
    }
  }
  EXPECT_TRUE(server_->store().CheckInvariants().ok());
}

TEST_F(ServerIntegrationTest, ManyClientsDisjointKeyspaces) {
  ServerOptions options;
  options.threads = 3;
  StartServer(options);
  constexpr int kClients = 6;
  constexpr int kPerClient = 300;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      CacheClient client;
      if (!client.Connect("127.0.0.1", server_->port()).ok()) {
        failures.fetch_add(1);
        return;
      }
      for (int i = 0; i < kPerClient; ++i) {
        std::string key = "c";
        key += std::to_string(c);
        key += '-';
        key += std::to_string(i);
        std::string val = "val";
        val += std::to_string(i);
        if (!client.Set(key, val).ok()) {
          failures.fetch_add(1);
          return;
        }
      }
      for (int i = 0; i < kPerClient; ++i) {
        std::string key = "c";
        key += std::to_string(c);
        key += '-';
        key += std::to_string(i);
        std::string want = "val";
        want += std::to_string(i);
        std::string value;
        bool found = false;
        if (!client.Get(key, &value, &found).ok() || !found ||
            value != want) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(server_->store().items(),
            static_cast<uint64_t>(kClients) * kPerClient);
  EXPECT_TRUE(server_->store().CheckInvariants().ok());
  const ServerMetricsSnapshot snap = server_->metrics_snapshot();
  EXPECT_GE(snap.connections_accepted, static_cast<uint64_t>(kClients));
}

TEST_F(ServerIntegrationTest, HttpRoutesOnTheCachePort) {
  StartServer();
  CacheClient client;
  ConnectClient(&client);
  ASSERT_TRUE(client.Set("warm", "x").ok());
  std::string body;
  int code = 0;
  ASSERT_TRUE(CacheClient::HttpGet("127.0.0.1", server_->port(), "/metrics",
                                   &body, &code)
                  .ok());
  EXPECT_EQ(code, 200);
  EXPECT_NE(body.find("mccuckoo_server_requests_total"), std::string::npos);
  EXPECT_NE(body.find("mccuckoo_inserts_total"), std::string::npos);
  // The front-end charges no AccessStats, so the daemon exports none.
  EXPECT_EQ(body.find("mccuckoo_offchip_reads_total"), std::string::npos);

  ASSERT_TRUE(
      CacheClient::HttpGet("127.0.0.1", server_->port(), "/json", &body, &code)
          .ok());
  EXPECT_EQ(code, 200);
  EXPECT_NE(body.find("\"server\""), std::string::npos);
  EXPECT_NE(body.find("\"table\""), std::string::npos);
  EXPECT_EQ(body.find("\"access_stats\""), std::string::npos);

  ASSERT_TRUE(
      CacheClient::HttpGet("127.0.0.1", server_->port(), "/trace", &body, &code)
          .ok());
  EXPECT_EQ(code, 200);
  EXPECT_NE(body.find("traceEvents"), std::string::npos);

  ASSERT_TRUE(
      CacheClient::HttpGet("127.0.0.1", server_->port(), "/nope", &body, &code)
          .ok());
  EXPECT_EQ(code, 404);
}

TEST_F(ServerIntegrationTest, ServesAllFourRoutesOnEphemeralPort) {
  StartServer();  // Port 0: the kernel picks the port.
  std::string json;
  int code = 0;
  ASSERT_TRUE(
      CacheClient::HttpGet("127.0.0.1", server_->port(), "/json", &json, &code)
          .ok());
  EXPECT_EQ(code, 200);

  // The heatmap merges every shard, so it spans the whole table that
  // /json's table plane reports.
  std::string body;
  ASSERT_TRUE(CacheClient::HttpGet("127.0.0.1", server_->port(), "/heatmap",
                                   &body, &code)
                  .ok());
  EXPECT_EQ(code, 200);
  EXPECT_NE(body.find("\"counter_values\""), std::string::npos);
  EXPECT_GT(JsonUint(body, "{", "total_slots"), 0u);
  EXPECT_EQ(JsonUint(body, "{", "total_slots"),
            JsonUint(json, "\"table\"", "capacity_slots"));

  // The index lists all four routes.
  ASSERT_TRUE(
      CacheClient::HttpGet("127.0.0.1", server_->port(), "/", &body, &code)
          .ok());
  EXPECT_EQ(code, 200);
  for (const char* route : {"/metrics", "/json", "/trace", "/heatmap"}) {
    EXPECT_NE(body.find(route), std::string::npos) << route;
  }

  server_->Stop();
  EXPECT_FALSE(server_->running());
  server_->Stop();  // Idempotent.
}

TEST_F(ServerIntegrationTest, HttpJsonSeesLiveState) {
  StartServer();
  std::string body;
  ASSERT_TRUE(
      CacheClient::HttpGet("127.0.0.1", server_->port(), "/json", &body)
          .ok());
  const uint64_t before = JsonUint(body, "\"server\"", "items");
  CacheClient client;
  ConnectClient(&client);
  ASSERT_TRUE(client.Set("live", "x").ok());
  ASSERT_TRUE(
      CacheClient::HttpGet("127.0.0.1", server_->port(), "/json", &body)
          .ok());
  EXPECT_GT(JsonUint(body, "\"server\"", "items"), before);
}

TEST_F(ServerIntegrationTest, PortInUseFailsCleanly) {
  StartServer();
  ServerOptions options;
  options.port = server_->port();
  CacheServer second(options);
  EXPECT_FALSE(second.Start().ok());
  EXPECT_FALSE(second.running());
  // The failed Start must not have broken the first server.
  std::string body;
  int code = 0;
  ASSERT_TRUE(
      CacheClient::HttpGet("127.0.0.1", server_->port(), "/", &body, &code)
          .ok());
  EXPECT_EQ(code, 200);
}

TEST_F(ServerIntegrationTest, GarbageConnectionDoesNotPoisonServer) {
  StartServer();
  // Raw socket speaking nonsense: the server must answer kBadRequest and
  // close, without disturbing other connections.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(server_->port());
  ASSERT_EQ(
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)),
      0);
  const char junk[] = "\x01\x02totally not the protocol";
  ASSERT_GT(::send(fd, junk, sizeof(junk) - 1, 0), 0);
  // The error response arrives, then the server closes (recv -> 0).
  std::string reply;
  char buf[256];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    reply.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  Response resp;
  ASSERT_EQ(ParseResponse(reply, &resp).status, ParseStatus::kOk);
  EXPECT_EQ(resp.status, RespStatus::kBadRequest);

  // A well-behaved connection made afterwards is unaffected.
  CacheClient good;
  ConnectClient(&good);
  ASSERT_TRUE(good.Set("after", "ok").ok());
  std::string value;
  bool found = false;
  ASSERT_TRUE(good.Get("after", &value, &found).ok());
  EXPECT_TRUE(found);
  const ServerMetricsSnapshot snap = server_->metrics_snapshot();
  EXPECT_GE(snap.protocol_errors, 1u);
}

TEST_F(ServerIntegrationTest, FrameSplitAcrossWrites) {
  StartServer();
  // A frame delivered in two raw halves must still parse (the server's
  // input buffering spans reads).
  std::string frame;
  AppendSetRequest(&frame, "split", "value", 0, 1);
  std::string get;
  AppendGetRequest(&get, "split", 2);

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(server_->port());
  ASSERT_EQ(
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)),
      0);
  const size_t half = frame.size() / 2;
  ASSERT_EQ(::send(fd, frame.data(), half, 0), static_cast<ssize_t>(half));
  // Let the first half land as its own epoll event before the rest.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_EQ(::send(fd, frame.data() + half, frame.size() - half, 0),
            static_cast<ssize_t>(frame.size() - half));
  ASSERT_EQ(::send(fd, get.data(), get.size(), 0),
            static_cast<ssize_t>(get.size()));

  // Collect both response frames (SET ack, then the GET's value).
  std::string reply;
  char buf[256];
  std::vector<std::pair<uint32_t, std::string>> frames;
  while (frames.size() < 2) {
    Response resp;
    const ParseOutcome r = ParseResponse(reply, &resp);
    if (r.status == ParseStatus::kOk) {
      frames.emplace_back(resp.opaque, std::string(resp.body));
      reply.erase(0, r.consumed);
      continue;
    }
    ASSERT_EQ(r.status, ParseStatus::kNeedMore);
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    ASSERT_GT(n, 0);
    reply.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  EXPECT_EQ(frames[0].first, 1u);
  EXPECT_EQ(frames[1].first, 2u);
  EXPECT_EQ(frames[1].second, "value");
}

}  // namespace
}  // namespace server
}  // namespace mccuckoo
