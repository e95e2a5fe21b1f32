// End-to-end cache-server throughput over loopback TCP.
//
// Starts an in-process CacheServer, drives it with blocking clients from
// this process, and measures four phases:
//
//   get    one key per request (request/response round trip per key)
//   mget   the same lookups batched --batch keys per MGET frame
//   set    value writes
//   mixed  90/10 GET/SET Zipf stream (GenerateZipfMixStream)
//
// The phases are rows of the one bench timing loop (bench/bench_driver.h):
// get and mget run in the same --reps interleaved rounds, as do set and
// mixed. Each server.<phase>.ops row records per-key throughput (best rep
// plus .median, .p25, .p75 and .reps), and server.<phase>.p50/.p99/.p999
// the *request* latency pooled over the rounds (per round trip; an MGET
// round trip covers --batch keys), all in BENCH_throughput.json with the
// meta.* rows. The interesting number is mget vs get: batching is the
// protocol-level analogue of the table's FindBatch, and the mget gate in
// bench/gates.txt asserts the server.mget.ops median >= 1.3x the
// server.get.ops median with separated quartiles. If batched GETs stop
// paying for themselves, the pipeline into FindBatch has regressed.
//
// All keys are "k%016llx" renderings of SplitMix64-scrambled Zipf ranks,
// so popularity skew and table placement stay independent (same trick as
// the opstream generator).

#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "bench/bench_driver.h"
#include "bench/bench_json.h"
#include "src/common/flags.h"
#include "src/common/rng.h"
#include "src/obs/timing.h"
#include "src/server/client.h"
#include "src/server/server.h"
#include "src/workload/opstream.h"
#include "src/workload/zipf.h"

namespace {

using mccuckoo::BenchGroup;
using mccuckoo::Flags;
using mccuckoo::NowNs;
using mccuckoo::server::CacheClient;
using mccuckoo::server::CacheServer;
using mccuckoo::server::MgetResult;
using mccuckoo::server::ServerOptions;

std::string KeyFor(uint64_t scrambled) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "k%016" PRIx64, scrambled);
  return std::string(buf);
}

/// Nearest-rank quantile `q` of `sorted` (non-empty), as a double.
double Quantile(const std::vector<uint64_t>& sorted, double q) {
  const size_t idx =
      static_cast<size_t>(q * static_cast<double>(sorted.size() - 1) + 0.5);
  return static_cast<double>(sorted[idx]);
}

/// Exits on a failed request: a round whose request failed has no rate.
void Check(const mccuckoo::Status& s, const char* where) {
  if (s.ok()) return;
  std::fprintf(stderr, "%s: %s\n", where, s.ToString().c_str());
  std::exit(1);
}

}  // namespace

int main(int argc, char** argv) {
  auto parsed = Flags::Parse(argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
    return 2;
  }
  const Flags& flags = parsed.value();
  const uint64_t ops = static_cast<uint64_t>(flags.GetInt("ops", 200000));
  const uint64_t key_universe =
      static_cast<uint64_t>(flags.GetInt("keys", 1 << 15));
  const size_t value_size = static_cast<size_t>(flags.GetInt("value-size", 64));
  const size_t batch = static_cast<size_t>(flags.GetInt("batch", 16));
  const double theta = flags.GetDouble("theta", 0.99);
  const int reps = static_cast<int>(flags.GetInt("reps", 5));
  if (reps < 1) {
    std::fprintf(stderr, "--reps must be positive\n");
    return 2;
  }

  ServerOptions options;
  options.threads = static_cast<int>(flags.GetInt("server-threads", 2));
  options.store.initial_slots = key_universe * 2;
  options.store.shards = 8;
  CacheServer server(options);
  Check(server.Start(), "start");
  std::printf("server on 127.0.0.1:%u, %" PRIu64 " ops x 4 phases x %d "
              "reps, %" PRIu64 " keys, theta %.2f\n",
              server.port(), ops, reps, key_universe, theta);

  CacheClient client;
  Check(client.Connect("127.0.0.1", server.port()), "connect");

  const std::string value(value_size, 'v');

  // Preload every key so the GET phases measure hits.
  for (uint64_t rank = 0; rank < key_universe; ++rank) {
    Check(client.Set(KeyFor(mccuckoo::SplitMix64(rank)), value),
          "preload set");
  }

  // One shared Zipf key sequence: get and mget fetch the *same* keys, so
  // their throughput ratio isolates the framing difference.
  mccuckoo::Xoshiro256 rng(42);
  const mccuckoo::ZipfGenerator zipf(key_universe, theta);
  std::vector<std::string> keys;
  keys.reserve(ops);
  for (uint64_t i = 0; i < ops; ++i) {
    keys.push_back(KeyFor(mccuckoo::SplitMix64(zipf.Sample(rng))));
  }
  mccuckoo::ZipfMixConfig mix;
  mix.key_universe = key_universe;
  mix.theta = theta;
  mix.set_fraction = 0.10;
  const std::vector<mccuckoo::Op> stream =
      mccuckoo::GenerateZipfMixStream(ops, mix);

  // Request latencies per phase, pooled over every round.
  std::map<std::string, std::vector<uint64_t>> lat;
  const auto timed = [](std::vector<uint64_t>& sink, auto request) {
    const uint64_t r0 = NowNs();
    request();
    sink.push_back(NowNs() - r0);
  };

  const auto get = [&] {  // one key per round trip
    std::vector<uint64_t>& sink = lat["get"];
    std::string v;
    bool found = false;
    for (const std::string& k : keys) {
      timed(sink, [&] { Check(client.Get(k, &v, &found), "get"); });
    }
    return ops;
  };
  const auto mget = [&] {  // the same keys, `batch` per frame
    std::vector<uint64_t>& sink = lat["mget"];
    std::vector<std::string> group;
    std::vector<MgetResult> results;
    for (size_t i = 0; i < keys.size(); i += batch) {
      const size_t end = std::min(i + batch, keys.size());
      group.assign(keys.begin() + static_cast<ptrdiff_t>(i),
                   keys.begin() + static_cast<ptrdiff_t>(end));
      timed(sink, [&] { Check(client.MGet(group, &results), "mget"); });
    }
    return ops;
  };
  const auto set = [&] {
    std::vector<uint64_t>& sink = lat["set"];
    for (const std::string& k : keys) {
      timed(sink, [&] { Check(client.Set(k, value), "set"); });
    }
    return ops;
  };
  const auto mixed = [&] {  // 90/10 GET/SET Zipf stream
    std::vector<uint64_t>& sink = lat["mixed"];
    std::string v;
    bool found = false;
    for (const mccuckoo::Op& op : stream) {
      const std::string k = KeyFor(op.key);
      timed(sink, [&] {
        Check(op.kind == mccuckoo::Op::Kind::kInsert
                  ? client.Set(k, value)
                  : client.Get(k, &v, &found),
              "mixed");
      });
    }
    return ops;
  };
  std::vector<BenchGroup> groups = {
      {{"server.get.ops", get}, {"server.mget.ops", mget}},
      {{"server.set.ops", set}, {"server.mixed.ops", mixed}}};

  const auto latency_rows = [&lat](const mccuckoo::BenchResults& results) {
    mccuckoo::FlatJson out;
    for (auto& [phase, ns] : lat) {
      std::sort(ns.begin(), ns.end());
      const std::string key = "server." + phase;
      out[key + ".p50"] = Quantile(ns, 0.50);
      out[key + ".p99"] = Quantile(ns, 0.99);
      out[key + ".p999"] = Quantile(ns, 0.999);
      std::printf("%-8s request latency p50 %8.0f ns   p99 %8.0f ns   "
                  "p999 %8.0f ns\n",
                  phase.c_str(), out[key + ".p50"], out[key + ".p99"],
                  out[key + ".p999"]);
    }
    const double speedup = results.at("server.mget.ops").median /
                           results.at("server.get.ops").median;
    out["server.mget_over_get"] = speedup;
    std::printf("mget/get speedup (medians): %.2fx\n", speedup);
    return out;
  };
  const int rc = mccuckoo::RunBenchToJson({.reps = reps}, std::move(groups),
                                          {"server."}, latency_rows);
  client.Close();
  server.Stop();
  return rc;
}
