// mcbench: one-core, closed-loop benchmark of the cache server.
//
//   mcbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//           [--trace-dir DIR] [--smoke]
//
// Builds an in-process CacheServer with default ServerOptions, preloads it
// through store().Set() before Start(), and drives it over loopback with
// one CacheClient connection: closed loop, kDepth pipelined requests per
// FlushPipeline. The process pins itself to one CPU first, so the server's
// worker threads share that CPU with the client.
//
// --trace 0 measures the end-to-end metrics over back-to-back segments
// that each span one TTL sweep period, and keeps the best segment. Metrics
// not gated by BENCHMARK.json get a text line but stay out of the JSON
// result. --trace 1 interleaves rounds
// that replay the workload's requests layer by layer (benchmark/replay.h)
// with end-to-end segments, sums the store's and table's counters over the
// segments, prints the per-layer ledger and writes a chrome-trace JSON to
// --trace-dir.
//
// Stdout gets one "workload/metric value unit" line per metric, meta.*
// lines, and as its last line a JSON object with the keys correct,
// attempted, failed and metrics. A desynchronised pipeline or a failed
// invariant check exits non-zero without that line; wrong responses print
// it with "correct": false and exit non-zero. See benchmark/README.md.

#include <malloc.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "benchmark/replay.h"
#include "benchmark/trace.h"
#include "benchmark/workload.h"
#include "src/hash/xxhash.h"
#include "src/obs/metrics.h"
#include "src/obs/server_metrics.h"
#include "src/obs/timing.h"
#include "src/server/client.h"
#include "src/server/server.h"

#ifndef MCBENCH_BUILD_TYPE
#define MCBENCH_BUILD_TYPE "unknown"
#endif

namespace mcbench {
namespace {

using mccuckoo::MetricsSnapshot;
using mccuckoo::NowNs;
using mccuckoo::ServerMetricsSnapshot;
using mccuckoo::Status;
using mccuckoo::server::CacheClient;
using mccuckoo::server::CacheServer;
using mccuckoo::server::ItemStore;
using mccuckoo::server::PipelinedResult;
using mccuckoo::server::ServerOptions;

// A replay round sends as many requests as an eighth of the workload's
// keys, within these limits, so a layer's pass over a round reaches about
// as far into the store as the workload does. A traced run spends this
// share of --seconds on replay rounds and the rest on end-to-end segments.
constexpr size_t kMinRoundOps = 1 << 14;
constexpr size_t kMaxRoundOps = 1 << 18;
constexpr double kReplayShare = 0.25;
// Preload keys a GET-only workload replays as SETs for its write-path
// per-layer metrics.
constexpr uint32_t kTailSets = 4096;
// Untimed requests after Start(), so the measured segments begin warm.
constexpr size_t kWarmupOps = 1 << 16;
// A segment ends at the end of a TTL sweep (one per second by default), or
// after this long, so that a server without periodic sweeps still ends
// its segments.
constexpr uint64_t kMaxSegmentNs = 4'000'000'000;
// A traced segment records every this-many-th FlushPipeline as a span.
constexpr size_t kFlushSpanEvery = 16;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  std::string trace_dir = ".bench_build/trace";
};

bool ParseArgs(int argc, char** argv, Args* a) {
  bool seconds_given = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    std::string value;
    if (flag == "--smoke") {
      a->smoke = true;
      continue;
    }
    if (const size_t eq = flag.find('='); eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag.resize(eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      std::fprintf(stderr, "mcbench: %s needs a value\n", flag.c_str());
      return false;
    }
    char* end = nullptr;
    if (flag == "--workload") {
      a->workload = value;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      a->seconds = std::strtod(value.c_str(), &end);
      seconds_given = true;
    } else if (flag == "--trace") {
      a->trace = std::strtol(value.c_str(), &end, 10) != 0;
    } else if (flag == "--trace-dir") {
      a->trace_dir = value;
    } else {
      std::fprintf(stderr, "mcbench: unknown flag %s\n", flag.c_str());
      return false;
    }
    if (end != nullptr && (*end != '\0' || value.empty())) {
      std::fprintf(stderr, "mcbench: bad value for %s: %s\n", flag.c_str(),
                   value.c_str());
      return false;
    }
  }
  if (a->smoke && !seconds_given) a->seconds = 1;
  if (a->workload.empty() || !(a->seconds > 0)) {
    std::fprintf(stderr, "mcbench: --workload NAME and --seconds > 0 needed\n");
    return false;
  }
  return true;
}

[[noreturn]] void Die(const std::string& what, const Status& s) {
  std::fprintf(stderr, "mcbench: %s: %s\n", what.c_str(),
               s.ToString().c_str());
  std::exit(1);
}

/// Confines the process to the highest-numbered CPU it may run on; threads
/// started later inherit the mask. Returns that CPU.
int PinToOneCpu() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) {
    Die("pin", Status::Internal("sched_getaffinity failed"));
  }
  int cpu = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpu = c;
  }
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  if (cpu < 0 || sched_setaffinity(0, sizeof(set), &set) != 0) {
    Die("pin", Status::Internal("sched_setaffinity failed"));
  }
  return cpu;
}

double Ratio(double num, double den) { return den != 0 ? num / den : 0; }

template <typename T>
T Median(std::vector<T> v) {
  std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
  return v[v.size() / 2];
}

uint64_t HeapBytes() {
  const struct mallinfo2 mi = mallinfo2();
  return mi.uordblks + mi.hblkhd;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
  bool gated = true;  ///< In the JSON result; else on its text line only.
};

void PrintResult(const std::string& workload, const std::vector<Metric>& m,
                 bool correct, uint64_t attempted, uint64_t failed) {
  for (const Metric& x : m) {
    std::printf("%s/%s %.9g %s\n", workload.c_str(), x.name.c_str(), x.value,
                x.unit);
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  const char* sep = "";
  for (const Metric& x : m) {
    if (!x.gated) continue;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep,
                x.name.c_str(), x.value, x.unit);
    sep = ", ";
  }
  std::printf("}}\n");
}

/// Builds a server and SETs the first `count` preload ids through
/// store().Set(), before Start(). Reports the wall time of both and the
/// heap bytes the store holds per item.
std::unique_ptr<CacheServer> SetUp(const Workload& w, const Keyspace& keys,
                                   uint32_t count, double* seconds,
                                   double* bytes_per_item) {
  ServerOptions options;
  options.store.initial_slots = w.initial_slots;
  options.store.growth_enabled = w.growth;
  const uint64_t heap0 = HeapBytes();
  const uint64_t t0 = NowNs();
  auto server = std::make_unique<CacheServer>(options);
  char k[kKeyLen];
  char v[kValueLen];
  for (uint32_t i = 0; i < count; ++i) {
    const uint32_t id = PreloadId(w, i);
    keys.Key(id, k);
    keys.Value(id, v);
    const Status s = server->store().Set(std::string_view(k, kKeyLen),
                                         std::string_view(v, kValueLen), 0);
    if (!s.ok()) Die("preload", s);
  }
  *seconds = static_cast<double>(NowNs() - t0) * 1e-9;
  server->store().ReclaimRetired();
  *bytes_per_item = Ratio(static_cast<double>(HeapBytes() - heap0),
                          static_cast<double>(server->store().items()));
  return server;
}

/// The replay looks keys up by hash in the live table; check that the
/// benchmark hashes keys the way the store does, on preloaded keys the
/// store still holds.
void CheckKeySeed(ItemStore& store, const Workload& w, const Keyspace& keys,
                  uint32_t preloaded) {
  char k[kKeyLen];
  std::string v;
  int held = 0;
  for (uint32_t i = preloaded; i > 0 && preloaded - i < kDepth; --i) {
    keys.Key(PreloadId(w, i - 1), k);
    if (!store.Get(std::string_view(k, kKeyLen), &v)) continue;
    ++held;
    if (!store.table().Find(mccuckoo::XxHash64(k, kKeyLen, StoreKeySeed()))) {
      Die("key hash", Status::Internal("benchmark and store hash keys apart"));
    }
  }
  if (held == 0) Die("key hash", Status::Internal("no preloaded key held"));
}

/// The client side: one connection, closed loop, kDepth requests per
/// FlushPipeline, every response checked.
class LoadGen {
 public:
  LoadGen(const Keyspace& keys, RequestStream* stream, Checker* checker,
          const CacheServer& server)
      : keys_(keys),
        stream_(stream),
        checker_(checker),
        sweep_runs_(server.store().metrics().sweep_runs),
        sweeps_seen_(sweep_runs_.Value()) {}

  Status Connect(uint16_t port) { return client_.Connect("127.0.0.1", port); }
  void Close() { client_.Close(); }

  /// Sends the stream's next kDepth requests with one FlushPipeline and
  /// checks every response. Reports when the round trip began and ended.
  Status SendPipeline(uint64_t* start_ns, uint64_t* end_ns) {
    char k[kKeyLen];
    char v[kValueLen];
    uint32_t pipe[kDepth];
    for (size_t j = 0; j < kDepth; ++j) {
      const uint32_t op = stream_->Next();
      pipe[j] = op;
      keys_.Key(op & ~kSetBit, k);
      if ((op & kSetBit) != 0) {
        keys_.Value(op & ~kSetBit, v);
        client_.PipelineSet(std::string_view(k, kKeyLen),
                            std::string_view(v, kValueLen));
      } else {
        client_.PipelineGet(std::string_view(k, kKeyLen));
      }
    }
    *start_ns = NowNs();
    const Status s = client_.FlushPipeline(&results_);
    *end_ns = NowNs();
    if (!s.ok()) return s;
    if (results_.size() != kDepth) {
      return Status::Internal("pipeline returned a short result list");
    }
    for (size_t j = 0; j < kDepth; ++j) {
      checker_->Observe(pipe[j], results_[j].status, results_[j].body);
    }
    return Status::OK();
  }

  /// True when the server finished a TTL sweep since the last call.
  bool SweepDone() {
    const uint64_t sweeps = sweep_runs_.Value();
    if (sweeps == sweeps_seen_) return false;
    sweeps_seen_ = sweeps;
    return true;
  }

 private:
  const Keyspace& keys_;
  RequestStream* stream_;
  Checker* checker_;
  const mccuckoo::Counter& sweep_runs_;
  uint64_t sweeps_seen_;
  CacheClient client_;
  std::vector<PipelinedResult> results_;
};

struct Segment {
  uint64_t requests = 0;
  uint64_t wall_ns = 0;
  uint64_t p50_ns = 0;  ///< Median FlushPipeline round trip.

  double ops_per_s() const {
    return Ratio(static_cast<double>(requests) * 1e9,
                 static_cast<double>(wall_ns));
  }
};

/// Sends pipelines until the server finishes a TTL sweep, or kMaxSegmentNs
/// passed. Segments sent back to back therefore each span one whole sweep
/// period and hold exactly one sweep, so the sweep's cost lands in every
/// segment alike. Every round trip is also appended to `*all_rtts` when
/// given; with a tracer, every kFlushSpanEvery-th one becomes a span.
Segment RunSegment(LoadGen& gen, std::vector<uint64_t>* all_rtts,
                   Tracer* tracer, uint32_t parent) {
  std::vector<uint64_t> rtts;
  const uint32_t id =
      tracer != nullptr ? tracer->Begin("segment", parent) : 0;
  const uint64_t t0 = NowNs();
  uint64_t t1 = t0;
  do {
    uint64_t start = 0;
    if (Status s = gen.SendPipeline(&start, &t1); !s.ok()) Die("pipeline", s);
    rtts.push_back(t1 - start);
    if (tracer != nullptr && rtts.size() % kFlushSpanEvery == 0) {
      tracer->Add("FlushPipeline", start, t1, id);
    }
  } while (!gen.SweepDone() && t1 - t0 < kMaxSegmentNs);
  if (tracer != nullptr) tracer->End(id);
  if (all_rtts != nullptr) {
    all_rtts->insert(all_rtts->end(), rtts.begin(), rtts.end());
  }
  return {rtts.size() * kDepth, t1 - t0, Median(rtts)};
}

/// Sends until the next sweep ends, untimed, so that the segment after it
/// starts where a sweep period starts.
void AlignToSweep(LoadGen& gen) {
  gen.SweepDone();
  RunSegment(gen, nullptr, nullptr, 0);
}

/// Untimed requests after Start(), so the measured segments begin warm.
void WarmUp(LoadGen& gen) {
  for (size_t done = 0; done < kWarmupOps; done += kDepth) {
    uint64_t start = 0;
    uint64_t end = 0;
    if (Status s = gen.SendPipeline(&start, &end); !s.ok()) {
      Die("pipeline", s);
    }
  }
}

/// Misses on keys the client believed present that no counted eviction,
/// expiry or hash collision explains.
uint64_t UnexplainedLosses(const Checker& c, const ServerMetricsSnapshot& m) {
  const uint64_t explained = m.evictions_capacity + m.evictions_pressure +
                             m.expired_lazy + m.expired_swept +
                             m.hash_collisions;
  return c.lost > explained ? c.lost - explained : 0;
}

/// Stops the server and runs the store's structural checks; a failure ends
/// the run with a non-zero exit.
void StopAndCheck(CacheServer& server, LoadGen& gen) {
  gen.Close();
  server.Stop();
  const Status s = server.store().CheckInvariants();
  if (!s.ok()) Die("invariants", s);
}

int RunEndToEnd(const Workload& w, const Args& a, const Keyspace& keys) {
  // The host's speed changes every few seconds, so the set-ups are split
  // between before and after the measured phase: their minimum then
  // samples the host at two times, not one. The last set-up before it is
  // the one served.
  std::unique_ptr<CacheServer> server;
  double setup_s = 0;
  double bytes_per_item = 0;
  const auto set_up = [&](int i, double* bytes) {
    server.reset();
    double s = 0;
    server = SetUp(w, keys, w.keys, &s, bytes);
    setup_s = i == 0 ? s : std::min(setup_s, s);
    std::fprintf(stderr, "%s: set-up %d took %.4f s\n", w.name, i, s);
  };
  const int setups_before = w.setups - w.setups / 2;
  for (int i = 0; i < setups_before; ++i) set_up(i, &bytes_per_item);

  Checker checker(keys, w);
  RequestStream stream(w, a.seed);
  LoadGen gen(keys, &stream, &checker, *server);
  if (Status s = server->Start(); !s.ok()) Die("start", s);
  if (Status s = gen.Connect(server->port()); !s.ok()) Die("connect", s);

  WarmUp(gen);
  // The window starts a fixed number of requests into the stream, so
  // hit_ratio does not depend on how fast the run went.
  checker.OpenWindow(w.hit_window);
  const uint64_t start = NowNs();
  AlignToSweep(gen);
  std::vector<Segment> segments;
  while (segments.empty() || checker.WindowOpen() ||
         static_cast<double>(NowNs() - start) * 1e-9 < a.seconds) {
    segments.push_back(RunSegment(gen, nullptr, nullptr, 0));
  }
  StopAndCheck(*server, gen);

  double best_ops = 0;
  uint64_t best_p50 = UINT64_MAX;
  for (const Segment& s : segments) {
    best_ops = std::max(best_ops, s.ops_per_s());
    best_p50 = std::min(best_p50, s.p50_ns);
  }
  std::fprintf(stderr, "%s: %zu segments\n", w.name, segments.size());
  const uint64_t unexplained =
      UnexplainedLosses(checker, server->store().MetricsSnapshot());
  double unused = 0;
  for (int i = setups_before; i < w.setups; ++i) set_up(i, &unused);
  server.reset();

  // ops_per_s, p50_us and bytes_per_item ranged wider over a calibration
  // than the most their bounds may be, so they are reported but not gated
  // (benchmark/README.md, "Bounds").
  const std::vector<Metric> m = {
      {"ops_per_s", best_ops, "1/s", false},
      {"p50_us", static_cast<double>(best_p50) / 1e3, "us", false},
      {"hit_ratio",
       Ratio(static_cast<double>(checker.window_hits),
             static_cast<double>(checker.window_gets)),
       "ratio"},
      {"bytes_per_item", bytes_per_item, "B", false},
      {"setup_s", setup_s, "s"},
  };
  const bool correct = checker.failed == 0 && unexplained == 0;
  if (unexplained != 0) {
    std::fprintf(stderr, "%s: %" PRIu64 " keys lost without an eviction\n",
                 w.name, unexplained);
  }
  PrintResult(w.name, m, correct, checker.observed, checker.failed);
  return correct ? 0 : 1;
}

/// The store and table counters the per-layer ratios use. Read() takes
/// their values now; Add() sums what changed between two reads.
struct Counts {
  uint64_t gets = 0;  ///< GET requests the server dispatched.
  uint64_t sets = 0;
  uint64_t requests = 0;
  uint64_t batched_keys = 0;  ///< Keys resolved through batched lookups.
  uint64_t bytes = 0;         ///< Bytes read and written on connections.
  uint64_t pressure_evictions = 0;
  uint64_t lookups = 0;
  uint64_t probes = 0;  ///< Bucket probes, over probes_of lookups.
  uint64_t probes_of = 0;
  uint64_t stash_probes = 0;
  uint64_t inserts = 0;
  uint64_t kicks = 0;  ///< Kick-outs, over kicks_of inserts.
  uint64_t kicks_of = 0;
  uint64_t bfs_nodes = 0;

  static Counts Read(CacheServer& server) {
    const ServerMetricsSnapshot s = server.store().MetricsSnapshot();
    const MetricsSnapshot t = server.store().table().metrics_snapshot();
    return {s.requests[0],
            s.requests[2],
            s.total_requests(),
            s.batched_lookups,
            s.bytes_read + s.bytes_written,
            s.evictions_pressure,
            t.lookups,
            t.lookup_probes.sum,
            t.lookup_probes.count,
            t.stash_hits + t.stash_misses,
            t.inserts,
            t.kick_chain_len.sum,
            t.kick_chain_len.count,
            t.bfs_nodes_expanded};
  }

  void Add(const Counts& before, const Counts& after) {
    gets += after.gets - before.gets;
    sets += after.sets - before.sets;
    requests += after.requests - before.requests;
    batched_keys += after.batched_keys - before.batched_keys;
    bytes += after.bytes - before.bytes;
    pressure_evictions += after.pressure_evictions - before.pressure_evictions;
    lookups += after.lookups - before.lookups;
    probes += after.probes - before.probes;
    probes_of += after.probes_of - before.probes_of;
    stash_probes += after.stash_probes - before.stash_probes;
    inserts += after.inserts - before.inserts;
    kicks += after.kicks - before.kicks;
    kicks_of += after.kicks_of - before.kicks_of;
    bfs_nodes += after.bfs_nodes - before.bfs_nodes;
  }
};

/// Nanoseconds each layer costs per request (per GET or per SET where
/// split). Each is that layer's cheapest replay round: the host runs at two
/// speeds for seconds at a time, and the ledger is held against the best
/// end-to-end segment, so both sides are taken at the faster speed.
struct LayerCosts {
  double client = 0;
  double parse = 0;
  double encode = 0;
  double hash = 0;
  double core_get = 0;
  double core_set = 0;
  double store_get = 0;
  double store_set = 0;
  double get_share = 0;  ///< GETs over requests, all rounds.

  double PerRequest(double per_get, double per_set) const {
    return get_share * per_get + (1 - get_share) * per_set;
  }
};

LayerCosts Cheapest(const std::vector<LayerTotals>& rounds) {
  LayerCosts c;
  uint64_t ops = 0;
  uint64_t gets = 0;
  // A layer no round exercised (SETs of a GET-only workload) stays 0.
  const auto take = [](double* slot, uint64_t ns, uint64_t n) {
    if (n == 0) return;
    const double v = static_cast<double>(ns) / static_cast<double>(n);
    if (*slot == 0 || v < *slot) *slot = v;
  };
  for (const LayerTotals& t : rounds) {
    take(&c.client, t.client_ns, t.ops);
    take(&c.parse, t.parse_ns, t.ops);
    take(&c.encode, t.encode_ns, t.ops);
    take(&c.hash, t.hash_ns, t.ops);
    take(&c.core_get, t.core_get_ns, t.gets);
    take(&c.core_set, t.core_set_ns, t.sets);
    take(&c.store_get, t.store_get_ns, t.gets);
    take(&c.store_set, t.store_set_ns, t.sets);
    ops += t.ops;
    gets += t.gets;
  }
  c.get_share = Ratio(gets, ops);
  return c;
}

int RunTraced(const Workload& w, const Args& a, const Keyspace& keys) {
  Tracer tracer;
  const uint32_t root = tracer.Begin("run", 0);
  const bool get_only = w.set_share == 0;
  // A GET-only workload keeps the last preload keys back and replays them
  // as SETs, so its write-path metrics come from the same replay code.
  const uint32_t tail =
      get_only ? std::min(kTailSets, w.keys / 4) / kDepth * kDepth : 0;
  const uint32_t preload = w.keys - tail;

  const uint32_t setup_span = tracer.Begin("setup", root);
  double setup_s = 0;
  double bytes_per_item = 0;
  std::unique_ptr<CacheServer> server =
      SetUp(w, keys, preload, &setup_s, &bytes_per_item);
  tracer.End(setup_span);
  CheckKeySeed(server->store(), w, keys, preload);
  const Counts setup_counts = Counts::Read(*server);

  Checker checker(keys, w);
  ItemStore& store = server->store();
  LayerTotals set_path;
  if (tail > 0) {
    std::vector<uint32_t> sets;
    for (uint32_t i = preload; i < w.keys; ++i) {
      sets.push_back(PreloadId(w, i) | kSetBit);
    }
    const uint32_t span = tracer.Begin("replay.preload_tail", root);
    if (Status s = Replay(store, keys, sets, &checker, &tracer, span,
                          &set_path);
        !s.ok()) {
      Die("replay", s);
    }
    tracer.End(span);
  }
  const uint32_t sweep_span = tracer.Begin("item_store.sweep", root);
  const uint64_t sweep_t0 = NowNs();
  store.SweepExpired();
  const double sweep_ms = static_cast<double>(NowNs() - sweep_t0) / 1e6;
  tracer.End(sweep_span);

  RequestStream stream(w, a.seed);
  LoadGen gen(keys, &stream, &checker, *server);
  if (Status s = server->Start(); !s.ok()) Die("start", s);
  if (Status s = gen.Connect(server->port()); !s.ok()) Die("connect", s);
  WarmUp(gen);

  // Replay rounds and end-to-end segments alternate, the rounds taking
  // kReplayShare of the time, so both sides of the ledger see the same
  // state of the store (set_capped's stash keeps growing) and the same
  // spells of the host. During a round the server is up but idle; a pass
  // the TTL sweep lands in runs slow and loses to the same layer's pass in
  // another round. End-to-end segments alternate between recording spans
  // and not, which prices the tracing; the first segment after a round
  // is preceded by an untimed run to the end of a sweep, as in an untraced
  // run. Drawing a round's requests is the client's work, so it is charged
  // to the client layer.
  const size_t round_ops =
      std::clamp<size_t>(w.keys / 8, kMinRoundOps, kMaxRoundOps);
  std::vector<uint32_t> ops(round_ops);
  std::vector<LayerTotals> rounds;
  std::vector<uint64_t> rtts;
  std::vector<double> plain_ops;
  Segment best_plain;
  double best_traced = 0;
  size_t segments = 0;
  bool aligned = false;
  Counts counts;
  uint64_t replay_ns = 0;
  uint64_t e2e_ns = 0;
  const uint64_t start = NowNs();
  while (rounds.size() < 3 || segments < 4 ||
         static_cast<double>(NowNs() - start) * 1e-9 < a.seconds) {
    const uint64_t t0 = NowNs();
    if (static_cast<double>(replay_ns) * (1 - kReplayShare) <=
        static_cast<double>(e2e_ns) * kReplayShare) {
      const uint32_t span = tracer.Begin(
          "replay.round", root, static_cast<int64_t>(rounds.size()));
      LayerTotals t;
      for (uint32_t& op : ops) op = stream.Next();
      t.client_ns += NowNs() - t0;
      if (Status s = Replay(store, keys, ops, &checker,
                            rounds.empty() ? &tracer : nullptr, span, &t);
          !s.ok()) {
        Die("replay", s);
      }
      tracer.End(span);
      rounds.push_back(t);
      replay_ns += NowNs() - t0;
      aligned = false;
      continue;
    }
    if (!aligned) AlignToSweep(gen);
    aligned = true;
    const bool traced = segments++ % 2 == 0;
    const Counts before = Counts::Read(*server);
    const Segment seg =
        RunSegment(gen, &rtts, traced ? &tracer : nullptr, root);
    counts.Add(before, Counts::Read(*server));
    if (traced) {
      best_traced = std::max(best_traced, seg.ops_per_s());
    } else {
      plain_ops.push_back(seg.ops_per_s());
      if (seg.ops_per_s() > best_plain.ops_per_s()) best_plain = seg;
    }
    e2e_ns += NowNs() - t0;
  }
  const MetricsSnapshot table = store.table().metrics_snapshot();
  StopAndCheck(*server, gen);
  tracer.End(root);

  const std::string path = a.trace_dir + "/" + w.name + ".trace.json";
  std::error_code ec;
  std::filesystem::create_directories(a.trace_dir, ec);
  if (!tracer.Write(path)) {
    Die("trace", Status::IOError("cannot write " + path));
  }
  std::fprintf(stderr, "%s: wrote %s\n", w.name, path.c_str());

  // The ledger: what one request costs in each layer, against the same
  // end-to-end estimate ops_per_s makes (the best untraced segment, one
  // whole sweep period). The segment holds one sweep, charged at the time
  // the direct call above took. The residual is what no replayed layer
  // covers (syscalls, epoll wakeups, connection buffers, handler dispatch),
  // so the parts sum to e2e.ns_per_op by construction.
  const LayerCosts ledger = Cheapest(rounds);
  const double ns_per_op = 1e9 / best_plain.ops_per_s();
  const double sweep = sweep_ms * 1e6 / static_cast<double>(best_plain.requests);
  const double sweep_duty =
      sweep_ms * 1e6 / static_cast<double>(best_plain.wall_ns);
  const double core = ledger.PerRequest(ledger.core_get, ledger.core_set);
  const double item_store =
      ledger.PerRequest(ledger.store_get, ledger.store_set);

  // Write-path metrics: from the workload's own SETs when it sends any,
  // else from the preload (its replayed tail, and the counters).
  const LayerCosts sp = get_only ? Cheapest({set_path}) : ledger;
  const Counts& wc = get_only ? setup_counts : counts;
  const double pressure_per_set =
      get_only ? Ratio(setup_counts.pressure_evictions, preload)
               : Ratio(counts.pressure_evictions, counts.sets);

  std::sort(rtts.begin(), rtts.end());
  const std::vector<Metric> m = {
      {"e2e.ns_per_op", ns_per_op, "ns"},
      {"e2e.p50_us", static_cast<double>(best_plain.p50_ns) / 1e3, "us"},
      {"e2e.p99_us", static_cast<double>(rtts[rtts.size() * 99 / 100]) / 1e3,
       "us"},
      {"e2e.samples", static_cast<double>(rtts.size()), "count"},
      {"host.segment_spread", best_plain.ops_per_s() / Median(plain_ops),
       "ratio"},
      {"trace.overhead_ratio", best_plain.ops_per_s() / best_traced, "ratio"},
      {"server.residual_ns_per_op",
       ns_per_op - ledger.client - ledger.parse - ledger.encode - item_store -
           sweep,
       "ns"},
      {"server.coalesced_get_ratio", Ratio(counts.batched_keys, counts.gets),
       "ratio"},
      {"server.bytes_per_op", Ratio(counts.bytes, counts.requests), "B"},
      {"protocol.parse_ns_per_op", ledger.parse, "ns"},
      {"protocol.encode_ns_per_op", ledger.encode, "ns"},
      {"client.ns_per_op", ledger.client, "ns"},
      {"item_store.get_batch_ns_per_key", ledger.store_get, "ns"},
      {"item_store.set_ns", sp.store_set, "ns"},
      {"item_store.self_ns_per_key", item_store - core - ledger.hash, "ns"},
      {"item_store.sweep_ms", sweep_ms, "ms"},
      {"item_store.sweep_duty", sweep_duty, "ratio"},
      {"item_store.sweep_ns_per_op", sweep, "ns"},
      {"item_store.pressure_evictions_per_set", pressure_per_set, "ratio"},
      {"item_store.setup_pressure_evictions",
       static_cast<double>(setup_counts.pressure_evictions), "count"},
      {"core.ns_per_op", core, "ns"},
      {"core.find_batch_ns_per_key", ledger.core_get, "ns"},
      {"core.insert_ns", sp.core_set, "ns"},
      {"core.probes_per_lookup", Ratio(counts.probes, counts.probes_of),
       "count"},
      {"core.stash_probes_per_lookup",
       Ratio(counts.stash_probes, counts.lookups), "ratio"},
      {"core.kicks_per_insert", Ratio(wc.kicks, wc.kicks_of), "count"},
      {"core.bfs_nodes_per_insert", Ratio(wc.bfs_nodes, wc.inserts), "count"},
      {"core.load_factor", table.LoadFactor(), "ratio"},
      {"core.growth_rehashes", static_cast<double>(table.growth_rehashes),
       "count"},
      {"core.rehash_ms", static_cast<double>(table.rehash_ns.sum) / 1e6, "ms"},
      {"hash.xxhash64_ns_per_key", ledger.hash, "ns"},
  };
  const uint64_t unexplained =
      UnexplainedLosses(checker, server->store().MetricsSnapshot());
  const bool correct = checker.failed == 0 && unexplained == 0;
  PrintResult(w.name, m, correct, checker.observed, checker.failed);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace mcbench

int main(int argc, char** argv) {
  mcbench::Args args;
  if (!mcbench::ParseArgs(argc, argv, &args)) return 2;
  const std::optional<mcbench::Workload> w =
      mcbench::FindWorkload(args.workload, args.smoke);
  if (!w) {
    std::fprintf(stderr, "mcbench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }
  const int cpu = mcbench::PinToOneCpu();
  std::printf("meta.cpu %d\nmeta.nproc %ld\nmeta.build_type %s\n"
              "meta.seed %" PRIu64 "\n",
              cpu, sysconf(_SC_NPROCESSORS_ONLN), MCBENCH_BUILD_TYPE,
              args.seed);
  const mcbench::Keyspace keys(args.seed);
  return args.trace ? mcbench::RunTraced(*w, args, keys)
                    : mcbench::RunEndToEnd(*w, args, keys);
}
