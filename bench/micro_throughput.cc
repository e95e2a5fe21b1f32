// Wall-clock microbenchmarks (google-benchmark): raw software throughput of
// the four schemes plus a std::unordered_map reference. Not a paper figure
// — the paper's end-to-end numbers are FPGA-based — but useful for judging
// the pure-software cost of the counter logic. One row, insert_grow, fills
// the cache store's table configuration instead of a SchemeTable.
//
// Results are merged into BENCH_throughput.json under the "micro." prefix
// (see bench/bench_json.h); benchmark names double as the JSON keys.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>
#include <string>
#include <unordered_map>

#include "bench/bench_reporter.h"
#include "src/core/mccuckoo_table.h"
#include "src/core/sharded_mccuckoo.h"
#include "src/hash/hashers.h"
#include "src/obs/metrics.h"
#include "src/sim/schemes.h"
#include "src/sim/sweep.h"
#include "src/workload/keyset.h"

namespace mccuckoo {
namespace {

constexpr uint64_t kSlots = 9 * 20'000;

SchemeConfig Config() {
  SchemeConfig c;
  c.total_slots = kSlots;
  c.maxloop = 500;
  c.seed = 7;
  return c;
}

std::unique_ptr<SchemeTable> FilledTable(
    SchemeKind kind, double load,
    EvictionPolicy policy = EvictionPolicy::kRandomWalk,
    ProbeKind probe = ProbeKind::kAuto) {
  SchemeConfig c = Config();
  c.eviction_policy = policy;
  c.probe = probe;
  auto t = MakeScheme(kind, c);
  const auto keys = MakeUniqueKeys(t->capacity(), 7, 0);
  size_t cursor = 0;
  FillToLoad(*t, keys, load, &cursor);
  return t;
}

/// Advances a cyclic key cursor without the 64-bit division a `% size`
/// would put on the critical path: the divide's latency serializes the
/// key load against the previous iteration and dominates short lookups,
/// so all lookup loops below use this instead.
inline size_t NextIndex(size_t i, size_t size) {
  return i + 1 == size ? 0 : i + 1;
}

void BM_Insert(benchmark::State& state, SchemeKind kind, double load,
               EvictionPolicy policy = EvictionPolicy::kRandomWalk) {
  // Rebuild periodically: inserting past the target load would distort the
  // measurement, so insert in bounded bursts from the prefill point.
  auto table = FilledTable(kind, load, policy);
  const auto fresh = MakeUniqueKeys(kSlots, 7, 3);
  size_t i = 0;
  const size_t burst_limit = static_cast<size_t>(kSlots) / 20;
  for (auto _ : state) {
    if (i >= burst_limit) {
      state.PauseTiming();
      table = FilledTable(kind, load, policy);
      i = 0;
      state.ResumeTiming();
    }
    benchmark::DoNotOptimize(table->Insert(fresh[i], fresh[i]));
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}

// Scalar writes into a growing, DRAM-sized table: the cache store's table
// configuration (8 shards, multi-writer, optimistic reads, d = 3,
// kResetCounters, stash on, growth on from 64Ki slots) takes InsertOrAssign
// of $MCCUCKOO_BENCH_SLOTS (default 4Mi) distinct keys — the write a store
// SET makes. Unlike the cache-resident insert rows above, every write here
// misses on its counter and bucket lines, so this row prices how those
// misses overlap.
void BM_InsertGrow(benchmark::State& state) {
  using Table = McCuckooTable<uint64_t, uint64_t, XxHasher>;
  const auto keys =
      MakeUniqueKeys(BenchSlotsOrDefault(uint64_t{1} << 22), 7, 5);
  TableOptions o;
  o.num_hashes = 3;
  o.seed = 0x5EEDCAFE;
  o.buckets_per_table = ((uint64_t{1} << 16) + 2) / 3;
  o.deletion_mode = DeletionMode::kResetCounters;
  o.stash_enabled = true;
  o.growth.enabled = true;
  for (auto _ : state) {
    state.PauseTiming();
    auto table = std::make_unique<ShardedMcCuckoo<Table>>(
        o, 8, ReadMode::kOptimistic, WriteMode::kMultiWriter);
    state.ResumeTiming();
    for (const uint64_t k : keys) {
      benchmark::DoNotOptimize(table->InsertOrAssign(k, k));
    }
    state.PauseTiming();
    table.reset();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(keys.size()));
}

void BM_LookupHit(benchmark::State& state, SchemeKind kind, double load,
                  ProbeKind probe = ProbeKind::kAuto) {
  auto table = FilledTable(kind, load, EvictionPolicy::kRandomWalk, probe);
  const auto keys = MakeUniqueKeys(table->TotalItems(), 7, 0);
  size_t i = 0;
  uint64_t v = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table->Find(keys[i], &v));
    i = NextIndex(i, keys.size());
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_LookupMiss(benchmark::State& state, SchemeKind kind, double load,
                   ProbeKind probe = ProbeKind::kAuto) {
  auto table = FilledTable(kind, load, EvictionPolicy::kRandomWalk, probe);
  const auto missing = MakeUniqueKeys(100'000, 7, 7);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table->Find(missing[i], nullptr));
    i = NextIndex(i, missing.size());
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_StdUnorderedMapLookup(benchmark::State& state) {
  std::unordered_map<uint64_t, uint64_t> map;
  const auto keys = MakeUniqueKeys(kSlots / 2, 7, 0);
  for (uint64_t k : keys) map.emplace(k, k);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(map.find(keys[i]));
    i = NextIndex(i, keys.size());
  }
  state.SetItemsProcessed(state.iterations());
}

// Tag-probe kernel microbenchmark: the match kernels in isolation over
// L1-resident headers (d = 3 candidates per round, like a real lookup).
// End-to-end lookups are hash- and memory-latency-bound, so the kernels'
// relative speed is only visible here; the CI probe gate asserts the
// SIMD-vs-SWAR ratio on these keys.
template <bool kSimd>
void BM_ProbeKernel(benchmark::State& state) {
  constexpr size_t kHeaders = 4096;  // 64 KiB: L1/L2 resident
  std::vector<BucketHeader> headers(kHeaders + 2);  // +2: window overhang
  uint64_t x = 0x9E3779B97F4A7C15ull;
  auto next = [&x] {
    x ^= x << 13; x ^= x >> 7; x ^= x << 17;
    return x;
  };
  for (auto& h : headers) {
    for (int i = 0; i < 8; ++i) {
      h.tag[i] = static_cast<uint8_t>(next());
      h.meta[i] = static_cast<uint8_t>(next() & 0x0F);
    }
  }
  size_t i = 0;
  uint32_t sink = 0;
  // Four d=3 screening rounds per iteration so the loop bookkeeping is
  // amortized and the measured time is the kernels', not the harness's.
  for (auto _ : state) {
    for (int r = 0; r < 4; ++r) {
      const size_t base = (i + 3 * static_cast<size_t>(r)) & (kHeaders - 1);
      const uint8_t tag = static_cast<uint8_t>(base + r);
      const BucketHeader* hdr[3] = {&headers[base], &headers[base + 1],
                                    &headers[base + 2]};
      uint32_t mask[3];
      if constexpr (kSimd) {
        SimdTagMatchMasks(hdr, 3, tag, mask);
      } else {
        for (int t = 0; t < 3; ++t) mask[t] = TagMatchMaskScalar(*hdr[t], tag);
      }
      sink ^= mask[0] + mask[1] + mask[2];
    }
    i = (i + 12) & (kHeaders - 1);
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * 12);  // headers screened
}

void BM_StdUnorderedMapLookupMiss(benchmark::State& state) {
  std::unordered_map<uint64_t, uint64_t> map;
  const auto keys = MakeUniqueKeys(kSlots / 2, 7, 0);
  for (uint64_t k : keys) map.emplace(k, k);
  const auto missing = MakeUniqueKeys(100'000, 7, 7);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(map.find(missing[i]));
    i = NextIndex(i, missing.size());
  }
  state.SetItemsProcessed(state.iterations());
}

void RegisterAll() {
  for (const SchemeKind kind : kAllSchemes) {
    for (const int load : {50, 90}) {
      const std::string suffix =
          std::string(".") + SchemeName(kind) + ".load" + std::to_string(load);
      benchmark::RegisterBenchmark(("insert" + suffix).c_str(), BM_Insert,
                                   kind, load / 100.0,
                                   EvictionPolicy::kRandomWalk)
          ->Iterations(30000);
      benchmark::RegisterBenchmark(("lookup_hit" + suffix).c_str(),
                                   BM_LookupHit, kind, load / 100.0,
                                   ProbeKind::kAuto);
      benchmark::RegisterBenchmark(("lookup_miss" + suffix).c_str(),
                                   BM_LookupMiss, kind, load / 100.0,
                                   ProbeKind::kAuto);
    }
  }
  // Counter-guided BFS insert variants on the tables that support kBfs —
  // the load90 rows are the direct fix for the recorded insert collapse
  // (micro.insert.McCuckoo.load90 under random walk).
  for (const SchemeKind kind :
       {SchemeKind::kCuckoo, SchemeKind::kMcCuckoo, SchemeKind::kBMcCuckoo}) {
    for (const int load : {50, 90}) {
      const std::string name = std::string("insert_bfs.") + SchemeName(kind) +
                               ".load" + std::to_string(load);
      benchmark::RegisterBenchmark(name.c_str(), BM_Insert, kind, load / 100.0,
                                   EvictionPolicy::kBfs)
          ->Iterations(30000);
    }
  }
  benchmark::RegisterBenchmark("insert_grow.McCuckoo.multi", BM_InsertGrow)
      ->Iterations(1)
      ->Repetitions(3);
  // Probe-kernel A/B rows for the blocked multi-copy table: same workload
  // as the plain (kAuto) keys above, pinned to one kernel each, so the
  // recorded JSON carries the simd-vs-scalar delta explicitly. The simd
  // rows exist only when the kernel was compiled in.
  for (const int load : {50, 90}) {
    for (const ProbeKind probe : {ProbeKind::kScalar, ProbeKind::kSimd}) {
      if (probe == ProbeKind::kSimd && !kSimdProbeAvailable) continue;
      const std::string suffix = std::string(".") +
                                 SchemeName(SchemeKind::kBMcCuckoo) + "." +
                                 ProbeKindToString(probe) + ".load" +
                                 std::to_string(load);
      benchmark::RegisterBenchmark(("lookup_hit" + suffix).c_str(),
                                   BM_LookupHit, SchemeKind::kBMcCuckoo,
                                   load / 100.0, probe);
      benchmark::RegisterBenchmark(("lookup_miss" + suffix).c_str(),
                                   BM_LookupMiss, SchemeKind::kBMcCuckoo,
                                   load / 100.0, probe);
    }
  }
  benchmark::RegisterBenchmark("lookup_hit.std_unordered_map",
                               BM_StdUnorderedMapLookup);
  benchmark::RegisterBenchmark("lookup_miss.std_unordered_map",
                               BM_StdUnorderedMapLookupMiss);
  benchmark::RegisterBenchmark("probe_kernel.scalar", BM_ProbeKernel<false>);
  if (kSimdProbeAvailable) {
    benchmark::RegisterBenchmark("probe_kernel.simd", BM_ProbeKernel<true>);
  }
}

// Sampled-latency quantiles for the two core tables, run after the
// throughput rows. A separate pass with the recorder at period 1 (every op
// timed — useless for throughput, exactly right for quantiles): fill to 90%
// load (the fill's single-key Inserts are the insert samples), then one
// all-hit lookup sweep over the live keys. Lands in BENCH_throughput.json as
//
//   micro.latency.{insert,lookup_hit}.<Scheme>.load90.{samples,p50,p99,p999}
//
// with nanosecond upper bounds from the log2 histogram.
int MergeLatencyQuantiles() {
  FlatJson entries;
  for (const SchemeKind kind : {SchemeKind::kMcCuckoo, SchemeKind::kBMcCuckoo}) {
    SchemeConfig c = Config();
    c.latency_sample_period = 1;
    auto table = MakeScheme(kind, c);
    const auto keys = MakeUniqueKeys(table->capacity(), 7, 0);
    size_t cursor = 0;
    FillToLoad(*table, keys, 0.9, &cursor);
    uint64_t v = 0;
    for (size_t i = 0; i < cursor; ++i) {
      benchmark::DoNotOptimize(table->Find(keys[i], &v));
    }
    const MetricsSnapshot snap = table->SnapshotMetrics();
    const auto add = [&](LatencyOp op, const char* opname) {
      const HistogramSnapshot& h =
          snap.op_latency_ns[static_cast<size_t>(op)];
      std::string base = "micro.latency.";
      base += opname;
      base += '.';
      base += SchemeName(kind);
      base += ".load90.";
      entries[base + "samples"] = static_cast<double>(h.count);
      entries[base + "p50"] =
          static_cast<double>(h.PercentileUpperBound(0.50));
      entries[base + "p99"] =
          static_cast<double>(h.PercentileUpperBound(0.99));
      entries[base + "p999"] =
          static_cast<double>(h.PercentileUpperBound(0.999));
      std::printf("%-45s p50<=%4.0f p99<=%6.0f p999<=%7.0f ns (%.0f samples)\n",
                  base.c_str(), entries[base + "p50"], entries[base + "p99"],
                  entries[base + "p999"], entries[base + "samples"]);
    };
    add(LatencyOp::kInsert, "insert");
    add(LatencyOp::kFind, "lookup_hit");
  }
  const std::string path = BenchJsonPath();
  if (!MergeFlatJson(path, "micro.latency.", entries)) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace mccuckoo

int main(int argc, char** argv) {
  mccuckoo::RegisterAll();
  const int rc = mccuckoo::RunBenchmarksToJson(argc, argv, "micro.");
  if (rc != 0) return rc;
  return mccuckoo::MergeLatencyQuantiles();
}
