// Wall-clock microbenchmarks: raw software throughput of the four schemes
// plus a std::unordered_map reference. Not a paper figure — the paper's
// end-to-end numbers are FPGA-based — but useful for judging the
// pure-software cost of the counter logic. One row, insert_grow, fills the
// cache store's table configuration instead of a SchemeTable.
//
// Rows are timed by bench/bench_driver.h and merged into
// BENCH_throughput.json under the "micro." prefix. Lookup rows at one load
// form one group, so every scheme and probe kernel at that load is timed in
// the same interleaved reps. --slots sets insert_grow's key count
// (default 4Mi).

#include <cstdio>
#include <memory>
#include <string>
#include <unordered_map>

#include "bench/bench_driver.h"
#include "bench/insert_grow_row.h"
#include "src/core/bucket_header.h"
#include "src/obs/export.h"
#include "src/sim/schemes.h"
#include "src/sim/sweep.h"
#include "src/workload/keyset.h"

namespace mccuckoo {
namespace {

constexpr uint64_t kSlots = 9 * 20'000;
constexpr uint64_t kLookupOps = 1 << 20;   // lookups per rep
constexpr uint64_t kKernelIters = 1 << 21;  // probe-kernel rounds per rep

/// A scheme table filled to `load`; `latency_period` 1 times every op.
std::unique_ptr<SchemeTable> FilledTable(
    SchemeKind kind, double load,
    EvictionPolicy policy = EvictionPolicy::kRandomWalk,
    ProbeKind probe = ProbeKind::kAuto, uint32_t latency_period = 0) {
  SchemeConfig c;
  c.total_slots = kSlots;
  c.maxloop = 500;
  c.seed = 7;
  c.eviction_policy = policy;
  c.probe = probe;
  c.latency_sample_period = latency_period;
  auto t = MakeScheme(kind, c);
  const auto keys = MakeUniqueKeys(t->capacity(), 7, 0);
  size_t cursor = 0;
  FillToLoad(*t, keys, load, &cursor);
  return t;
}

std::string LoadSuffix(const std::string& scheme, int load) {
  return "." + scheme + ".load" + std::to_string(load);
}

// One insert row: each rep rebuilds the table at `load` (untimed) and times
// a burst of fresh inserts from that point — inserting past the target load
// would distort the measurement, so the burst is bounded.
BenchRow InsertRow(const std::string& key, SchemeKind kind, int load,
                   EvictionPolicy policy) {
  auto table = std::make_shared<std::unique_ptr<SchemeTable>>();
  const auto fresh = std::make_shared<const std::vector<uint64_t>>(
      MakeUniqueKeys(kSlots, 7, 3));
  const size_t burst = static_cast<size_t>(kSlots) / 20;
  return {key,
          [=] {
            SchemeTable& t = **table;
            const uint64_t* k = fresh->data();
            for (size_t i = 0; i < burst; ++i) {
              DoNotOptimize(t.Insert(k[i], k[i]));
            }
            return uint64_t{burst};
          },
          [=] { *table = FilledTable(kind, load / 100.0, policy); }};
}

/// Never-inserted probe keys, shared by every lookup_miss row.
const std::vector<uint64_t>& MissingKeys() {
  static const std::vector<uint64_t> keys = MakeUniqueKeys(100'000, 7, 7);
  return keys;
}

/// One rep of a lookup row: kLookupOps calls of `find`, cycling over `keys`.
template <typename Find>
uint64_t LookupRep(const std::vector<uint64_t>& keys, Find find) {
  const uint64_t* k = keys.data();
  const size_t n = keys.size();
  size_t i = 0;
  for (uint64_t op = 0; op < kLookupOps; ++op) {
    DoNotOptimize(find(k[i]));
    // No `% n`: the divide's latency would serialize the key load against
    // the previous iteration and dominate short lookups.
    i = i + 1 == n ? 0 : i + 1;
  }
  return kLookupOps;
}

/// lookup_hit and lookup_miss rows `suffix` over `hits` and MissingKeys();
/// `find(key, value_out)` owns its table.
template <typename Find>
void AddLookupRows(BenchGroup* group, const std::string& suffix,
                   std::vector<uint64_t> hits, Find find) {
  auto keys = std::make_shared<const std::vector<uint64_t>>(std::move(hits));
  group->push_back({"micro.lookup_hit" + suffix, [keys, find] {
                      uint64_t v = 0;
                      return LookupRep(*keys,
                                       [&](uint64_t k) { return find(k, &v); });
                    }});
  group->push_back({"micro.lookup_miss" + suffix, [find] {
                      return LookupRep(MissingKeys(), [&](uint64_t k) {
                        return find(k, nullptr);
                      });
                    }});
}

/// The lookup rows `suffix` on a `kind` table filled to `load`.
void AddSchemeLookupRows(BenchGroup* group, const std::string& suffix,
                         SchemeKind kind, int load, ProbeKind probe) {
  std::shared_ptr<SchemeTable> table = FilledTable(
      kind, load / 100.0, EvictionPolicy::kRandomWalk, probe);
  AddLookupRows(group, suffix, MakeUniqueKeys(table->TotalItems(), 7, 0),
                [table](uint64_t k, uint64_t* v) { return table->Find(k, v); });
}

// Tag-probe kernel microbenchmark: the match kernels in isolation over
// L1-resident headers (d = 3 candidates per round, like a real lookup).
// End-to-end lookups are hash- and memory-latency-bound, so the kernels'
// relative speed is only visible here; the CI probe gate asserts the
// SIMD-vs-SWAR ratio on these keys.
template <bool kSimd>
uint64_t ProbeKernelRep(const std::vector<BucketHeader>& headers) {
  constexpr size_t kHeaders = 4096;  // 64 KiB: L1/L2 resident
  size_t i = 0;
  uint32_t sink = 0;
  // Four d=3 screening rounds per iteration so the loop bookkeeping is
  // amortized and the measured time is the kernels', not the harness's.
  for (uint64_t it = 0; it < kKernelIters; ++it) {
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
  DoNotOptimize(sink);
  return kKernelIters * 12;  // headers screened
}

BenchGroup ProbeKernelGroup() {
  auto headers = std::make_shared<std::vector<BucketHeader>>(4096 + 2);
  uint64_t x = 0x9E3779B97F4A7C15ull;
  auto next = [&x] {
    x ^= x << 13; x ^= x >> 7; x ^= x << 17;
    return x;
  };
  for (auto& h : *headers) {  // +2: window overhang
    for (int i = 0; i < 8; ++i) {
      h.tag[i] = static_cast<uint8_t>(next());
      h.meta[i] = static_cast<uint8_t>(next() & 0x0F);
    }
  }
  BenchGroup group = {{"micro.probe_kernel.scalar",
                       [headers] { return ProbeKernelRep<false>(*headers); }}};
  if (kSimdProbeAvailable) {
    group.push_back({"micro.probe_kernel.simd",
                     [headers] { return ProbeKernelRep<true>(*headers); }});
  }
  return group;
}

std::vector<BenchGroup> Groups(uint64_t grow_keys) {
  std::vector<BenchGroup> groups;
  for (const int load : {50, 90}) {
    BenchGroup inserts, lookups;
    for (const SchemeKind kind : kAllSchemes) {
      const std::string suffix = LoadSuffix(SchemeName(kind), load);
      inserts.push_back(InsertRow("micro.insert" + suffix, kind, load,
                                  EvictionPolicy::kRandomWalk));
      AddSchemeLookupRows(&lookups, suffix, kind, load, ProbeKind::kAuto);
    }
    // BFS insert variants — the load90 rows are the direct fix for the
    // recorded insert collapse (micro.insert.McCuckoo.load90 under random
    // walk). BCHT, which does not collapse there, has its BFS row in
    // ablation_eviction only.
    for (const SchemeKind kind :
         {SchemeKind::kCuckoo, SchemeKind::kMcCuckoo, SchemeKind::kBMcCuckoo}) {
      inserts.push_back(InsertRow(
          "micro.insert_bfs" + LoadSuffix(SchemeName(kind), load), kind, load,
          EvictionPolicy::kBfs));
    }
    // Probe-kernel A/B rows for the blocked multi-copy table: same workload
    // as its plain (kAuto) rows, pinned to one kernel each, so the recorded
    // JSON carries the simd-vs-scalar delta explicitly. The simd rows exist
    // only when the kernel was compiled in.
    for (const ProbeKind probe : {ProbeKind::kScalar, ProbeKind::kSimd}) {
      if (probe == ProbeKind::kSimd && !kSimdProbeAvailable) continue;
      AddSchemeLookupRows(
          &lookups, LoadSuffix(std::string("B-McCuckoo.") +
                                   ProbeKindToString(probe), load),
          SchemeKind::kBMcCuckoo, load, probe);
    }
    groups.push_back(std::move(inserts));
    groups.push_back(std::move(lookups));
  }
  groups.push_back(
      {InsertGrowRow("micro.insert_grow.McCuckoo.multi", grow_keys)});
  auto map = std::make_shared<std::unordered_map<uint64_t, uint64_t>>();
  std::vector<uint64_t> hits = MakeUniqueKeys(kSlots / 2, 7, 0);
  for (const uint64_t k : hits) map->emplace(k, k);
  groups.emplace_back();
  AddLookupRows(&groups.back(), ".std_unordered_map", std::move(hits),
                [map](uint64_t k, uint64_t*) { return map->find(k); });
  groups.push_back(ProbeKernelGroup());
  return groups;
}

// Sampled-latency quantiles for the two core tables, after the timed rows.
// A separate pass with the recorder at period 1 (every op timed — useless
// for throughput, exactly right for quantiles): fill to 90% load (the
// fill's single-key Inserts are the insert samples), then one all-hit
// lookup sweep over the live keys. The rows are the metric list's own
// op_latency_ns.{insert,find}.{count,mean,p50,p99,p999} entries under
// "micro.latency.<Scheme>.load90.", with nanosecond upper bounds from the
// log2 histogram.
FlatJson LatencyRows(const BenchResults&) {
  FlatJson rows;
  for (const SchemeKind kind : {SchemeKind::kMcCuckoo, SchemeKind::kBMcCuckoo}) {
    auto table = FilledTable(kind, 0.9, EvictionPolicy::kRandomWalk,
                             ProbeKind::kAuto, 1);
    uint64_t v = 0;
    for (const uint64_t k : MakeUniqueKeys(table->TotalItems(), 7, 0)) {
      DoNotOptimize(table->Find(k, &v));
    }
    const std::string base =
        std::string("micro.latency.") + SchemeName(kind) + ".load90.";
    for (const auto& [key, value] :
         MetricsFlatEntries(table->SnapshotMetrics(), base)) {
      if (key.starts_with(base + "op_latency_ns.insert.") ||
          key.starts_with(base + "op_latency_ns.find.")) {
        rows[key] = value;
        std::printf("%-60s %12.6g\n", key.c_str(), value);
      }
    }
  }
  return rows;
}

}  // namespace
}  // namespace mccuckoo

int main(int argc, char** argv) {
  using namespace mccuckoo;
  const BenchOptions opt = ParseBenchOptions(argc, argv, uint64_t{1} << 22);
  return RunBenchToJson(opt, Groups(opt.slots), {"micro."}, LatencyRows);
}
