// Metrics & tracing tour: drive a table through inserts, lookups, misses
// and deletions, then dump the exporter views, the sampled latency
// quantiles and the span ring. tools/check_metrics_output.sh validates
// this output against tools/metrics_schema.txt in CI.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/metrics_dump

#include <cinttypes>
#include <cstdio>
#include <vector>

#include "src/core/mccuckoo_table.h"
#include "src/obs/export.h"
#include "src/workload/keyset.h"

using mccuckoo::DeletionMode;
using mccuckoo::EvictionPolicy;
using mccuckoo::ExportChromeTrace;
using mccuckoo::ExportJson;
using mccuckoo::ExportPrometheus;
using mccuckoo::HistogramSnapshot;
using mccuckoo::InsertResult;
using mccuckoo::kLatencyOpNames;
using mccuckoo::kLatencyOps;
using mccuckoo::kSpanKindNames;
using mccuckoo::kSpanKinds;
using mccuckoo::McCuckooTable;
using mccuckoo::MakeUniqueKeys;
using mccuckoo::MetricsSnapshot;
using mccuckoo::SpanKind;
using mccuckoo::TableOptions;

int main() {
  // A deliberately small, hard-driven table: pushing well past comfortable
  // load makes kick chains long and spills a few items to the stash —
  // exactly the situation the observability layer exists to explain.
  TableOptions options;
  options.num_hashes = 3;
  options.buckets_per_table = 2'000;
  options.maxloop = 100;
  options.deletion_mode = DeletionMode::kResetCounters;
  McCuckooTable<uint64_t, uint64_t> table(options);

  const auto keys = MakeUniqueKeys(table.capacity() * 95 / 100, 1, 0);
  const auto missing = MakeUniqueKeys(2'000, 1, 7);
  size_t stashed = 0;
  for (uint64_t k : keys) {
    if (table.Insert(k, k + 1) == InsertResult::kStashed) ++stashed;
  }
  size_t hits = 0;
  for (uint64_t k : keys) hits += table.Contains(k) ? 1 : 0;
  for (uint64_t k : missing) hits += table.Contains(k) ? 1 : 0;
  for (size_t i = 0; i < 500; ++i) table.Erase(keys[i]);
  std::printf("workload: %zu inserts (%zu stashed), %zu lookups (%zu hits), "
              "500 erases at %.1f%% load\n\n",
              keys.size(), stashed, keys.size() + missing.size(), hits,
              table.load_factor() * 100);

  // A second, tiny table with auto-growth enabled, pushed to 8x its
  // starting capacity: its rehashes populate the growth counters and the
  // rehash-duration histogram so the exporter sections below show the
  // growth metrics live, not as zeros. Snapshots merge component-wise,
  // exactly as the sharded front-end aggregates its shards.
  TableOptions grow_options;
  grow_options.num_hashes = 3;
  grow_options.buckets_per_table = 256;
  grow_options.growth_enabled = true;
  McCuckooTable<uint64_t, uint64_t> growing(grow_options);
  const uint64_t grow_target = growing.capacity() * 8;
  for (uint64_t k = 0; k < grow_target; ++k) {
    growing.Insert(k ^ 0xD1CEB00CULL, k);
  }
  const MetricsSnapshot grow_snap = growing.SnapshotMetrics();
  std::printf("growth demo: %" PRIu64 " inserts grew capacity to %" PRIu64
              " slots (%" PRIu64 " rehashes, %" PRIu64 " reseeds)\n\n",
              grow_target, growing.capacity(), grow_snap.growth_rehashes,
              grow_snap.growth_reseeds);

  // A third table driven with BFS eviction at the same punishing load: its
  // counter-guided searches populate the per-policy chain histogram and the
  // nodes-expanded counter, so the sections below show them nonzero.
  TableOptions bfs_options;
  bfs_options.num_hashes = 3;
  bfs_options.buckets_per_table = 2'000;
  bfs_options.maxloop = 100;
  bfs_options.eviction_policy = EvictionPolicy::kBfs;
  McCuckooTable<uint64_t, uint64_t> bfs_table(bfs_options);
  for (uint64_t k : MakeUniqueKeys(bfs_table.capacity() * 95 / 100, 1, 42)) {
    bfs_table.Insert(k, k + 1);
  }
  const MetricsSnapshot bfs_snap = bfs_table.SnapshotMetrics();
  std::printf("bfs demo: %" PRIu64 " colliding inserts expanded %" PRIu64
              " search nodes\n\n",
              bfs_snap.policy_chain_len[2].count, bfs_snap.bfs_nodes_expanded);

  MetricsSnapshot snap = table.SnapshotMetrics();
  snap += grow_snap;
  snap += bfs_snap;

  std::printf("=== prometheus ===\n%s\n",
              ExportPrometheus(snap, table.stats(), {{"scheme", "McCuckoo"}})
                  .c_str());

  std::printf("=== json ===\n%s\n",
              ExportJson(snap, table.stats()).c_str());

  // The tail-latency view: per-op sampled quantiles (upper bounds of the
  // log2 histogram bucket the quantile falls in — see ALGORITHM.md §13).
  std::printf("\n=== latency quantiles ===\n");
  std::printf("sample period: 1 in %" PRIu64 "\n",
              static_cast<uint64_t>(snap.latency_sample_period));
  for (size_t op = 0; op < kLatencyOps; ++op) {
    const HistogramSnapshot& h = snap.op_latency_ns[op];
    std::printf("%-12s samples=%" PRIu64 " p50<=%" PRIu64 " p99<=%" PRIu64
                " p999<=%" PRIu64 "\n",
                kLatencyOpNames[op], h.count, h.PercentileUpperBound(0.50),
                h.PercentileUpperBound(0.99), h.PercentileUpperBound(0.999));
  }

  // The slow-event view: span totals for all three tables merged, the
  // saturated table's own spills, then the growth table's ring as
  // chrome://tracing JSON (load it via chrome://tracing or
  // https://ui.perfetto.dev).
  std::printf("\n=== spans ===\n");
  for (size_t k = 0; k < kSpanKinds; ++k) {
    std::printf("%s%s=%" PRIu64, k == 0 ? "" : " ", kSpanKindNames[k],
                snap.span_counts[k]);
  }
  std::printf("\nsaturated table: %zu stashed inserts, %" PRIu64
              " stash_spill spans",
              stashed, table.spans().total(SpanKind::kStashSpill));
  std::printf("\n%s\n",
              ExportChromeTrace(growing.spans().Events(), "metrics_dump")
                  .c_str());
  return 0;
}
