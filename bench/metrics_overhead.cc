// Measures the cost of the observability layer on the lookup and insert
// hot paths.
//
// This source is compiled twice: `metrics_overhead` with metrics on (the
// default build mode) and `metrics_overhead_off` with -DMCCUCKOO_NO_METRICS.
// Both time two rows (bench/bench_driver.h), whose results land in
// BENCH_throughput.json under the "obs_on." / "obs_off." prefixes:
//
//   lookup_hit.McCuckoo.load90    one bulk FindBatch pass over every live
//                                 key of a McCuckooTable filled to 90% load
//   insert_grow.McCuckoo.multi    InsertOrAssign of --slots distinct keys
//                                 into the cache store's table
//                                 configuration (8 shards, multi-writer,
//                                 growth on from 64Ki slots), rebuilt
//                                 untimed before every rep
//
// so obs_on.X / obs_off.X is the measured relative cost of metrics
// recording on each path (lookup acceptance: >= 0.95; the insert ratio is
// reported only).
// Both binaries link only mccuckoo_base and instantiate the table in this
// translation unit — linking the full library would mix metrics-on and
// metrics-off template instantiations in one binary (an ODR violation).
//
// The metrics-on binary also prices one knob further in: the
// LatencyRecorder's clock reads at the default 1-in-32 sampling against
// sampling disabled (period 0 — no clock reads at all). Its three rows run
// interleaved on the same warmed table:
//
//   obs_on.lookup_hit.McCuckoo.load90    (period 32)
//   lat_on.lookup_hit.McCuckoo.load90    (period 32)
//   lat_off.lookup_hit.McCuckoo.load90   (period 0)
//   lat_overhead.ratio                   (lat_on / lat_off medians;
//                                         acceptance >= 0.95)
//
//   --slots=N   the lookup table's slot capacity and the insert row's key
//               count (default 270000)
//   --reps=N    timed passes per row (default 5)
//   --filter=RE run only the rows whose key matches RE

#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include "bench/bench_driver.h"
#include "bench/insert_grow_row.h"
#include "src/core/mccuckoo_table.h"
#include "src/obs/export.h"
#include "src/workload/keyset.h"

namespace mccuckoo {
namespace {

int Run(int argc, char** argv) {
  const BenchOptions opt = ParseBenchOptions(argc, argv, 270'000);
  TableOptions options;
  options.num_hashes = 3;
  options.buckets_per_table = (opt.slots + 2) / 3;
  options.maxloop = 500;
  options.seed = 0x5EEDC0DE;
  McCuckooTable<uint64_t, uint64_t> table(options);

  // Fill to 90% of the actual capacity (spills to the stash are fine; the
  // lookup path is what's under test).
  const uint64_t n_keys = table.capacity() * 9 / 10;
  std::vector<uint64_t> keys = MakeUniqueKeys(n_keys, options.seed, 0);
  for (uint64_t k : keys) table.Insert(k, k + 1);
  std::shuffle(keys.begin(), keys.end(), std::mt19937_64(42));

  // One bulk FindBatch per pass (the table pipelines in kBatchTile-key
  // tiles internally) — the bulk-probe shape the batch API exists for.
  std::vector<uint64_t> out(keys.size());
  std::vector<uint8_t> found(keys.size());
  const auto pass = [&] {
    const uint64_t hits = table.FindBatch(
        keys, out.data(), reinterpret_cast<bool*>(found.data()));
    if (hits != keys.size()) {
      std::fprintf(stderr, "lookup self-check failed: %" PRIu64 "/%zu hits\n",
                   hits, keys.size());
      std::exit(1);
    }
    return hits;
  };
  const auto row = [&](const std::string& key, uint32_t period) {
    return BenchRow{key, pass, [&table, period] {
                      table.latency().set_sample_period(period);
                    }};
  };
  const uint32_t kDefault = LatencyRecorder::kDefaultSamplePeriod;
  const std::string prefix = kMetricsEnabled ? "obs_on." : "obs_off.";
  BenchGroup group = {row(prefix + "lookup_hit.McCuckoo.load90", kDefault)};
  BenchGroup inserts = {
      InsertGrowRow(prefix + "insert_grow.McCuckoo.multi", opt.slots)};
  if (!kMetricsEnabled) {
    return RunBenchToJson(opt, {std::move(group), std::move(inserts)},
                          {prefix});
  }
  group.push_back(row("lat_on.lookup_hit.McCuckoo.load90", kDefault));
  group.push_back(row("lat_off.lookup_hit.McCuckoo.load90", 0));
  // Metrics-on runs also export their headline distribution columns —
  // free evidence the recording actually happened during the timed loop.
  const auto extra = [&](const BenchResults& r) {
    FlatJson rows = MetricsFlatEntries(table.SnapshotMetrics(),
                                       prefix + "McCuckoo.");
    const auto on = r.find("lat_on.lookup_hit.McCuckoo.load90");
    const auto off = r.find("lat_off.lookup_hit.McCuckoo.load90");
    if (on != r.end() && off != r.end()) {
      rows["lat_overhead.ratio"] = on->second.median / off->second.median;
      std::printf("lat_overhead.ratio %.4f  (medians of %d interleaved reps; "
                  "acceptance >= 0.95)\n",
                  rows["lat_overhead.ratio"], opt.reps);
    }
    return rows;
  };
  return RunBenchToJson(opt, {std::move(group), std::move(inserts)},
                        {prefix, "lat_"}, extra);
}

}  // namespace
}  // namespace mccuckoo

int main(int argc, char** argv) { return mccuckoo::Run(argc, argv); }
