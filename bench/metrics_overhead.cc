// Measures the cost of the observability layer on the lookup hot path.
//
// This source is compiled twice: `metrics_overhead` with metrics on (the
// default build mode) and `metrics_overhead_off` with -DMCCUCKOO_NO_METRICS.
// Both fill a McCuckooTable to 90% load and time batched hit lookups with
// plain std::chrono; their best-rep throughputs land in BENCH_throughput.json
// under the "obs_on." / "obs_off." prefixes, so
//
//   obs_on.lookup_hit.McCuckoo.load90 / obs_off.lookup_hit.McCuckoo.load90
//
// is the measured relative cost of metrics recording (acceptance: >= 0.95).
// Both binaries link only mccuckoo_base and instantiate the table in this
// translation unit — linking the full library would mix metrics-on and
// metrics-off template instantiations in one binary (an ODR violation).
//
// The metrics-on binary also prices one knob further in: the
// LatencyRecorder's clock reads at the default 1-in-32 sampling against
// sampling disabled (period 0 — no clock reads at all). Each rep times one
// pass at each period on the same warmed table, alternating which runs
// first, and the rows are
//
//   lat_on.lookup_hit.McCuckoo.load90    (period 32, median rep)
//   lat_off.lookup_hit.McCuckoo.load90   (period 0, median rep)
//   lat_overhead.ratio                   (on / off; acceptance >= 0.95)
//
//   --slots=N   total slot capacity (default 270000; $MCCUCKOO_BENCH_SLOTS)
//   --reps=N    timed passes per period (default 5)

#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <random>
#include <vector>

#include "bench/bench_json.h"
#include "src/common/flags.h"
#include "src/core/mccuckoo_table.h"
#include "src/obs/export.h"
#include "src/obs/timing.h"
#include "src/workload/keyset.h"

namespace mccuckoo {
namespace {

struct Quartiles {
  double p25, p50, p75;
};

/// Linear-interpolated quartiles of `v` (non-empty).
Quartiles QuartilesOf(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const auto at = [&](double q) {
    const double pos = q * static_cast<double>(v.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
  };
  return {at(0.25), at(0.5), at(0.75)};
}

int Run(int argc, char** argv) {
  Result<Flags> parsed = Flags::Parse(argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
    return 1;
  }
  const Flags& flags = parsed.value();
  const uint64_t slots = static_cast<uint64_t>(
      flags.GetInt("slots", static_cast<int64_t>(BenchSlotsOrDefault(270'000))));
  const int reps = static_cast<int>(flags.GetInt("reps", 5));
  if (reps < 1) {
    std::fprintf(stderr, "--reps must be at least 1\n");
    return 1;
  }

  TableOptions options;
  options.num_hashes = 3;
  options.buckets_per_table = (slots + 2) / 3;
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
  const auto pass_rate = [&] {
    Stopwatch sw;  // src/obs/timing.h — the shared bench/metrics clock
    const uint64_t hits = table.FindBatch(
        keys, out.data(), reinterpret_cast<bool*>(found.data()));
    const double sec = sw.ElapsedSeconds();
    if (hits != keys.size()) {
      std::fprintf(stderr, "lookup self-check failed: %" PRIu64 "/%zu hits\n",
                   hits, keys.size());
      std::exit(1);
    }
    return static_cast<double>(keys.size()) / sec;
  };
  // rates[0] at the default sampling period; metrics-on builds also time
  // rates[1] with sampling off, interleaved, alternating which goes first.
  std::vector<uint32_t> periods = {LatencyRecorder::kDefaultSamplePeriod};
  if (kMetricsEnabled) periods.push_back(0);
  std::vector<std::vector<double>> rates(periods.size());
  for (int rep = 0; rep < reps; ++rep) {
    for (size_t i = 0; i < periods.size(); ++i) {
      const size_t p = (i + rep) % periods.size();
      table.latency().set_sample_period(periods[p]);
      rates[p].push_back(pass_rate());
    }
  }
  const double rate = *std::max_element(rates[0].begin(), rates[0].end());

  const char* prefix = kMetricsEnabled ? "obs_on." : "obs_off.";
  std::printf("%-45s %12.3g keys/s  (metrics %s, load %.1f%%, best of %d)\n",
              (std::string(prefix) + "lookup_hit.McCuckoo.load90").c_str(),
              rate, kMetricsEnabled ? "on" : "off", table.load_factor() * 100,
              reps);

  FlatJson entries;
  entries[std::string(prefix) + "lookup_hit.McCuckoo.load90"] = rate;
  if (kMetricsEnabled) {
    // Metrics-on runs also export their headline distribution columns —
    // free evidence the recording actually happened during the timed loop.
    MetricsSnapshot snap = table.SnapshotMetrics();
    for (const auto& [k, v] :
         MetricsFlatEntries(snap, std::string(prefix) + "McCuckoo.")) {
      entries[k] = v;
    }
  }
  const std::string path = BenchJsonPath();
  if (!MergeFlatJson(path, prefix, entries)) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::printf("merged %zu entries into %s\n", entries.size(), path.c_str());
  if (kMetricsEnabled) {
    const Quartiles on = QuartilesOf(rates[0]);
    const Quartiles off = QuartilesOf(rates[1]);
    const double ratio = on.p50 / off.p50;
    std::printf("lat_on.lookup_hit.McCuckoo.load90  %12.3g keys/s  "
                "[%.3g, %.3g] (period %u)\n",
                on.p50, on.p25, on.p75, periods[0]);
    std::printf("lat_off.lookup_hit.McCuckoo.load90 %12.3g keys/s  "
                "[%.3g, %.3g] (period 0)\n",
                off.p50, off.p25, off.p75);
    std::printf("lat_overhead.ratio                 %.4f  (medians of %d "
                "interleaved reps; acceptance >= 0.95)\n",
                ratio, reps);
    const FlatJson lat = {{"lat_on.lookup_hit.McCuckoo.load90", on.p50},
                          {"lat_off.lookup_hit.McCuckoo.load90", off.p50},
                          {"lat_overhead.ratio", ratio}};
    if (!MergeFlatJson(path, "lat_", lat)) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return 1;
    }
  }
  return 0;
}

}  // namespace
}  // namespace mccuckoo

int main(int argc, char** argv) { return mccuckoo::Run(argc, argv); }
