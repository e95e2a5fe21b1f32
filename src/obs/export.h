// Exporters for the metrics layer: Prometheus text format, a JSON
// snapshot, a flat key -> number form the bench harness merges into
// BENCH_throughput.json, a chrome://tracing timeline of the span ring,
// and a JSON heatmap. All render the same snapshot types, so one scrape
// path serves dashboards, post-mortems, and the benchmark result files
// alike — and the cache server's four HTTP stats routes are just these
// functions behind a socket.

#ifndef MCCUCKOO_OBS_EXPORT_H_
#define MCCUCKOO_OBS_EXPORT_H_

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/mem/access_stats.h"
#include "src/obs/heatmap.h"
#include "src/obs/metrics.h"
#include "src/obs/server_metrics.h"
#include "src/obs/span_recorder.h"

namespace mccuckoo {

/// Renders label pairs as a Prometheus label block, '{k="v",k2="v2"}'
/// (empty string for no labels). Values are escaped per the exposition
/// format (backslash, double quote, newline).
std::string PrometheusLabels(
    const std::vector<std::pair<std::string, std::string>>& labels);

/// Prometheus text exposition of a snapshot: counters as *_total, the
/// gauges, and the three histograms in cumulative-bucket form. `labels`
/// are attached to every sample (histogram buckets additionally get their
/// "le", partition counters their "partition"). The AccessStats totals are
/// exported as counters too, plus a trailing human-readable comment
/// (AccessStats::ToString) for eyeballing dumps.
std::string ExportPrometheus(
    const MetricsSnapshot& m, const AccessStats& stats,
    const std::vector<std::pair<std::string, std::string>>& labels = {});

/// JSON object with the same content (raw, non-cumulative buckets), plus
/// the access stats as a nested object. Stable key order; parseable by any
/// JSON reader and by bench/bench_json.h's flat scanner.
std::string ExportJson(const MetricsSnapshot& m, const AccessStats& stats);

/// Flattens the headline numbers to "<prefix><metric>" -> value entries
/// (mean/p50/p99 for the histograms, totals for the counters) — the form
/// bench binaries merge into BENCH_throughput.json so throughput rows gain
/// histogram columns for free.
std::map<std::string, double> MetricsFlatEntries(const MetricsSnapshot& m,
                                                 const std::string& prefix);

/// Renders spans as a chrome://tracing "traceEvents" JSON document
/// (load it via chrome://tracing or Perfetto). Closed spans become
/// complete ("X") events with microsecond ts/dur on the shared clock;
/// zero-duration spans become instant ("i") events. `pid`/`tid` let a
/// sharded front-end lay shards out as separate tracks.
std::string ExportChromeTrace(const std::vector<Span>& spans,
                              const std::string& process_name = "mccuckoo",
                              int pid = 0, int tid = 0);

/// JSON form of a heatmap snapshot: per-region occupancy (occupied /
/// total slots), the counter-value distribution, and the totals.
std::string ExportHeatmapJson(const HeatmapSnapshot& h);

/// Prometheus text exposition of the cache server's connection/protocol
/// counters (mccuckoo_server_* metric family). Appended after
/// ExportPrometheus() on the server's /metrics route so one scrape carries
/// both the table layer and the network layer.
std::string ExportServerPrometheus(
    const ServerMetricsSnapshot& s,
    const std::vector<std::pair<std::string, std::string>>& labels = {});

/// JSON object of the same counters (the server's STATS opcode body and a
/// "server" section of its /json route).
std::string ExportServerJson(const ServerMetricsSnapshot& s);

/// Flat "<prefix><metric>" -> value entries for the bench harness,
/// mirroring MetricsFlatEntries.
std::map<std::string, double> ServerFlatEntries(const ServerMetricsSnapshot& s,
                                                const std::string& prefix);

}  // namespace mccuckoo

#endif  // MCCUCKOO_OBS_EXPORT_H_
