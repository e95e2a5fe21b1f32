// Exporters for the metrics layer: Prometheus text format, a JSON
// snapshot, a flat key -> number form the bench harness merges into
// BENCH_throughput.json, a chrome://tracing timeline of the span ring,
// and a JSON heatmap. All render the same snapshot types, so one scrape
// path serves dashboards, post-mortems, and the benchmark result files
// alike — and the cache server's four HTTP stats routes are just these
// functions behind a socket.
//
// Every table and server metric is declared once, in one of the metric
// lists in export.cc: its name, kind (counter, gauge, histogram or ratio),
// help text, optional label axis (policy, partition, op, kind) and how to
// read it from a snapshot. The Prometheus, JSON and flat renderers walk
// those lists and apply the same rules to every entry:
//  - Name. One name per metric in every format: the Prometheus name
//    without its "mccuckoo_" / "mccuckoo_server_" prefix and "_total"
//    suffix (mccuckoo_kick_chain_length -> "kick_chain_length",
//    mccuckoo_spans_total -> "spans").
//  - Presence. Unlabelled series are always rendered. Members of a
//    labelled histogram are rendered only when non-empty; members of a
//    labelled counter always.
//  - Prometheus. One "# HELP" / "# TYPE" pair per family, its members
//    contiguous after it; counters carry "_total"; ratios are gauges.
//  - JSON. A scalar is "<name>": value and a histogram "<name>": {"count",
//    "sum", "buckets": [{"le", "n"}...]}; a labelled family is one object
//    keyed by label value, e.g. "spans": {"growth": 3, ...}.
//  - Flat (table plane only). "<name>[.<label>]" for a counter, gauge or
//    ratio, with ".{count,mean,p50,p99,p999}" appended for a histogram,
//    e.g. "spans.rehash", "op_latency_ns.find.p99".

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

/// Prometheus text exposition of the table plane (mccuckoo_* families),
/// histograms in cumulative-bucket form. `labels` are attached to every
/// sample (histogram buckets additionally get their "le", labelled
/// families their axis label).
std::string ExportPrometheus(
    const MetricsSnapshot& m,
    const std::vector<std::pair<std::string, std::string>>& labels = {});

/// The same, followed by a charged table's AccessStats totals as counters
/// plus a trailing human-readable comment (AccessStats::ToString) for
/// eyeballing dumps. The concurrent front-end charges no AccessStats, so
/// its exports (the daemon's) use the form above.
std::string ExportPrometheus(
    const MetricsSnapshot& m, const AccessStats& stats,
    const std::vector<std::pair<std::string, std::string>>& labels = {});

/// JSON object with the same content (raw, non-cumulative buckets), plus
/// "op_latency_quantiles" (p50/p99/p999 bucket bounds per op, so scanners
/// such as tools/mccuckoo_top need no histogram math). Stable key order.
std::string ExportJson(const MetricsSnapshot& m);

/// The same, with the access stats as a last, nested "access_stats"
/// object.
std::string ExportJson(const MetricsSnapshot& m, const AccessStats& stats);

/// Flattens a snapshot to "<prefix><row>" -> value entries — the form
/// bench binaries merge into BENCH_throughput.json so throughput rows gain
/// histogram columns for free. Covers the MetricsSnapshot series only (no
/// AccessStats totals).
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

}  // namespace mccuckoo

#endif  // MCCUCKOO_OBS_EXPORT_H_
