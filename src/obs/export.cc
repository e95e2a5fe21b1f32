#include "src/obs/export.h"

#include <cinttypes>
#include <cstdio>
#include <iterator>
#include <span>

namespace mccuckoo {

namespace {

/// Escapes a Prometheus label value (exposition format: backslash, double
/// quote, newline).
std::string EscapeLabelValue(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"':  out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default:   out += c;
    }
  }
  return out;
}

using LabelList = std::vector<std::pair<std::string, std::string>>;

std::string LabelBlock(const LabelList& labels) {
  if (labels.empty()) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ',';
    first = false;
    out += k;
    out += "=\"";
    out += EscapeLabelValue(v);
    out += '"';
  }
  out += '}';
  return out;
}

// --- The metric lists -----------------------------------------------------
//
// Every metric the exporters render is named exactly once, in one of the
// lists below; export.h states the rules the three renderers apply to them.

enum class Kind { kCounter, kGauge, kHistogram, kRatio };

/// A label axis: the label's name and its values, in snapshot index order.
struct Axis {
  const char* label;
  std::span<const char* const> values;
};

/// Eviction-policy label values, in MetricsSnapshot::policy_chain_len
/// index order (== EvictionPolicy enumerator order).
constexpr const char* kPolicyNames[] = {"random_walk", "min_counter", "bfs",
                                        "bubble"};
static_assert(std::size(kPolicyNames) == kMetricsPolicies);
constexpr const char* kPartitionNames[] = {"0", "1", "2", "3", "4"};
static_assert(std::size(kPartitionNames) == kMetricsPartitions);

constexpr Axis kPolicyAxis{"policy", kPolicyNames};
constexpr Axis kPartitionAxis{"partition", kPartitionNames};
constexpr Axis kLatencyOpAxis{"op", kLatencyOpNames};
constexpr Axis kSpanKindAxis{"kind", kSpanKindNames};
constexpr Axis kServerOpAxis{"op", kServerOpNames};

/// One series' value: `hist` for a histogram, `ratio` for a ratio, `count`
/// for a counter or gauge.
struct Reading {
  uint64_t count = 0;
  double ratio = 0;
  const HistogramSnapshot* hist = nullptr;
};
constexpr Reading Count(uint64_t v) { return {v, 0, nullptr}; }
constexpr Reading Ratio(double v) { return {0, v, nullptr}; }
constexpr Reading Hist(const HistogramSnapshot& h) { return {0, 0, &h}; }

/// One metric family of a `Snapshot`: `read(s, i)` is the member at label
/// index `i` (always 0 for an unlabelled family).
template <typename Snapshot>
struct Metric {
  const char* name;
  Kind kind;
  const char* help;
  const Axis* axis;  ///< nullptr: one unlabelled series.
  Reading (*read)(const Snapshot&, size_t);
};

using M = MetricsSnapshot;
using S = ServerMetricsSnapshot;

/// The table plane: MetricsSnapshot, then the AccessStats totals below.
constexpr Metric<M> kTableMetrics[] = {
    {"inserts", Kind::kCounter, "Insert operations performed.", nullptr,
     [](const M& m, size_t) { return Count(m.inserts); }},
    {"lookups", Kind::kCounter, "Lookup operations performed.", nullptr,
     [](const M& m, size_t) { return Count(m.lookups); }},
    {"erases", Kind::kCounter, "Erase operations performed.", nullptr,
     [](const M& m, size_t) { return Count(m.erases); }},
    {"kick_chain_length", Kind::kHistogram,
     "Kick-outs per insertion (0 = no collision).", nullptr,
     [](const M& m, size_t) { return Hist(m.kick_chain_len); }},
    {"policy_chain_length", Kind::kHistogram,
     "Relocations per colliding insertion, by the eviction policy that "
     "resolved it.",
     &kPolicyAxis,
     [](const M& m, size_t i) { return Hist(m.policy_chain_len[i]); }},
    {"insert_latency_ns", Kind::kHistogram,
     "Wall-clock nanoseconds per insertion, timed 1 in "
     "latency_sample_period and weighted by it.",
     nullptr,
     [](const M& m, size_t) { return Hist(m.insert_ns); }},
    {"lookup_probes", Kind::kHistogram,
     "Off-chip bucket probes per lookup (0 = Bloom-pruned).", nullptr,
     [](const M& m, size_t) { return Hist(m.lookup_probes); }},
    {"bfs_nodes_expanded", Kind::kCounter,
     "Interior nodes the BFS eviction engine expanded (one occupant read "
     "each).",
     nullptr, [](const M& m, size_t) { return Count(m.bfs_nodes_expanded); }},
    {"partition_probes", Kind::kCounter,
     "Bucket probes spent in the counter-value-V lookup partition.",
     &kPartitionAxis,
     [](const M& m, size_t i) { return Count(m.partition_probes[i]); }},
    {"partition_hits", Kind::kCounter,
     "Lookups resolved in the counter-value-V partition.", &kPartitionAxis,
     [](const M& m, size_t i) { return Count(m.partition_hits[i]); }},
    {"stash_hits", Kind::kCounter, "Stash probes that found the key.", nullptr,
     [](const M& m, size_t) { return Count(m.stash_hits); }},
    {"stash_misses", Kind::kCounter, "Stash probes that came back empty.",
     nullptr, [](const M& m, size_t) { return Count(m.stash_misses); }},
    {"optimistic_retries", Kind::kCounter,
     "Optimistic read attempts discarded by seqlock validation.", nullptr,
     [](const M& m, size_t) { return Count(m.optimistic_retries); }},
    {"optimistic_fallbacks", Kind::kCounter,
     "Reads that exhausted optimistic retries and took the lock.", nullptr,
     [](const M& m, size_t) { return Count(m.optimistic_fallbacks); }},
    {"writer_lock_acquisitions", Kind::kCounter,
     "Striped writer-lock acquisitions (multi-writer mode).", nullptr,
     [](const M& m, size_t) { return Count(m.writer_lock_acquisitions); }},
    {"writer_lock_contended", Kind::kCounter,
     "Writer-lock acquisitions that contended (a blocking wait or a failed "
     "mid-chain try-lock).",
     nullptr,
     [](const M& m, size_t) { return Count(m.writer_lock_contended); }},
    {"writer_chain_handoffs", Kind::kCounter,
     "Kick-chain bucket claims (claim-then-move hand-offs).", nullptr,
     [](const M& m, size_t) { return Count(m.writer_chain_handoffs); }},
    {"writer_lock_wait_ns", Kind::kHistogram,
     "Nanoseconds per contended writer-lock acquisition.", nullptr,
     [](const M& m, size_t) { return Hist(m.writer_lock_wait_ns); }},
    {"growth_rehashes", Kind::kCounter,
     "Auto-growth rehashes committed (capacity grows).", nullptr,
     [](const M& m, size_t) { return Count(m.growth_rehashes); }},
    {"growth_reseeds", Kind::kCounter,
     "Auto-growth same-size rehashes under a rotated seed.", nullptr,
     [](const M& m, size_t) { return Count(m.growth_reseeds); }},
    {"growth_failures", Kind::kCounter,
     "Auto-growth rehash attempts that failed (e.g. allocation).", nullptr,
     [](const M& m, size_t) { return Count(m.growth_failures); }},
    {"growth_suppressed", Kind::kGauge,
     "1 when growth pressure exists but growth cannot act (disabled, size "
     "cap, or failed) and inserts degrade to the stash; sharded snapshots "
     "sum this over shards.",
     nullptr, [](const M& m, size_t) { return Count(m.growth_suppressed); }},
    {"rehash_duration_ns", Kind::kHistogram,
     "Wall-clock nanoseconds per table rehash (manual or auto-growth).",
     nullptr, [](const M& m, size_t) { return Hist(m.rehash_ns); }},
    {"op_latency_ns", Kind::kHistogram,
     "Sampled end-to-end wall-clock nanoseconds per operation (1-in-N "
     "sampling).",
     &kLatencyOpAxis,
     [](const M& m, size_t i) { return Hist(m.op_latency_ns[i]); }},
    {"latency_sample_period", Kind::kGauge,
     "1-in-N op-latency sampling period (0 = sampling disabled; shard merges "
     "keep the max).",
     nullptr,
     [](const M& m, size_t) { return Count(m.latency_sample_period); }},
    {"spans", Kind::kCounter,
     "Spans recorded per kind (growth, rehash, reseed, BFS dead-end, stash "
     "spill).",
     &kSpanKindAxis,
     [](const M& m, size_t i) { return Count(m.span_counts[i]); }},
    {"occupancy_items", Kind::kGauge, "Live items (main table + stash).",
     nullptr, [](const M& m, size_t) { return Count(m.occupancy_items); }},
    {"capacity_slots", Kind::kGauge, "Total slots.", nullptr,
     [](const M& m, size_t) { return Count(m.capacity_slots); }},
    {"load_factor", Kind::kRatio, "occupancy_items / capacity_slots.", nullptr,
     [](const M& m, size_t) { return Ratio(m.LoadFactor()); }},
};

/// The paper's access-accounting totals, for dashboards that want traffic
/// next to the distributions. JSON nests them under "access_stats"; the
/// flat rows render a MetricsSnapshot alone and leave them out.
constexpr const char* kAccessHelp = "Modeled memory accesses (AccessStats).";
constexpr Metric<AccessStats> kAccessMetrics[] = {
    {"offchip_reads", Kind::kCounter, kAccessHelp, nullptr,
     [](const AccessStats& a, size_t) { return Count(a.offchip_reads); }},
    {"offchip_writes", Kind::kCounter, kAccessHelp, nullptr,
     [](const AccessStats& a, size_t) { return Count(a.offchip_writes); }},
    {"onchip_reads", Kind::kCounter, kAccessHelp, nullptr,
     [](const AccessStats& a, size_t) { return Count(a.onchip_reads); }},
    {"onchip_writes", Kind::kCounter, kAccessHelp, nullptr,
     [](const AccessStats& a, size_t) { return Count(a.onchip_writes); }},
    {"kickouts", Kind::kCounter, kAccessHelp, nullptr,
     [](const AccessStats& a, size_t) { return Count(a.kickouts); }},
    {"stash_probes", Kind::kCounter, kAccessHelp, nullptr,
     [](const AccessStats& a, size_t) { return Count(a.stash_probes); }},
};

/// The server plane.
constexpr const char* kServerHelp = "Cache-server protocol counter.";
constexpr Metric<S> kServerMetrics[] = {
    {"requests", Kind::kCounter, "Request frames dispatched, by opcode.",
     &kServerOpAxis, [](const S& s, size_t i) { return Count(s.requests[i]); }},
    {"connections_accepted", Kind::kCounter, kServerHelp, nullptr,
     [](const S& s, size_t) { return Count(s.connections_accepted); }},
    {"connections_closed", Kind::kCounter, kServerHelp, nullptr,
     [](const S& s, size_t) { return Count(s.connections_closed); }},
    {"protocol_errors", Kind::kCounter, kServerHelp, nullptr,
     [](const S& s, size_t) { return Count(s.protocol_errors); }},
    {"http_requests", Kind::kCounter, kServerHelp, nullptr,
     [](const S& s, size_t) { return Count(s.http_requests); }},
    {"bytes_read", Kind::kCounter, kServerHelp, nullptr,
     [](const S& s, size_t) { return Count(s.bytes_read); }},
    {"bytes_written", Kind::kCounter, kServerHelp, nullptr,
     [](const S& s, size_t) { return Count(s.bytes_written); }},
    {"get_hits", Kind::kCounter, kServerHelp, nullptr,
     [](const S& s, size_t) { return Count(s.get_hits); }},
    {"get_misses", Kind::kCounter, kServerHelp, nullptr,
     [](const S& s, size_t) { return Count(s.get_misses); }},
    {"mget_keys", Kind::kCounter, kServerHelp, nullptr,
     [](const S& s, size_t) { return Count(s.mget_keys); }},
    {"batched_lookups", Kind::kCounter, kServerHelp, nullptr,
     [](const S& s, size_t) { return Count(s.batched_lookups); }},
    {"expired_lazy", Kind::kCounter, kServerHelp, nullptr,
     [](const S& s, size_t) { return Count(s.expired_lazy); }},
    {"expired_swept", Kind::kCounter, kServerHelp, nullptr,
     [](const S& s, size_t) { return Count(s.expired_swept); }},
    {"sweep_runs", Kind::kCounter, kServerHelp, nullptr,
     [](const S& s, size_t) { return Count(s.sweep_runs); }},
    {"evictions_capacity", Kind::kCounter, kServerHelp, nullptr,
     [](const S& s, size_t) { return Count(s.evictions_capacity); }},
    {"evictions_pressure", Kind::kCounter, kServerHelp, nullptr,
     [](const S& s, size_t) { return Count(s.evictions_pressure); }},
    {"evictions_spared", Kind::kCounter,
     "Eviction candidates spared for another pass by their access count.",
     nullptr, [](const S& s, size_t) { return Count(s.evictions_spared); }},
    {"hash_collisions", Kind::kCounter, kServerHelp, nullptr,
     [](const S& s, size_t) { return Count(s.hash_collisions); }},
    {"items", Kind::kGauge, "Live items in the item store.", nullptr,
     [](const S& s, size_t) { return Count(s.items); }},
    {"bytes", Kind::kGauge, "Key+value payload bytes held.", nullptr,
     [](const S& s, size_t) { return Count(s.bytes); }},
    {"open_connections", Kind::kGauge, "Currently connected client sockets.",
     nullptr, [](const S& s, size_t) { return Count(s.open_connections); }},
    {"hit_ratio", Kind::kRatio, "get_hits / (get_hits + get_misses).", nullptr,
     [](const S& s, size_t) { return Ratio(s.HitRatio()); }},
};

// --- The renderers --------------------------------------------------------

/// Calls `visit(label_value, reading)` for each series of `metric` the
/// presence rule keeps (label_value is nullptr for an unlabelled family).
template <typename Snapshot, typename Visit>
void ForEachSeries(const Metric<Snapshot>& metric, const Snapshot& s,
                   Visit&& visit) {
  if (metric.axis == nullptr) return visit(nullptr, metric.read(s, 0));
  for (size_t i = 0; i < metric.axis->values.size(); ++i) {
    const Reading r = metric.read(s, i);
    if (r.hist == nullptr || r.hist->count != 0) {
      visit(metric.axis->values[i], r);
    }
  }
}

/// A counter, gauge or ratio value as text.
std::string Scalar(Kind kind, const Reading& r) {
  if (kind != Kind::kRatio) return std::to_string(r.count);
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.6g", r.ratio);
  return buf;
}

void AppendSample(std::string* out, const std::string& name,
                  const LabelList& labels, const std::string& value) {
  *out += name;
  *out += LabelBlock(labels);
  *out += ' ';
  *out += value;
  *out += '\n';
}

/// One histogram in Prometheus cumulative-bucket form.
void AppendHistogram(std::string* out, const std::string& name,
                     const LabelList& labels, const HistogramSnapshot& h) {
  uint64_t cumulative = 0;
  for (size_t i = 0; i < kHistogramBuckets; ++i) {
    cumulative += h.bucket[i];
    LabelList with_le = labels;
    with_le.emplace_back("le",
                         i == kHistogramBuckets - 1
                             ? "+Inf"
                             : std::to_string(HistogramBucketUpperBound(i)));
    AppendSample(out, name + "_bucket", with_le, std::to_string(cumulative));
  }
  AppendSample(out, name + "_sum", labels, std::to_string(h.sum));
  AppendSample(out, name + "_count", labels, std::to_string(h.count));
}

template <typename Snapshot, size_t N>
void RenderPrometheus(std::string* out, const Metric<Snapshot> (&list)[N],
                      const Snapshot& s, const char* prefix,
                      const LabelList& labels) {
  for (const Metric<Snapshot>& metric : list) {
    const std::string name = prefix + std::string(metric.name) +
                             (metric.kind == Kind::kCounter ? "_total" : "");
    const char* type = metric.kind == Kind::kCounter     ? "counter"
                       : metric.kind == Kind::kHistogram ? "histogram"
                                                         : "gauge";
    bool first = true;
    ForEachSeries(metric, s, [&](const char* label_value, const Reading& r) {
      if (first) {
        *out += "# HELP " + name + " " + metric.help + "\n";
        *out += "# TYPE " + name + " " + type + "\n";
        first = false;
      }
      LabelList series = labels;
      if (label_value != nullptr) {
        series.emplace_back(metric.axis->label, label_value);
      }
      if (r.hist != nullptr) {
        AppendHistogram(out, name, series, *r.hist);
      } else {
        AppendSample(out, name, series, Scalar(metric.kind, r));
      }
    });
  }
}

/// Raw (non-cumulative) JSON form of one histogram.
std::string JsonHistogram(const HistogramSnapshot& h) {
  std::string out = "{\"count\": " + std::to_string(h.count) +
                    ", \"sum\": " + std::to_string(h.sum) + ", \"buckets\": [";
  // Trailing empty buckets are elided; "le" bounds make the list
  // self-describing regardless of length.
  size_t last = kHistogramBuckets;
  while (last > 0 && h.bucket[last - 1] == 0) --last;
  for (size_t i = 0; i < last; ++i) {
    if (i > 0) out += ", ";
    out += "{\"le\": ";
    out += i == kHistogramBuckets - 1
               ? "\"+Inf\""
               : std::to_string(HistogramBucketUpperBound(i));
    out += ", \"n\": " + std::to_string(h.bucket[i]) + "}";
  }
  return out + "]}";
}

/// The list's members, one `<indent>"name": value` line each, joined by
/// ",\n" (no trailing separator).
template <typename Snapshot, size_t N>
std::string RenderJson(const Metric<Snapshot> (&list)[N], const Snapshot& s,
                       const char* indent) {
  std::string out;
  for (const Metric<Snapshot>& metric : list) {
    std::string value;
    ForEachSeries(metric, s, [&](const char* label_value, const Reading& r) {
      if (!value.empty()) value += ", ";
      if (label_value != nullptr) {
        value += '"' + std::string(label_value) + "\": ";
      }
      value += r.hist != nullptr ? JsonHistogram(*r.hist)
                                 : Scalar(metric.kind, r);
    });
    if (!out.empty()) out += ",\n";
    out += std::string(indent) + '"' + metric.name + "\": ";
    out += metric.axis != nullptr ? '{' + value + '}' : value;
  }
  return out;
}

/// The table plane's JSON object up to, not including, its closing brace:
/// every table metric, then "op_latency_quantiles".
std::string TableJsonFields(const MetricsSnapshot& m) {
  std::string out = "{\n" + RenderJson(kTableMetrics, m, "  ") + ",\n";
  // Pre-computed quantiles so flat scanners (mccuckoo_top, shell scripts)
  // need no histogram math; values are conservative bucket upper bounds.
  out += "  \"op_latency_quantiles\": {";
  for (size_t op = 0; op < kLatencyOps; ++op) {
    const HistogramSnapshot& h = m.op_latency_ns[op];
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"p50\": %" PRIu64 ", \"p99\": %" PRIu64
                  ", \"p999\": %" PRIu64 "}",
                  op == 0 ? "" : ", ", kLatencyOpNames[op],
                  h.PercentileUpperBound(0.50), h.PercentileUpperBound(0.99),
                  h.PercentileUpperBound(0.999));
    out += buf;
  }
  out += "}";
  return out;
}

}  // namespace

std::string PrometheusLabels(const LabelList& labels) {
  return LabelBlock(labels);
}

std::string ExportPrometheus(const MetricsSnapshot& m,
                             const LabelList& labels) {
  std::string out;
  out.reserve(4096);
  RenderPrometheus(&out, kTableMetrics, m, "mccuckoo_", labels);
  return out;
}

std::string ExportPrometheus(const MetricsSnapshot& m, const AccessStats& stats,
                             const LabelList& labels) {
  std::string out = ExportPrometheus(m, labels);
  RenderPrometheus(&out, kAccessMetrics, stats, "mccuckoo_", labels);
  out += "# AccessStats " + stats.ToString() + "\n";
  return out;
}

std::string ExportJson(const MetricsSnapshot& m) {
  return TableJsonFields(m) + "\n}\n";
}

std::string ExportJson(const MetricsSnapshot& m, const AccessStats& stats) {
  return TableJsonFields(m) + ",\n  \"access_stats\": {\n" +
         RenderJson(kAccessMetrics, stats, "    ") + "\n  }\n}\n";
}

std::map<std::string, double> MetricsFlatEntries(const MetricsSnapshot& m,
                                                 const std::string& prefix) {
  std::map<std::string, double> out;
  for (const Metric<M>& metric : kTableMetrics) {
    ForEachSeries(metric, m, [&](const char* label_value, const Reading& r) {
      std::string key = prefix + metric.name;
      if (label_value != nullptr) key += std::string(".") + label_value;
      if (r.hist == nullptr) {
        out[key] = metric.kind == Kind::kRatio
                       ? r.ratio
                       : static_cast<double>(r.count);
        return;
      }
      const HistogramSnapshot& h = *r.hist;
      out[key + ".count"] = static_cast<double>(h.count);
      out[key + ".mean"] = h.Mean();
      out[key + ".p50"] = static_cast<double>(h.PercentileUpperBound(0.50));
      out[key + ".p99"] = static_cast<double>(h.PercentileUpperBound(0.99));
      out[key + ".p999"] = static_cast<double>(h.PercentileUpperBound(0.999));
    });
  }
  return out;
}

std::string ExportChromeTrace(const std::vector<Span>& spans,
                              const std::string& process_name, int pid,
                              int tid) {
  std::string out;
  out.reserve(256 + spans.size() * 128);
  out += "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  char buf[224];
  std::snprintf(buf, sizeof(buf),
                "  {\"name\": \"process_name\", \"ph\": \"M\", \"pid\": %d, "
                "\"args\": {\"name\": \"%s\"}}",
                pid, process_name.c_str());
  out += buf;
  for (const Span& s : spans) {
    // chrome://tracing wants microsecond doubles; ns ticks keep 3 decimals.
    const double ts = static_cast<double>(s.start_ns) / 1000.0;
    if (s.dur_ns == 0) {
      std::snprintf(buf, sizeof(buf),
                    ",\n  {\"name\": \"%s\", \"cat\": \"mccuckoo\", \"ph\": "
                    "\"i\", \"s\": \"t\", \"ts\": %.3f, \"pid\": %d, \"tid\": "
                    "%d, \"args\": {\"seq\": %" PRIu64 ", \"detail\": %" PRIu64
                    "}}",
                    kSpanKindNames[static_cast<size_t>(s.kind)], ts, pid, tid,
                    s.seq, s.detail);
    } else {
      std::snprintf(buf, sizeof(buf),
                    ",\n  {\"name\": \"%s\", \"cat\": \"mccuckoo\", \"ph\": "
                    "\"X\", \"ts\": %.3f, \"dur\": %.3f, \"pid\": %d, \"tid\": "
                    "%d, \"args\": {\"seq\": %" PRIu64 ", \"detail\": %" PRIu64
                    "}}",
                    kSpanKindNames[static_cast<size_t>(s.kind)], ts,
                    static_cast<double>(s.dur_ns) / 1000.0, pid, tid, s.seq,
                    s.detail);
    }
    out += buf;
  }
  out += "\n]}\n";
  return out;
}

std::string ExportServerPrometheus(const ServerMetricsSnapshot& s,
                                   const LabelList& labels) {
  std::string out;
  out.reserve(2048);
  RenderPrometheus(&out, kServerMetrics, s, "mccuckoo_server_", labels);
  return out;
}

std::string ExportServerJson(const ServerMetricsSnapshot& s) {
  return "{\n" + RenderJson(kServerMetrics, s, "  ") + "\n}\n";
}

std::string ExportHeatmapJson(const HeatmapSnapshot& h) {
  std::string out = "{\n";
  char buf[96];
  std::snprintf(buf, sizeof(buf), "  \"total_buckets\": %" PRIu64 ",\n",
                h.total_buckets);
  out += buf;
  std::snprintf(buf, sizeof(buf), "  \"occupied_slots\": %" PRIu64 ",\n",
                h.occupied_slots);
  out += buf;
  std::snprintf(buf, sizeof(buf), "  \"total_slots\": %" PRIu64 ",\n",
                h.total_slots);
  out += buf;
  std::snprintf(buf, sizeof(buf), "  \"load_factor\": %.6g,\n",
                h.LoadFactor());
  out += buf;
  out += "  \"counter_values\": [";
  for (size_t i = 0; i < h.counter_values.size(); ++i) {
    if (i > 0) out += ", ";
    out += std::to_string(h.counter_values[i]);
  }
  out += "],\n";
  out += "  \"region_occupied\": [";
  for (size_t i = 0; i < h.region_occupied.size(); ++i) {
    if (i > 0) out += ", ";
    out += std::to_string(h.region_occupied[i]);
  }
  out += "],\n";
  out += "  \"region_slots\": [";
  for (size_t i = 0; i < h.region_slots.size(); ++i) {
    if (i > 0) out += ", ";
    out += std::to_string(h.region_slots[i]);
  }
  out += "]\n}\n";
  return out;
}

}  // namespace mccuckoo
