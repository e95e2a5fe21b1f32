#include "src/obs/export.h"

#include <cinttypes>
#include <cstdio>

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

void AppendSample(std::string* out, const std::string& name,
                  const LabelList& labels, uint64_t value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, value);
  *out += name;
  *out += LabelBlock(labels);
  *out += ' ';
  *out += buf;
  *out += '\n';
}

void AppendGaugeDouble(std::string* out, const std::string& name,
                       const LabelList& labels, double value) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  *out += name;
  *out += LabelBlock(labels);
  *out += ' ';
  *out += buf;
  *out += '\n';
}

void AppendMeta(std::string* out, const std::string& name, const char* type,
                const char* help) {
  *out += "# HELP " + name + " " + help + "\n";
  *out += "# TYPE " + name + " " + std::string(type) + "\n";
}

/// One histogram in Prometheus cumulative-bucket form.
void AppendHistogram(std::string* out, const std::string& name,
                     const LabelList& labels, const HistogramSnapshot& h,
                     const char* help) {
  AppendMeta(out, name, "histogram", help);
  uint64_t cumulative = 0;
  for (size_t i = 0; i < kHistogramBuckets; ++i) {
    cumulative += h.bucket[i];
    LabelList with_le = labels;
    if (i == kHistogramBuckets - 1) {
      with_le.emplace_back("le", "+Inf");
    } else {
      char le[24];
      std::snprintf(le, sizeof(le), "%" PRIu64, HistogramBucketUpperBound(i));
      with_le.emplace_back("le", le);
    }
    AppendSample(out, name + "_bucket", with_le, cumulative);
  }
  AppendSample(out, name + "_sum", labels, h.sum);
  AppendSample(out, name + "_count", labels, h.count);
}

/// Raw (non-cumulative) JSON form of one histogram.
void AppendJsonHistogram(std::string* out, const char* name,
                         const HistogramSnapshot& h, bool trailing_comma) {
  char buf[96];
  std::snprintf(buf, sizeof(buf),
                "  \"%s\": {\"count\": %" PRIu64 ", \"sum\": %" PRIu64
                ", \"buckets\": [",
                name, h.count, h.sum);
  *out += buf;
  // Trailing empty buckets are elided; "le" bounds make the list
  // self-describing regardless of length.
  size_t last = kHistogramBuckets;
  while (last > 0 && h.bucket[last - 1] == 0) --last;
  for (size_t i = 0; i < last; ++i) {
    if (i > 0) *out += ", ";
    if (i == kHistogramBuckets - 1) {
      std::snprintf(buf, sizeof(buf), "{\"le\": \"+Inf\", \"n\": %" PRIu64 "}",
                    h.bucket[i]);
    } else {
      std::snprintf(buf, sizeof(buf),
                    "{\"le\": %" PRIu64 ", \"n\": %" PRIu64 "}",
                    HistogramBucketUpperBound(i), h.bucket[i]);
    }
    *out += buf;
  }
  *out += trailing_comma ? "]},\n" : "]}\n";
}

void AppendJsonField(std::string* out, const char* name, uint64_t value,
                     bool trailing_comma, const char* indent = "  ") {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%s\"%s\": %" PRIu64 "%s\n", indent, name,
                value, trailing_comma ? "," : "");
  *out += buf;
}

/// Eviction-policy label values, in MetricsSnapshot::policy_chain_len
/// index order (== EvictionPolicy enumerator order).
constexpr const char* kPolicyNames[kMetricsPolicies] = {
    "random_walk", "min_counter", "bfs", "bubble"};

}  // namespace

std::string PrometheusLabels(const LabelList& labels) {
  return LabelBlock(labels);
}

std::string ExportPrometheus(const MetricsSnapshot& m, const AccessStats& stats,
                             const LabelList& labels) {
  std::string out;
  out.reserve(4096);

  AppendMeta(&out, "mccuckoo_inserts_total", "counter",
             "Insert operations performed.");
  AppendSample(&out, "mccuckoo_inserts_total", labels, m.inserts);
  AppendMeta(&out, "mccuckoo_lookups_total", "counter",
             "Lookup operations performed.");
  AppendSample(&out, "mccuckoo_lookups_total", labels, m.lookups);
  AppendMeta(&out, "mccuckoo_erases_total", "counter",
             "Erase operations performed.");
  AppendSample(&out, "mccuckoo_erases_total", labels, m.erases);

  AppendHistogram(&out, "mccuckoo_kick_chain_length", labels, m.kick_chain_len,
                  "Kick-outs per insertion (0 = no collision).");
  for (size_t p = 0; p < kMetricsPolicies; ++p) {
    if (m.policy_chain_len[p].count == 0) continue;
    LabelList with_policy = labels;
    with_policy.emplace_back("policy", kPolicyNames[p]);
    AppendHistogram(&out, "mccuckoo_policy_chain_length", with_policy,
                    m.policy_chain_len[p],
                    "Relocations per colliding insertion, by the eviction "
                    "policy that resolved it.");
  }
  AppendHistogram(&out, "mccuckoo_insert_latency_ns", labels, m.insert_ns,
                  "Wall-clock nanoseconds per insertion.");
  AppendHistogram(&out, "mccuckoo_lookup_probes", labels, m.lookup_probes,
                  "Off-chip bucket probes per lookup (0 = Bloom-pruned).");
  AppendMeta(&out, "mccuckoo_bfs_nodes_expanded_total", "counter",
             "Interior nodes the BFS eviction engine expanded (one occupant "
             "read each).");
  AppendSample(&out, "mccuckoo_bfs_nodes_expanded_total", labels,
               m.bfs_nodes_expanded);

  AppendMeta(&out, "mccuckoo_partition_probes_total", "counter",
             "Bucket probes spent in the counter-value-V lookup partition.");
  for (size_t v = 0; v < kMetricsPartitions; ++v) {
    if (m.partition_probes[v] == 0) continue;
    LabelList with_p = labels;
    with_p.emplace_back("partition", std::to_string(v));
    AppendSample(&out, "mccuckoo_partition_probes_total", with_p,
                 m.partition_probes[v]);
  }
  AppendMeta(&out, "mccuckoo_partition_hits_total", "counter",
             "Lookups resolved in the counter-value-V partition.");
  for (size_t v = 0; v < kMetricsPartitions; ++v) {
    if (m.partition_hits[v] == 0) continue;
    LabelList with_p = labels;
    with_p.emplace_back("partition", std::to_string(v));
    AppendSample(&out, "mccuckoo_partition_hits_total", with_p,
                 m.partition_hits[v]);
  }

  AppendMeta(&out, "mccuckoo_stash_hits_total", "counter",
             "Stash probes that found the key.");
  AppendSample(&out, "mccuckoo_stash_hits_total", labels, m.stash_hits);
  AppendMeta(&out, "mccuckoo_stash_misses_total", "counter",
             "Stash probes that came back empty.");
  AppendSample(&out, "mccuckoo_stash_misses_total", labels, m.stash_misses);

  AppendMeta(&out, "mccuckoo_optimistic_retries_total", "counter",
             "Optimistic read attempts discarded by seqlock validation.");
  AppendSample(&out, "mccuckoo_optimistic_retries_total", labels,
               m.optimistic_retries);
  AppendMeta(&out, "mccuckoo_optimistic_fallbacks_total", "counter",
             "Reads that exhausted optimistic retries and took the lock.");
  AppendSample(&out, "mccuckoo_optimistic_fallbacks_total", labels,
               m.optimistic_fallbacks);

  AppendMeta(&out, "mccuckoo_writer_lock_acquisitions_total", "counter",
             "Striped writer-lock acquisitions (multi-writer mode).");
  AppendSample(&out, "mccuckoo_writer_lock_acquisitions_total", labels,
               m.writer_lock_acquisitions);
  AppendMeta(&out, "mccuckoo_writer_lock_contended_total", "counter",
             "Writer-lock acquisitions that contended (a blocking wait or a "
             "failed mid-chain try-lock).");
  AppendSample(&out, "mccuckoo_writer_lock_contended_total", labels,
               m.writer_lock_contended);
  AppendMeta(&out, "mccuckoo_writer_chain_handoffs_total", "counter",
             "Kick-chain bucket claims (claim-then-move hand-offs).");
  AppendSample(&out, "mccuckoo_writer_chain_handoffs_total", labels,
               m.writer_chain_handoffs);
  AppendHistogram(&out, "mccuckoo_writer_lock_wait_ns", labels,
                  m.writer_lock_wait_ns,
                  "Nanoseconds per contended writer-lock acquisition.");

  AppendMeta(&out, "mccuckoo_growth_rehashes_total", "counter",
             "Auto-growth rehashes committed (capacity grows).");
  AppendSample(&out, "mccuckoo_growth_rehashes_total", labels,
               m.growth_rehashes);
  AppendMeta(&out, "mccuckoo_growth_reseeds_total", "counter",
             "Auto-growth same-size rehashes under a rotated seed.");
  AppendSample(&out, "mccuckoo_growth_reseeds_total", labels,
               m.growth_reseeds);
  AppendMeta(&out, "mccuckoo_growth_failures_total", "counter",
             "Auto-growth rehash attempts that failed (e.g. allocation).");
  AppendSample(&out, "mccuckoo_growth_failures_total", labels,
               m.growth_failures);
  AppendMeta(&out, "mccuckoo_growth_suppressed", "gauge",
             "1 when growth pressure exists but growth cannot act (disabled, "
             "size cap, or failed) and inserts degrade to the stash; sharded "
             "snapshots sum this over shards.");
  AppendSample(&out, "mccuckoo_growth_suppressed", labels,
               m.growth_suppressed);
  AppendHistogram(&out, "mccuckoo_rehash_duration_ns", labels, m.rehash_ns,
                  "Wall-clock nanoseconds per table rehash (manual or "
                  "auto-growth).");

  // Sampled op latency: one histogram per operation kind that recorded at
  // least one sample (mirrors the per-policy histograms' presence rule).
  for (size_t op = 0; op < kLatencyOps; ++op) {
    if (m.op_latency_ns[op].count == 0) continue;
    LabelList with_op = labels;
    with_op.emplace_back("op", kLatencyOpNames[op]);
    AppendHistogram(&out, "mccuckoo_op_latency_ns", with_op,
                    m.op_latency_ns[op],
                    "Sampled end-to-end wall-clock nanoseconds per "
                    "operation (1-in-N sampling).");
  }
  AppendMeta(&out, "mccuckoo_latency_sample_period", "gauge",
             "1-in-N op-latency sampling period (0 = sampling disabled; "
             "shard merges keep the max).");
  AppendSample(&out, "mccuckoo_latency_sample_period", labels,
               m.latency_sample_period);
  AppendMeta(&out, "mccuckoo_spans_total", "counter",
             "Spans recorded per kind (growth, rehash, reseed, BFS "
             "dead-end, stash spill).");
  for (size_t k = 0; k < kSpanKinds; ++k) {
    LabelList with_kind = labels;
    with_kind.emplace_back("kind", kSpanKindNames[k]);
    AppendSample(&out, "mccuckoo_spans_total", with_kind, m.span_counts[k]);
  }

  AppendMeta(&out, "mccuckoo_occupancy_items", "gauge",
             "Live items (main table + stash).");
  AppendSample(&out, "mccuckoo_occupancy_items", labels, m.occupancy_items);
  AppendMeta(&out, "mccuckoo_capacity_slots", "gauge", "Total slots.");
  AppendSample(&out, "mccuckoo_capacity_slots", labels, m.capacity_slots);
  AppendMeta(&out, "mccuckoo_load_factor", "gauge",
             "occupancy_items / capacity_slots.");
  AppendGaugeDouble(&out, "mccuckoo_load_factor", labels, m.LoadFactor());

  // The paper's access-accounting totals, for dashboards that want traffic
  // next to the distributions.
  const std::pair<const char*, uint64_t> access[] = {
      {"mccuckoo_offchip_reads_total", stats.offchip_reads},
      {"mccuckoo_offchip_writes_total", stats.offchip_writes},
      {"mccuckoo_onchip_reads_total", stats.onchip_reads},
      {"mccuckoo_onchip_writes_total", stats.onchip_writes},
      {"mccuckoo_kickouts_total", stats.kickouts},
      {"mccuckoo_stash_probes_total", stats.stash_probes},
  };
  for (const auto& [name, value] : access) {
    AppendMeta(&out, name, "counter", "Modeled memory accesses (AccessStats).");
    AppendSample(&out, name, labels, value);
  }
  out += "# AccessStats " + stats.ToString() + "\n";
  return out;
}

std::string ExportJson(const MetricsSnapshot& m, const AccessStats& stats) {
  std::string out = "{\n";
  AppendJsonField(&out, "inserts", m.inserts, true);
  AppendJsonField(&out, "lookups", m.lookups, true);
  AppendJsonField(&out, "erases", m.erases, true);
  AppendJsonHistogram(&out, "kick_chain_len", m.kick_chain_len, true);
  for (size_t p = 0; p < kMetricsPolicies; ++p) {
    const std::string name =
        std::string("policy_chain_len_") + kPolicyNames[p];
    AppendJsonHistogram(&out, name.c_str(), m.policy_chain_len[p], true);
  }
  AppendJsonField(&out, "bfs_nodes_expanded", m.bfs_nodes_expanded, true);
  AppendJsonHistogram(&out, "insert_ns", m.insert_ns, true);
  AppendJsonHistogram(&out, "lookup_probes", m.lookup_probes, true);
  for (const auto& [name, arr] :
       {std::pair<const char*, const std::array<uint64_t, kMetricsPartitions>&>(
            "partition_probes", m.partition_probes),
        std::pair<const char*, const std::array<uint64_t, kMetricsPartitions>&>(
            "partition_hits", m.partition_hits)}) {
    out += "  \"" + std::string(name) + "\": [";
    for (size_t i = 0; i < kMetricsPartitions; ++i) {
      if (i > 0) out += ", ";
      out += std::to_string(arr[i]);
    }
    out += "],\n";
  }
  AppendJsonField(&out, "stash_hits", m.stash_hits, true);
  AppendJsonField(&out, "stash_misses", m.stash_misses, true);
  AppendJsonField(&out, "optimistic_retries", m.optimistic_retries, true);
  AppendJsonField(&out, "optimistic_fallbacks", m.optimistic_fallbacks, true);
  AppendJsonField(&out, "writer_lock_acquisitions", m.writer_lock_acquisitions,
                  true);
  AppendJsonField(&out, "writer_lock_contended", m.writer_lock_contended,
                  true);
  AppendJsonField(&out, "writer_chain_handoffs", m.writer_chain_handoffs,
                  true);
  AppendJsonHistogram(&out, "writer_lock_wait_ns", m.writer_lock_wait_ns,
                      true);
  AppendJsonField(&out, "growth_rehashes", m.growth_rehashes, true);
  AppendJsonField(&out, "growth_reseeds", m.growth_reseeds, true);
  AppendJsonField(&out, "growth_failures", m.growth_failures, true);
  AppendJsonField(&out, "growth_suppressed", m.growth_suppressed, true);
  AppendJsonHistogram(&out, "rehash_duration_ns", m.rehash_ns, true);
  for (size_t op = 0; op < kLatencyOps; ++op) {
    const std::string name =
        std::string("op_latency_ns_") + kLatencyOpNames[op];
    AppendJsonHistogram(&out, name.c_str(), m.op_latency_ns[op], true);
  }
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
  out += "},\n";
  AppendJsonField(&out, "latency_sample_period", m.latency_sample_period,
                  true);
  out += "  \"spans\": [";
  for (size_t k = 0; k < kSpanKinds; ++k) {
    if (k > 0) out += ", ";
    out += std::to_string(m.span_counts[k]);
  }
  out += "],\n";
  AppendJsonField(&out, "occupancy_items", m.occupancy_items, true);
  AppendJsonField(&out, "capacity_slots", m.capacity_slots, true);
  char buf[64];
  std::snprintf(buf, sizeof(buf), "  \"load_factor\": %.6g,\n", m.LoadFactor());
  out += buf;
  out += "  \"access_stats\": {\n";
  AppendJsonField(&out, "offchip_reads", stats.offchip_reads, true, "    ");
  AppendJsonField(&out, "offchip_writes", stats.offchip_writes, true, "    ");
  AppendJsonField(&out, "onchip_reads", stats.onchip_reads, true, "    ");
  AppendJsonField(&out, "onchip_writes", stats.onchip_writes, true, "    ");
  AppendJsonField(&out, "kickouts", stats.kickouts, true, "    ");
  AppendJsonField(&out, "stash_probes", stats.stash_probes, false, "    ");
  out += "  }\n}\n";
  return out;
}

std::map<std::string, double> MetricsFlatEntries(const MetricsSnapshot& m,
                                                 const std::string& prefix) {
  std::map<std::string, double> out;
  auto put = [&](const char* name, double v) { out[prefix + name] = v; };
  put("inserts", static_cast<double>(m.inserts));
  put("lookups", static_cast<double>(m.lookups));
  put("erases", static_cast<double>(m.erases));
  const std::pair<const char*, const HistogramSnapshot&> hists[] = {
      {"kick_chain_len", m.kick_chain_len},
      {"insert_ns", m.insert_ns},
      {"lookup_probes", m.lookup_probes},
      {"rehash_duration_ns", m.rehash_ns},
  };
  for (const auto& [name, h] : hists) {
    const std::string base = std::string(name) + ".";
    put((base + "mean").c_str(), h.Mean());
    put((base + "p50").c_str(),
        static_cast<double>(h.PercentileUpperBound(0.50)));
    put((base + "p99").c_str(),
        static_cast<double>(h.PercentileUpperBound(0.99)));
  }
  for (size_t p = 0; p < kMetricsPolicies; ++p) {
    const HistogramSnapshot& h = m.policy_chain_len[p];
    if (h.count == 0) continue;
    const std::string base =
        std::string("policy_chain_len.") + kPolicyNames[p] + ".";
    put((base + "count").c_str(), static_cast<double>(h.count));
    put((base + "mean").c_str(), h.Mean());
    put((base + "p99").c_str(),
        static_cast<double>(h.PercentileUpperBound(0.99)));
  }
  for (size_t op = 0; op < kLatencyOps; ++op) {
    const HistogramSnapshot& h = m.op_latency_ns[op];
    if (h.count == 0) continue;
    const std::string base = std::string("latency.") + kLatencyOpNames[op] + ".";
    put((base + "samples").c_str(), static_cast<double>(h.count));
    put((base + "mean").c_str(), h.Mean());
    put((base + "p50").c_str(),
        static_cast<double>(h.PercentileUpperBound(0.50)));
    put((base + "p99").c_str(),
        static_cast<double>(h.PercentileUpperBound(0.99)));
    put((base + "p999").c_str(),
        static_cast<double>(h.PercentileUpperBound(0.999)));
  }
  for (size_t k = 0; k < kSpanKinds; ++k) {
    if (m.span_counts[k] == 0) continue;
    put((std::string("spans.") + kSpanKindNames[k]).c_str(),
        static_cast<double>(m.span_counts[k]));
  }
  put("bfs_nodes_expanded", static_cast<double>(m.bfs_nodes_expanded));
  put("stash_hits", static_cast<double>(m.stash_hits));
  put("stash_misses", static_cast<double>(m.stash_misses));
  put("optimistic_retries", static_cast<double>(m.optimistic_retries));
  put("optimistic_fallbacks", static_cast<double>(m.optimistic_fallbacks));
  put("writer_lock_acquisitions",
      static_cast<double>(m.writer_lock_acquisitions));
  put("writer_lock_contended", static_cast<double>(m.writer_lock_contended));
  put("writer_chain_handoffs", static_cast<double>(m.writer_chain_handoffs));
  if (m.writer_lock_wait_ns.count != 0) {
    put("writer_lock_wait_ns.mean", m.writer_lock_wait_ns.Mean());
    put("writer_lock_wait_ns.p99",
        static_cast<double>(m.writer_lock_wait_ns.PercentileUpperBound(0.99)));
  }
  put("growth_rehashes", static_cast<double>(m.growth_rehashes));
  put("growth_reseeds", static_cast<double>(m.growth_reseeds));
  put("growth_failures", static_cast<double>(m.growth_failures));
  put("growth_suppressed", static_cast<double>(m.growth_suppressed));
  put("occupancy_items", static_cast<double>(m.occupancy_items));
  put("load_factor", m.LoadFactor());
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
  AppendMeta(&out, "mccuckoo_server_requests_total", "counter",
             "Request frames dispatched, by opcode.");
  for (size_t op = 0; op < kServerOps; ++op) {
    LabelList with_op = labels;
    with_op.emplace_back("op", kServerOpNames[op]);
    AppendSample(&out, "mccuckoo_server_requests_total", with_op,
                 s.requests[op]);
  }
  const std::pair<const char*, uint64_t> counters[] = {
      {"mccuckoo_server_connections_accepted_total", s.connections_accepted},
      {"mccuckoo_server_connections_closed_total", s.connections_closed},
      {"mccuckoo_server_protocol_errors_total", s.protocol_errors},
      {"mccuckoo_server_http_requests_total", s.http_requests},
      {"mccuckoo_server_bytes_read_total", s.bytes_read},
      {"mccuckoo_server_bytes_written_total", s.bytes_written},
      {"mccuckoo_server_get_hits_total", s.get_hits},
      {"mccuckoo_server_get_misses_total", s.get_misses},
      {"mccuckoo_server_mget_keys_total", s.mget_keys},
      {"mccuckoo_server_batched_lookups_total", s.batched_lookups},
      {"mccuckoo_server_expired_lazy_total", s.expired_lazy},
      {"mccuckoo_server_expired_swept_total", s.expired_swept},
      {"mccuckoo_server_sweep_runs_total", s.sweep_runs},
      {"mccuckoo_server_evictions_capacity_total", s.evictions_capacity},
      {"mccuckoo_server_evictions_pressure_total", s.evictions_pressure},
      {"mccuckoo_server_hash_collisions_total", s.hash_collisions},
  };
  for (const auto& [name, value] : counters) {
    AppendMeta(&out, name, "counter", "Cache-server protocol counter.");
    AppendSample(&out, name, labels, value);
  }
  AppendMeta(&out, "mccuckoo_server_items", "gauge",
             "Live items in the item store.");
  AppendSample(&out, "mccuckoo_server_items", labels, s.items);
  AppendMeta(&out, "mccuckoo_server_bytes", "gauge",
             "Key+value payload bytes held.");
  AppendSample(&out, "mccuckoo_server_bytes", labels, s.bytes);
  AppendMeta(&out, "mccuckoo_server_open_connections", "gauge",
             "Currently connected client sockets.");
  AppendSample(&out, "mccuckoo_server_open_connections", labels,
               s.open_connections);
  AppendMeta(&out, "mccuckoo_server_hit_ratio", "gauge",
             "get_hits / (get_hits + get_misses).");
  AppendGaugeDouble(&out, "mccuckoo_server_hit_ratio", labels, s.HitRatio());
  return out;
}

std::string ExportServerJson(const ServerMetricsSnapshot& s) {
  std::string out = "{\n";
  out += "  \"requests\": {";
  for (size_t op = 0; op < kServerOps; ++op) {
    if (op > 0) out += ", ";
    out += '"';
    out += kServerOpNames[op];
    out += "\": ";
    out += std::to_string(s.requests[op]);
  }
  out += "},\n";
  AppendJsonField(&out, "connections_accepted", s.connections_accepted, true);
  AppendJsonField(&out, "connections_closed", s.connections_closed, true);
  AppendJsonField(&out, "open_connections", s.open_connections, true);
  AppendJsonField(&out, "protocol_errors", s.protocol_errors, true);
  AppendJsonField(&out, "http_requests", s.http_requests, true);
  AppendJsonField(&out, "bytes_read", s.bytes_read, true);
  AppendJsonField(&out, "bytes_written", s.bytes_written, true);
  AppendJsonField(&out, "get_hits", s.get_hits, true);
  AppendJsonField(&out, "get_misses", s.get_misses, true);
  AppendJsonField(&out, "mget_keys", s.mget_keys, true);
  AppendJsonField(&out, "batched_lookups", s.batched_lookups, true);
  AppendJsonField(&out, "expired_lazy", s.expired_lazy, true);
  AppendJsonField(&out, "expired_swept", s.expired_swept, true);
  AppendJsonField(&out, "sweep_runs", s.sweep_runs, true);
  AppendJsonField(&out, "evictions_capacity", s.evictions_capacity, true);
  AppendJsonField(&out, "evictions_pressure", s.evictions_pressure, true);
  AppendJsonField(&out, "hash_collisions", s.hash_collisions, true);
  AppendJsonField(&out, "items", s.items, true);
  AppendJsonField(&out, "bytes", s.bytes, true);
  char buf[64];
  std::snprintf(buf, sizeof(buf), "  \"hit_ratio\": %.6g\n", s.HitRatio());
  out += buf;
  out += "}\n";
  return out;
}

std::map<std::string, double> ServerFlatEntries(const ServerMetricsSnapshot& s,
                                                const std::string& prefix) {
  std::map<std::string, double> out;
  auto put = [&](const std::string& name, double v) { out[prefix + name] = v; };
  for (size_t op = 0; op < kServerOps; ++op) {
    put(std::string("requests.") + kServerOpNames[op],
        static_cast<double>(s.requests[op]));
  }
  put("connections_accepted", static_cast<double>(s.connections_accepted));
  put("protocol_errors", static_cast<double>(s.protocol_errors));
  put("bytes_read", static_cast<double>(s.bytes_read));
  put("bytes_written", static_cast<double>(s.bytes_written));
  put("get_hits", static_cast<double>(s.get_hits));
  put("get_misses", static_cast<double>(s.get_misses));
  put("mget_keys", static_cast<double>(s.mget_keys));
  put("batched_lookups", static_cast<double>(s.batched_lookups));
  put("expired_lazy", static_cast<double>(s.expired_lazy));
  put("expired_swept", static_cast<double>(s.expired_swept));
  put("evictions_capacity", static_cast<double>(s.evictions_capacity));
  put("evictions_pressure", static_cast<double>(s.evictions_pressure));
  put("hash_collisions", static_cast<double>(s.hash_collisions));
  put("items", static_cast<double>(s.items));
  put("bytes", static_cast<double>(s.bytes));
  put("hit_ratio", s.HitRatio());
  return out;
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
