// Connection/protocol-level metrics of the mccuckoo cache server.
//
// The table layer already measures itself (TableMetrics / MetricsSnapshot);
// this is the layer above: frames parsed, bytes moved, hit ratios, TTL
// expiries, evictions. Unlike TableMetrics these are NOT gated behind
// MCCUCKOO_NO_METRICS — one relaxed fetch_add per *request* is noise next
// to the syscalls around it, and keeping the server metrics unconditional
// means the server library never instantiates table templates differently
// across build modes (the ODR rule src/CMakeLists.txt documents).
//
// The live struct is shared by every worker thread (the primitives are the
// same relaxed atomics TableMetrics uses); Snapshot() is a plain value the
// exporters in src/obs/export.h render as Prometheus text, JSON, and flat
// bench entries.

#ifndef MCCUCKOO_OBS_SERVER_METRICS_H_
#define MCCUCKOO_OBS_SERVER_METRICS_H_

#include <array>
#include <cstddef>
#include <cstdint>

#include "src/obs/metrics.h"

namespace mccuckoo {

/// Number of request opcodes the server dispatches (mirrors
/// server::kNumOpcodes; static_asserted against it in the server library,
/// kept literal here so obs stays independent of src/server headers).
inline constexpr size_t kServerOps = 6;

/// Stable label values for the request opcodes, wire-value order
/// (Opcode enumerator - 1).
inline constexpr const char* kServerOpNames[kServerOps] = {
    "get", "mget", "set", "del", "touch", "stats"};

/// Point-in-time copy of the server-level metrics. Addable so multi-server
/// tests can aggregate, mirroring MetricsSnapshot.
struct ServerMetricsSnapshot {
  std::array<uint64_t, kServerOps> requests{};  ///< Frames dispatched, by op.
  uint64_t connections_accepted = 0;
  uint64_t connections_closed = 0;
  uint64_t protocol_errors = 0;   ///< Malformed frames (connection dropped).
  uint64_t http_requests = 0;     ///< Stats scrapes on the shared port.
  uint64_t bytes_read = 0;
  uint64_t bytes_written = 0;
  uint64_t get_hits = 0;          ///< GET + MGET keys found (and live).
  uint64_t get_misses = 0;        ///< GET + MGET keys absent or expired.
  uint64_t mget_keys = 0;         ///< Keys carried by MGET frames.
  uint64_t batched_lookups = 0;   ///< Keys resolved through FindBatch runs.
  uint64_t expired_lazy = 0;      ///< Items reclaimed by a read hitting them.
  uint64_t expired_swept = 0;     ///< Items reclaimed by the periodic sweep.
  uint64_t sweep_runs = 0;
  uint64_t evictions_capacity = 0;  ///< Evicted to honor the byte budget.
  uint64_t evictions_pressure = 0;  ///< Evicted because the table degraded
                                    ///< to stash-backed inserts (growth
                                    ///< suppressed/capped).
  uint64_t evictions_spared = 0;  ///< Eviction candidates kept for another
                                  ///< pass by their access count.
  uint64_t hash_collisions = 0;   ///< Distinct keys mapping to one 64-bit
                                  ///< hash (second writer wins).
  /// Gauges read from the store at snapshot time
  /// (ItemStore::MetricsSnapshot), not kept in ServerMetrics.
  uint64_t items = 0;             ///< Live items in the store.
  uint64_t bytes = 0;             ///< Key+value payload bytes held.
  uint64_t open_connections = 0;  ///< Gauge: currently connected sockets.

  uint64_t total_requests() const {
    uint64_t n = 0;
    for (const uint64_t r : requests) n += r;
    return n;
  }

  double HitRatio() const {
    const uint64_t total = get_hits + get_misses;
    return total ? static_cast<double>(get_hits) / static_cast<double>(total)
                 : 0.0;
  }

  ServerMetricsSnapshot& operator+=(const ServerMetricsSnapshot& o) {
    for (size_t i = 0; i < kServerOps; ++i) requests[i] += o.requests[i];
    connections_accepted += o.connections_accepted;
    connections_closed += o.connections_closed;
    protocol_errors += o.protocol_errors;
    http_requests += o.http_requests;
    bytes_read += o.bytes_read;
    bytes_written += o.bytes_written;
    get_hits += o.get_hits;
    get_misses += o.get_misses;
    mget_keys += o.mget_keys;
    batched_lookups += o.batched_lookups;
    expired_lazy += o.expired_lazy;
    expired_swept += o.expired_swept;
    sweep_runs += o.sweep_runs;
    evictions_capacity += o.evictions_capacity;
    evictions_pressure += o.evictions_pressure;
    evictions_spared += o.evictions_spared;
    hash_collisions += o.hash_collisions;
    items += o.items;
    bytes += o.bytes;
    open_connections += o.open_connections;
    return *this;
  }

  bool operator==(const ServerMetricsSnapshot&) const = default;
};

/// The live cells. One instance per CacheServer, shared across workers.
struct ServerMetrics {
  std::array<Counter, kServerOps> requests;
  Counter connections_accepted;
  Counter connections_closed;
  Counter protocol_errors;
  Counter http_requests;
  Counter bytes_read;
  Counter bytes_written;
  Counter get_hits;
  Counter get_misses;
  Counter mget_keys;
  Counter batched_lookups;
  Counter expired_lazy;
  Counter expired_swept;
  Counter sweep_runs;
  Counter evictions_capacity;
  Counter evictions_pressure;
  Counter evictions_spared;
  Counter hash_collisions;
  Gauge open_connections;

  /// `op_index` is the wire opcode minus one (kServerOpNames order);
  /// out-of-range indices are clamped so a hostile frame cannot index OOB
  /// even if dispatch and parser ever disagree.
  void RecordRequest(size_t op_index) {
    requests[op_index < kServerOps ? op_index : kServerOps - 1].Inc();
  }

  ServerMetricsSnapshot Snapshot() const {
    ServerMetricsSnapshot s;
    for (size_t i = 0; i < kServerOps; ++i) s.requests[i] = requests[i].Value();
    s.connections_accepted = connections_accepted.Value();
    s.connections_closed = connections_closed.Value();
    s.protocol_errors = protocol_errors.Value();
    s.http_requests = http_requests.Value();
    s.bytes_read = bytes_read.Value();
    s.bytes_written = bytes_written.Value();
    s.get_hits = get_hits.Value();
    s.get_misses = get_misses.Value();
    s.mget_keys = mget_keys.Value();
    s.batched_lookups = batched_lookups.Value();
    s.expired_lazy = expired_lazy.Value();
    s.expired_swept = expired_swept.Value();
    s.sweep_runs = sweep_runs.Value();
    s.evictions_capacity = evictions_capacity.Value();
    s.evictions_pressure = evictions_pressure.Value();
    s.evictions_spared = evictions_spared.Value();
    s.hash_collisions = hash_collisions.Value();
    s.open_connections = open_connections.Value();
    return s;
  }
};

}  // namespace mccuckoo

#endif  // MCCUCKOO_OBS_SERVER_METRICS_H_
