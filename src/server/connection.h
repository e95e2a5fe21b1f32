// Per-connection protocol session: buffering, frame parsing, pipelining,
// and first-byte dispatch between the binary cache protocol and the HTTP
// stats routes sharing the port.
//
// Connection is pure computation over byte buffers — it never touches a
// socket. The event loop (src/server/server.cc) feeds it whatever recv()
// returned and writes out whatever accumulates in outbuf(); the protocol
// conformance test feeds it hand-built frames one byte at a time through a
// fake socket and asserts on the same buffers. That split is what makes
// partial-read/short-write behaviour unit-testable without a network.
//
// Pipelining: one OnData() call parses EVERY complete frame in the buffer
// and hands them to the RequestSink as a single batch, so a client that
// writes N GETs back-to-back gets them answered through one FindBatch
// sweep (the sink coalesces). Responses are appended in request order —
// the protocol answers in order; opaques exist to make client bugs loud.
//
// HTTP mode: a first byte of 'G'/'H' (GET/HEAD) switches the connection to
// a one-shot HTTP exchange against the caller-supplied StatsHandlers — the
// stats routes /metrics, /json, /trace and /heatmap — answered with
// Connection: close semantics. A HEAD gets GET's status line and headers
// and no body. Deliberately not a real HTTP server (no keep-alive, no TLS,
// exact-path routing, 127.0.0.1 only): the right shape for "curl it / point
// Prometheus at it on the same host".

#ifndef MCCUCKOO_SERVER_CONNECTION_H_
#define MCCUCKOO_SERVER_CONNECTION_H_

#include <cstddef>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "src/obs/server_metrics.h"
#include "src/server/protocol.h"

namespace mccuckoo {
namespace server {

/// One render closure per route. Unset handlers answer 404, so a binary
/// can expose only what it has (e.g. no heatmap for a baseline-only run).
/// Handlers run on the worker thread that owns the connection, so several
/// may run at once: they must be safe to call concurrently with the
/// owner's workload (SnapshotMetrics and the exporters are; Heatmap()
/// wants writer exclusion for exact numbers).
struct StatsHandlers {
  std::function<std::string()> metrics;  ///< /metrics — Prometheus text.
  std::function<std::string()> json;     ///< /json — ExportJson document.
  std::function<std::string()> trace;    ///< /trace — chrome://tracing JSON.
  std::function<std::string()> heatmap;  ///< /heatmap — ExportHeatmapJson.
};

/// Where parsed request batches go. The production sink is StoreHandler
/// (src/server/handler.h); tests substitute recorders.
class RequestSink {
 public:
  virtual ~RequestSink() = default;

  /// Handles a pipelined batch, appending one response frame per request
  /// (in order) to `*out`. The requests' views alias the connection's
  /// input buffer and die when Process returns.
  virtual void Process(std::span<const Request> batch, std::string* out) = 0;
};

class Connection {
 public:
  /// `http` may be null to disable the HTTP dispatch (binary-only).
  /// `metrics` may be null (tests); production passes the server's cells.
  Connection(RequestSink* sink, const StatsHandlers* http,
             ServerMetrics* metrics)
      : sink_(sink), http_(http), metrics_(metrics) {}

  /// Feeds `n` received bytes. Returns false when the connection should be
  /// closed once outbuf() has drained (protocol error, HTTP exchange
  /// finished); the already-appended output still wants flushing.
  bool OnData(const char* data, size_t n);

  /// Bytes waiting to be written to the peer. The owner sends from the
  /// front and erases what the socket accepted (short writes just leave
  /// the tail for the next EPOLLOUT).
  std::string& outbuf() { return out_; }

  /// True once a close-after-drain condition was reached.
  bool wants_close() const { return closing_; }

 private:
  enum class Mode { kUnknown, kBinary, kHttp };

  bool ProcessBinary();
  bool ProcessHttp();

  RequestSink* sink_;
  const StatsHandlers* http_;
  ServerMetrics* metrics_;
  std::string in_;
  std::string out_;
  std::vector<Request> batch_;
  Mode mode_ = Mode::kUnknown;
  bool closing_ = false;
};

}  // namespace server
}  // namespace mccuckoo

#endif  // MCCUCKOO_SERVER_CONNECTION_H_
