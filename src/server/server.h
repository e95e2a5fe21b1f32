// The network-facing cache server: N epoll worker loops over one
// ItemStore.
//
// Topology: worker 0 owns the listening socket and the TTL sweep timer;
// accepted connections are handed off round-robin to all workers through
// EventLoop::Post, and from then on a connection lives entirely on its
// worker's thread (its Connection object, buffers, and the worker's
// fd->state map are thread-confined — no locks). The ItemStore underneath
// is the concurrent piece: GET/MGET are epoch-guarded lock-free reads,
// SET/DEL/TOUCH serialize per key stripe, and the table's writers take
// only striped bucket locks, so workers truly overlap. The table charges no
// AccessStats, so /metrics and /json carry no access counters.
//
// One port serves both planes: a first byte of 0x95 speaks the binary
// cache protocol, 'G'/'H' speaks HTTP against the stats routes (/metrics,
// /json, /trace, /heatmap) — so `curl http://127.0.0.1:PORT/metrics`
// scrapes the same port the cache traffic uses.

#ifndef MCCUCKOO_SERVER_SERVER_H_
#define MCCUCKOO_SERVER_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/common/status.h"
#include "src/server/connection.h"
#include "src/server/event_loop.h"
#include "src/server/handler.h"
#include "src/server/item_store.h"

namespace mccuckoo {
namespace server {

struct ServerOptions {
  /// Port on 127.0.0.1; 0 picks an ephemeral one (read back via port()).
  uint16_t port = 0;
  /// Worker event loops (>= 1). Worker 0 also accepts and sweeps.
  int threads = 2;
  /// Pause between TTL sweeps on worker 0, from the end of one sweep to the
  /// start of the next; 0 disables the periodic sweep (lazy expiry still
  /// applies).
  uint64_t sweep_interval_ms = 1000;
  ItemStoreOptions store;
};

class CacheServer {
 public:
  explicit CacheServer(const ServerOptions& options);
  ~CacheServer();

  CacheServer(const CacheServer&) = delete;
  CacheServer& operator=(const CacheServer&) = delete;

  /// Binds, spawns the workers, and returns (the loops run in background
  /// threads). Not running after a failed Start.
  Status Start();

  /// Closes the listening socket, stops every loop, joins the threads,
  /// and closes remaining connections. Idempotent.
  void Stop();

  uint16_t port() const { return port_; }
  bool running() const { return running_.load(std::memory_order_acquire); }

  ItemStore& store() { return *store_; }
  const ItemStore& store() const { return *store_; }

  ServerMetricsSnapshot metrics_snapshot() const {
    return store_->MetricsSnapshot();
  }

 private:
  struct Conn {
    int fd;
    Connection session;
    size_t out_off = 0;        ///< Flushed prefix of session.outbuf().
    bool write_armed = false;  ///< EPOLLOUT currently in the interest mask.
    Conn(int fd_, RequestSink* sink, const StatsHandlers* http,
         ServerMetrics* metrics)
        : fd(fd_), session(sink, http, metrics) {}
  };

  struct Worker {
    EventLoop loop;
    std::thread thread;
    // Thread-confined: touched only from loop's thread (via callbacks and
    // Post'ed tasks), so no lock.
    std::unordered_map<int, std::unique_ptr<Conn>> conns;
    std::unique_ptr<StoreHandler> handler;
  };

  void AcceptReady();
  void AddConnection(Worker& w, int fd);
  void HandleIo(Worker& w, int fd, uint32_t events);
  /// Writes as much of the connection's outbuf as the socket accepts and
  /// (dis)arms EPOLLOUT; closes when a draining connection finishes.
  void FlushOut(Worker& w, Conn& c);
  void CloseConn(Worker& w, int fd);
  StatsHandlers MakeHttpHandlers();

  ServerOptions options_;
  std::unique_ptr<ItemStore> store_;
  StatsHandlers http_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::atomic<bool> running_{false};
  std::atomic<size_t> next_worker_{0};
  int listen_fd_ = -1;
  uint16_t port_ = 0;
};

}  // namespace server
}  // namespace mccuckoo

#endif  // MCCUCKOO_SERVER_SERVER_H_
