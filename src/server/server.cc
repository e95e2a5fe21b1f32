#include "src/server/server.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "src/obs/export.h"
#include "src/obs/span_recorder.h"

namespace mccuckoo {
namespace server {

namespace {

Status SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Status::IOError(std::string("fcntl(O_NONBLOCK): ") +
                           std::strerror(errno));
  }
  return Status::OK();
}

}  // namespace

CacheServer::CacheServer(const ServerOptions& options) : options_(options) {
  if (options_.threads < 1) options_.threads = 1;
  store_ = std::make_unique<ItemStore>(options_.store);
}

CacheServer::~CacheServer() { Stop(); }

StatsHandlers CacheServer::MakeHttpHandlers() {
  StatsHandlers h;
  h.metrics = [this] {
    std::string out =
        ExportPrometheus(store_->table().metrics_snapshot());
    out += ExportServerPrometheus(store_->MetricsSnapshot());
    return out;
  };
  h.json = [this] {
    std::string out = "{\n\"table\": ";
    out += ExportJson(store_->table().metrics_snapshot());
    out += ",\n\"server\": ";
    out += ExportServerJson(store_->MetricsSnapshot());
    out += "}\n";
    return out;
  };
  h.trace = [this] {
    // Merge every shard's span ring into one timeline (shared clock).
    std::vector<Span> all;
    auto& sharded = store_->table();
    for (size_t i = 0; i < sharded.num_shards(); ++i) {
      const std::vector<Span> part = sharded.shard_spans(i);
      all.insert(all.end(), part.begin(), part.end());
    }
    return ExportChromeTrace(all, "mccuckoo_server");
  };
  h.heatmap = [this] {
    // Shard-major regions; counter values and totals sum across shards.
    HeatmapSnapshot all;
    auto& sharded = store_->table();
    for (size_t i = 0; i < sharded.num_shards(); ++i) {
      const HeatmapSnapshot part = sharded.WithExclusiveShard(
          i, [](ItemStore::Table& t) { return t.Heatmap(); });
      all.region_occupied.insert(all.region_occupied.end(),
                                 part.region_occupied.begin(),
                                 part.region_occupied.end());
      all.region_slots.insert(all.region_slots.end(), part.region_slots.begin(),
                              part.region_slots.end());
      for (size_t v = 0; v < all.counter_values.size(); ++v) {
        all.counter_values[v] += part.counter_values[v];
      }
      all.total_buckets += part.total_buckets;
      all.occupied_slots += part.occupied_slots;
      all.total_slots += part.total_slots;
    }
    return ExportHeatmapJson(all);
  };
  return h;
}

Status CacheServer::Start() {
  if (running_.load(std::memory_order_acquire)) {
    return Status::AlreadyExists("server already running");
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IOError(std::string("socket: ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(options_.port);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0) {
    const std::string msg = std::string("bind: ") + std::strerror(errno);
    ::close(fd);
    return Status::IOError(msg);
  }
  if (::listen(fd, 128) < 0) {
    const std::string msg = std::string("listen: ") + std::strerror(errno);
    ::close(fd);
    return Status::IOError(msg);
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    const std::string msg =
        std::string("getsockname: ") + std::strerror(errno);
    ::close(fd);
    return Status::IOError(msg);
  }
  if (Status s = SetNonBlocking(fd); !s.ok()) {
    ::close(fd);
    return s;
  }

  http_ = MakeHttpHandlers();
  workers_.clear();
  for (int i = 0; i < options_.threads; ++i) {
    auto w = std::make_unique<Worker>();
    if (Status s = w->loop.Init(); !s.ok()) {
      workers_.clear();
      ::close(fd);
      return s;
    }
    w->handler = std::make_unique<StoreHandler>(store_.get());
    workers_.push_back(std::move(w));
  }

  listen_fd_ = fd;
  port_ = ntohs(addr.sin_port);

  Worker& w0 = *workers_[0];
  if (Status s = w0.loop.Add(listen_fd_, EPOLLIN, [this](uint32_t) {
        AcceptReady();
      });
      !s.ok()) {
    workers_.clear();
    ::close(fd);
    listen_fd_ = -1;
    return s;
  }
  if (options_.sweep_interval_ms != 0) {
    w0.loop.SetTimer(options_.sweep_interval_ms,
                     [this] { store_->SweepExpired(); });
  }

  running_.store(true, std::memory_order_release);
  for (auto& w : workers_) {
    Worker* wp = w.get();
    w->thread = std::thread([wp] { wp->loop.Run(); });
  }
  return Status::OK();
}

void CacheServer::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  for (auto& w : workers_) w->loop.Stop();
  for (auto& w : workers_) {
    if (w->thread.joinable()) w->thread.join();
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  // Loops are stopped and joined: connection maps are safe to touch here.
  for (auto& w : workers_) {
    for (auto& [fd, conn] : w->conns) ::close(fd);
    w->conns.clear();
  }
  workers_.clear();
  port_ = 0;
}

void CacheServer::AcceptReady() {
  ServerMetrics& m = store_->metrics();
  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK);
    if (fd < 0) {
      // EAGAIN: drained. Anything else transient: retry on next EPOLLIN.
      return;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    m.connections_accepted.Inc();
    m.open_connections.Add(1);
    Worker& w = *workers_[next_worker_.fetch_add(1,
                                                 std::memory_order_relaxed) %
                          workers_.size()];
    if (&w == workers_[0].get()) {
      AddConnection(w, fd);
    } else {
      w.loop.Post([this, &w, fd] { AddConnection(w, fd); });
    }
  }
}

void CacheServer::AddConnection(Worker& w, int fd) {
  auto conn = std::make_unique<Conn>(fd, w.handler.get(), &http_,
                                     &store_->metrics());
  Conn* cp = conn.get();
  w.conns[fd] = std::move(conn);
  const Status s = w.loop.Add(fd, EPOLLIN, [this, &w, fd](uint32_t events) {
    HandleIo(w, fd, events);
  });
  if (!s.ok()) {
    (void)cp;
    w.conns.erase(fd);
    ::close(fd);
    store_->metrics().connections_closed.Inc();
    store_->metrics().open_connections.Add(-1);
  }
}

void CacheServer::CloseConn(Worker& w, int fd) {
  w.loop.Del(fd);
  ::close(fd);
  w.conns.erase(fd);
  store_->metrics().connections_closed.Inc();
  store_->metrics().open_connections.Add(-1);
}

void CacheServer::FlushOut(Worker& w, Conn& c) {
  std::string& out = c.session.outbuf();
  while (c.out_off < out.size()) {
    const ssize_t n = ::send(c.fd, out.data() + c.out_off,
                             out.size() - c.out_off,
#ifdef MSG_NOSIGNAL
                             MSG_NOSIGNAL
#else
                             0
#endif
    );
    if (n > 0) {
      store_->metrics().bytes_written.Inc(static_cast<uint64_t>(n));
      c.out_off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (!c.write_armed) {
        c.write_armed = true;
        (void)w.loop.Mod(c.fd, EPOLLIN | EPOLLOUT);
      }
      return;  // Short write: the tail goes out on the next EPOLLOUT.
    }
    CloseConn(w, c.fd);  // Peer reset mid-write.
    return;
  }
  out.clear();
  c.out_off = 0;
  if (c.session.wants_close()) {
    CloseConn(w, c.fd);
    return;
  }
  if (c.write_armed) {
    c.write_armed = false;
    (void)w.loop.Mod(c.fd, EPOLLIN);
  }
}

void CacheServer::HandleIo(Worker& w, int fd, uint32_t events) {
  const auto it = w.conns.find(fd);
  if (it == w.conns.end()) return;
  Conn& c = *it->second;
  if ((events & (EPOLLERR | EPOLLHUP)) != 0) {
    CloseConn(w, fd);
    return;
  }
  if ((events & EPOLLIN) != 0) {
    char buf[16 * 1024];
    for (;;) {
      const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n > 0) {
        store_->metrics().bytes_read.Inc(static_cast<uint64_t>(n));
        if (!c.session.OnData(buf, static_cast<size_t>(n))) break;
        continue;
      }
      if (n == 0) {  // Orderly shutdown from the peer.
        if (c.session.outbuf().size() == c.out_off) {
          CloseConn(w, fd);
          return;
        }
        break;  // Flush what we owe, then close via wants_close path.
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      CloseConn(w, fd);
      return;
    }
  }
  FlushOut(w, c);
}

}  // namespace server
}  // namespace mccuckoo
