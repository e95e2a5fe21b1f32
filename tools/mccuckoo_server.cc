// mccuckoo_server: run the cache server from the command line.
//
//   tools/mccuckoo_server --port=11311 --threads=4 --shards=8
//
// Serves the binary cache protocol and the HTTP stats routes (/metrics,
// /json, /trace, /heatmap) on one 127.0.0.1 port. Prints a "listening on"
// line once the socket is bound — scripts (and the CI server job) wait for
// that line before connecting. Runs until SIGINT/SIGTERM or --duration
// elapses.

#include <csignal>
#include <cstdio>
#include <string>

#include <unistd.h>

#include "src/common/flags.h"
#include "src/server/server.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void HandleSignal(int) { g_stop = 1; }

}  // namespace

int main(int argc, char** argv) {
  using mccuckoo::Flags;
  auto parsed = Flags::Parse(argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
    std::fprintf(stderr,
                 "usage: mccuckoo_server [--port=N] [--threads=N] "
                 "[--shards=N] [--slots=N] [--max-bytes=N] [--sweep-ms=N] "
                 "[--duration=SECONDS]\n");
    return 2;
  }
  const Flags& flags = parsed.value();

  mccuckoo::server::ServerOptions options;
  options.port = static_cast<uint16_t>(flags.GetInt("port", 0));
  options.threads = static_cast<int>(flags.GetInt("threads", 2));
  options.sweep_interval_ms =
      static_cast<uint64_t>(flags.GetInt("sweep-ms", 1000));
  options.store.shards = static_cast<size_t>(flags.GetInt("shards", 8));
  options.store.initial_slots =
      static_cast<size_t>(flags.GetInt("slots", 1 << 16));
  options.store.max_bytes = static_cast<size_t>(flags.GetInt("max-bytes", 0));
  const int64_t duration_s = flags.GetInt("duration", 0);

  mccuckoo::server::CacheServer server(options);
  if (mccuckoo::Status s = server.Start(); !s.ok()) {
    std::fprintf(stderr, "start failed: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("listening on 127.0.0.1:%u (threads=%d shards=%zu)\n",
              server.port(), options.threads, options.store.shards);
  std::fflush(stdout);

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);

  int64_t elapsed_s = 0;
  while (g_stop == 0 && (duration_s == 0 || elapsed_s < duration_s)) {
    ::sleep(1);
    ++elapsed_s;
  }

  server.Stop();
  const auto m = server.metrics_snapshot();
  std::printf("served %llu requests over %llu connections, %llu items live\n",
              static_cast<unsigned long long>(m.total_requests()),
              static_cast<unsigned long long>(m.connections_accepted),
              static_cast<unsigned long long>(m.items));
  return 0;
}
