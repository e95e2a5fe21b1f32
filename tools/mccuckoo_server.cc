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
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>

#include <unistd.h>

#include "src/common/flags.h"
#include "src/server/server.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void HandleSignal(int) { g_stop = 1; }

int Usage(const std::string& error) {
  std::fprintf(stderr, "%s\n", error.c_str());
  std::fprintf(stderr,
               "usage: mccuckoo_server [--port=N] [--threads=N] "
               "[--shards=N] [--slots=N] [--max-bytes=N] [--sweep-ms=N] "
               "[--duration=SECONDS]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using mccuckoo::Flags;
  auto parsed = Flags::Parse(argc, argv);
  if (!parsed.ok()) return Usage(parsed.status().ToString());
  const Flags& flags = parsed.value();
  if (mccuckoo::Status s = flags.CheckKnown({"port", "threads", "shards",
                                             "slots", "max-bytes", "sweep-ms",
                                             "duration"});
      !s.ok()) {
    return Usage(s.message());
  }

  // Each flag is parsed with overflow detection and range-checked before it
  // is narrowed: an out-of-range port would otherwise wrap to another port,
  // and a negative shard count to 2^64 - 1.
  std::string bad;
  auto get = [&](const char* name, int64_t def, int64_t lo, int64_t hi) {
    const mccuckoo::Result<int64_t> r = flags.TryGetInt(name, def);
    if (!r.ok()) {
      if (bad.empty()) bad = r.status().message();
      return def;
    }
    const int64_t x = r.value();
    if ((x < lo || x > hi) && bad.empty()) {
      bad = "--" + std::string(name) + "=" + std::to_string(x) +
            " is out of range [" + std::to_string(lo) + ", " +
            std::to_string(hi) + "]";
    }
    return x;
  };
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  mccuckoo::server::ServerOptions options;
  options.port = static_cast<uint16_t>(get("port", 0, 0, 65535));
  options.threads = static_cast<int>(
      get("threads", 2, 1, std::numeric_limits<int>::max()));
  options.sweep_interval_ms =
      static_cast<uint64_t>(get("sweep-ms", 1000, 0, kMax));
  options.store.shards = static_cast<size_t>(get("shards", 8, 1, 65536));
  options.store.initial_slots =
      static_cast<uint64_t>(get("slots", 1 << 16, 1, kMax));
  options.store.max_bytes = static_cast<uint64_t>(get("max-bytes", 0, 0, kMax));
  const int64_t duration_s = get("duration", 0, 0, kMax);
  if (!bad.empty()) return Usage(bad);

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
