// Terminal dashboard for a running mccuckoo_server — `top` for its table.
//
// Polls http://127.0.0.1:<port>/json on the daemon's cache port at a fixed
// interval and renders the table's vitals: occupancy and load factor,
// per-op totals with rates derived from consecutive polls, the sampled
// latency quantiles, and the span counters that explain tail blips
// (growths, rehashes, reseeds, BFS dead-ends, stash spills).
//
//   tools/mccuckoo_top --port=11311
//
//   --port=N         cache server port (required)
//   --interval-ms=N  poll period (default 1000)
//   --iters=N        polls before exiting; 0 = until killed (default 0)
//
// The scraper is a deliberately tiny flat scanner over ExportJson's
// stable output (the server pre-computes the quantiles for exactly this
// reason) — no JSON library. The daemon's /json nests the table plane
// under "table" ahead of "server", so each first match is a table key.

#include <unistd.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "src/common/flags.h"
#include "src/obs/metrics.h"
#include "src/server/client.h"

namespace mccuckoo {
namespace {

/// First number following `"key":` in `body` (0 when absent). Good enough
/// for ExportJson's stable, non-nested scalar keys.
double ScanNumber(const std::string& body, const std::string& key,
                  size_t from = 0) {
  std::string needle = "\"";
  needle += key;
  needle += "\":";
  const size_t pos = body.find(needle, from);
  if (pos == std::string::npos) return 0.0;
  return std::strtod(body.c_str() + pos + needle.size(), nullptr);
}

struct Quantiles {
  double p50 = 0, p99 = 0, p999 = 0;
};

/// Pulls one op's entry out of the "op_latency_quantiles" object.
Quantiles ScanQuantiles(const std::string& body, const char* op) {
  Quantiles q;
  const size_t obj = body.find("\"op_latency_quantiles\"");
  if (obj == std::string::npos) return q;
  std::string needle = "\"";
  needle += op;
  needle += "\":";
  const size_t at = body.find(needle, obj);
  if (at == std::string::npos) return q;
  q.p50 = ScanNumber(body, "p50", at);
  q.p99 = ScanNumber(body, "p99", at);
  q.p999 = ScanNumber(body, "p999", at);
  return q;
}

void PrintLatencyRow(const char* name, const Quantiles& q) {
  std::printf("  %-12s p50 %8.0f ns   p99 %8.0f ns   p999 %8.0f ns\n", name,
              q.p50, q.p99, q.p999);
}

int Run(int argc, char** argv) {
  Result<Flags> parsed = Flags::Parse(argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
    return 1;
  }
  const Flags& flags = parsed.value();
  const int64_t port = flags.GetInt("port", 0);
  const int64_t interval_ms = flags.GetInt("interval-ms", 1000);
  const int64_t iters = flags.GetInt("iters", 0);
  if (port <= 0 || port > 65535) {
    std::fprintf(stderr, "usage: mccuckoo_top --port=N [--interval-ms=N] "
                         "[--iters=N]\n");
    return 1;
  }

  const bool tty = ::isatty(STDOUT_FILENO) != 0;
  double prev_ops[3] = {0, 0, 0};  // inserts, lookups, erases
  bool have_prev = false;
  for (int64_t i = 0; iters == 0 || i < iters; ++i) {
    std::string body;
    int code = 0;
    const Status s = server::CacheClient::HttpGet(
        "127.0.0.1", static_cast<uint16_t>(port), "/json", &body, &code);
    if (!s.ok() || code != 200) {
      std::fprintf(stderr, "mccuckoo_top: no response from 127.0.0.1:%lld\n",
                   static_cast<long long>(port));
      return 1;
    }
    const double inserts = ScanNumber(body, "inserts");
    const double lookups = ScanNumber(body, "lookups");
    const double erases = ScanNumber(body, "erases");
    const double occupancy = ScanNumber(body, "occupancy_items");
    const double capacity = ScanNumber(body, "capacity_slots");
    const double load = ScanNumber(body, "load_factor");
    const double period = ScanNumber(body, "latency_sample_period");

    if (tty) std::printf("\x1b[2J\x1b[H");
    std::printf("mccuckoo_top — 127.0.0.1:%lld  (sample period 1/%.0f)\n\n",
                static_cast<long long>(port), period > 0 ? period : 1);
    std::printf("  occupancy  %12.0f / %.0f slots   load %.3f\n\n", occupancy,
                capacity, load);
    const double dt = static_cast<double>(interval_ms) / 1000.0;
    const double rates[3] = {
        have_prev ? (inserts - prev_ops[0]) / dt : 0.0,
        have_prev ? (lookups - prev_ops[1]) / dt : 0.0,
        have_prev ? (erases - prev_ops[2]) / dt : 0.0,
    };
    std::printf("  %-12s %14s %12s\n", "op", "total", "ops/s");
    std::printf("  %-12s %14.0f %12.0f\n", "insert", inserts, rates[0]);
    std::printf("  %-12s %14.0f %12.0f\n", "lookup", lookups, rates[1]);
    std::printf("  %-12s %14.0f %12.0f\n\n", "erase", erases, rates[2]);
    prev_ops[0] = inserts;
    prev_ops[1] = lookups;
    prev_ops[2] = erases;
    have_prev = true;

    PrintLatencyRow("insert", ScanQuantiles(body, "insert"));
    PrintLatencyRow("find", ScanQuantiles(body, "find"));
    PrintLatencyRow("find_batch", ScanQuantiles(body, "find_batch"));
    std::printf("\n  spans:");
    // "spans": {"growth": N, ...} — one member per span kind, by name.
    const size_t spans_at = body.find("\"spans\":");
    for (size_t k = 0; spans_at != std::string::npos && k < kSpanKinds; ++k) {
      std::printf(" %s=%.0f", kSpanKindNames[k],
                  ScanNumber(body, kSpanKindNames[k], spans_at));
    }
    std::printf("\n");
    std::fflush(stdout);
    if (iters == 0 || i + 1 < iters) {
      std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
    }
  }
  return 0;
}

}  // namespace
}  // namespace mccuckoo

int main(int argc, char** argv) { return mccuckoo::Run(argc, argv); }
