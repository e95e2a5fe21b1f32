// Console reporter that also captures items/sec into a FlatJson map.
//
// The google-benchmark binaries register benchmarks whose *names* are the
// final JSON keys (dots instead of '/', e.g. "lookup_hit.McCuckoo.load90.
// batch16"). This reporter keeps the normal console output and records, for
// every completed per-iteration run, the maximum observed items_per_second
// under the name up to the first '/' (stripping google-benchmark's
// "/repeats:N"-style suffixes) — max over repetitions is the standard
// "best of" throughput estimate, robust to scheduler noise on shared boxes.

#ifndef MCCUCKOO_BENCH_BENCH_REPORTER_H_
#define MCCUCKOO_BENCH_BENCH_REPORTER_H_

#include <benchmark/benchmark.h>

#include <algorithm>
#include <string>
#include <thread>

#include "bench/bench_json.h"

namespace mccuckoo {

class JsonCaptureReporter : public benchmark::ConsoleReporter {
 public:
  explicit JsonCaptureReporter(FlatJson* sink) : sink_(sink) {}

  void ReportRuns(const std::vector<Run>& reports) override {
    for (const Run& run : reports) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
      const auto it = run.counters.find("items_per_second");
      if (it == run.counters.end()) continue;
      std::string key = run.benchmark_name();
      const size_t slash = key.find('/');
      if (slash != std::string::npos) key.resize(slash);
      const double v = static_cast<double>(it->second);
      auto [entry, inserted] = sink_->emplace(key, v);
      if (!inserted) entry->second = std::max(entry->second, v);
    }
    ConsoleReporter::ReportRuns(reports);
  }

 private:
  FlatJson* sink_;
};

/// The build's target architecture, for the machine-context rows below.
inline const char* BenchArchName() {
#if defined(__x86_64__) || defined(_M_X64)
  return "x86_64";
#elif defined(__aarch64__) || defined(_M_ARM64)
  return "aarch64";
#elif defined(__riscv)
  return "riscv";
#else
  return "unknown";
#endif
}

/// Machine-context rows every bench binary refreshes alongside its results:
/// numbers in BENCH_throughput.json are only comparable within one machine,
/// so the file records which machine produced them. The flat format maps
/// keys to numbers only, so the architecture is encoded in the key
/// ("meta.arch.x86_64": 1) rather than as a string value.
inline FlatJson BenchMetaEntries() {
  FlatJson meta;
  meta["meta.nproc"] =
      static_cast<double>(std::thread::hardware_concurrency());
  meta[std::string("meta.arch.") + BenchArchName()] = 1;
  return meta;
}

/// True when --benchmark_filter selects every registered benchmark: the
/// spellings google-benchmark itself treats as "run all".
inline bool BenchFilterMatchesAll(const std::string& filter) {
  return filter.empty() || filter == "." || filter == "all";
}

/// Writes `entries` over the file's rows with the same keys and keeps every
/// other row.
inline bool ReplaceFlatJsonKeys(const std::string& path,
                                const FlatJson& entries) {
  FlatJson data = LoadFlatJson(path);
  for (const auto& [key, value] : entries) data[key] = value;
  return StoreFlatJson(path, data);
}

/// Runs the registered benchmarks through a JsonCaptureReporter and merges
/// the captured items/sec into BenchJsonPath() under `prefix` ("micro.",
/// "batch.", ...), plus the "meta.*" machine-context rows. An unfiltered
/// run replaces every `prefix` row (dropping rows of benchmarks that no
/// longer exist); a --benchmark_filter run replaces only the rows it
/// measured. Returns the process exit code.
inline int RunBenchmarksToJson(int argc, char** argv,
                               const std::string& prefix) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  const bool filtered = !BenchFilterMatchesAll(benchmark::GetBenchmarkFilter());
  FlatJson captured;
  JsonCaptureReporter reporter(&captured);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  FlatJson prefixed;
  for (const auto& [key, value] : captured) prefixed[prefix + key] = value;
  const std::string path = BenchJsonPath();
  const bool merged = filtered ? ReplaceFlatJsonKeys(path, prefixed)
                              : MergeFlatJson(path, prefix, prefixed);
  if (!merged || !MergeFlatJson(path, "meta.", BenchMetaEntries())) {
    std::fprintf(stderr, "failed to write %s\n", path.c_str());
    return 1;
  }
  std::fprintf(stderr, "wrote %zu '%s*' entries to %s\n", prefixed.size(),
               prefix.c_str(), path.c_str());
  return 0;
}

}  // namespace mccuckoo

#endif  // MCCUCKOO_BENCH_BENCH_REPORTER_H_
