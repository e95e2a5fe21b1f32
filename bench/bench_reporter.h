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
#include <vector>

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

/// Runs the registered benchmarks through a JsonCaptureReporter and merges
/// the captured items/sec into BenchJsonPath() under the key `prefix` +
/// benchmark name, plus the "meta.*" machine-context rows. The binary owns
/// the key namespaces in `owned` ("micro.", "shard.", ...; just `prefix`
/// when `owned` is empty). An unfiltered run replaces every row under them
/// (dropping rows of benchmarks that no longer exist) and keeps every other
/// row; a --benchmark_filter run replaces only the rows it measured. An
/// empty namespace would own the whole file, so it is refused. Returns the
/// process exit code.
inline int RunBenchmarksToJson(int argc, char** argv,
                               const std::string& prefix,
                               std::vector<std::string> owned = {}) {
  if (owned.empty()) owned.push_back(prefix);
  if (std::ranges::find(owned, "") != owned.end()) {
    std::fprintf(stderr, "refusing to own every row: empty key namespace\n");
    return 1;
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  const bool filtered = !BenchFilterMatchesAll(benchmark::GetBenchmarkFilter());
  FlatJson captured;
  JsonCaptureReporter reporter(&captured);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  const std::string path = BenchJsonPath();
  FlatJson data = LoadFlatJson(path);
  if (!filtered) {
    std::erase_if(data, [&](const auto& row) {
      return std::ranges::any_of(owned, [&](const std::string& ns) {
        return row.first.starts_with(ns);
      });
    });
  }
  for (const auto& [key, value] : captured) data[prefix + key] = value;
  if (!StoreFlatJson(path, data) ||
      !MergeFlatJson(path, "meta.", BenchMetaEntries())) {
    std::fprintf(stderr, "failed to write %s\n", path.c_str());
    return 1;
  }
  std::fprintf(stderr, "wrote %zu rows to %s\n", captured.size(),
               path.c_str());
  return 0;
}

}  // namespace mccuckoo

#endif  // MCCUCKOO_BENCH_BENCH_REPORTER_H_
