// The one timing loop behind every wall-clock row of BENCH_throughput.json.
//
// A bench binary describes its rows as data: a full JSON key, an optional
// untimed setup run before every rep, and a timed body that returns how many
// operations it did. Rows that are compared with each other form a group,
// and their fixtures are live together. Rep r runs every row of its group
// once, in the group's order rotated by r, so a drift in host speed spreads
// across the rows instead of landing on whichever row runs last.
//
// Each row records its best rep (items/sec) under its key plus four
// siblings: <key>.median, <key>.p25, <key>.p75 (linear-interpolated
// quartiles of the rep rates) and <key>.reps. The CI gates (bench/gates.txt,
// bench/check_gates.h) and the docs read the median and quartiles; the best
// rep follows the host's fastest moment.
//
// Flags shared by every wall-clock bench binary:
//   --reps=N     timed reps per row (default 5)
//   --filter=RE  run only the rows whose full key contains a match of the
//                ECMAScript regex RE (anchor with ^ and $ as needed)
//   --slots=N    the binary's size knob; each binary states its meaning

#ifndef MCCUCKOO_BENCH_BENCH_DRIVER_H_
#define MCCUCKOO_BENCH_BENCH_DRIVER_H_

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <regex>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_json.h"
#include "src/common/flags.h"
#include "src/obs/timing.h"

#ifndef MCCUCKOO_BUILD_TYPE
#define MCCUCKOO_BUILD_TYPE "unknown"
#endif

namespace mccuckoo {

/// Keeps `value` (and every store before it) live without emitting code.
template <typename T>
inline void DoNotOptimize(const T& value) {
  asm volatile("" : : "r,m"(value) : "memory");
}

/// One timed row. `setup` may build a fixture the row shares with others
/// of its group on first use; rows a --filter skips never run it.
struct BenchRow {
  std::string key;                        ///< full JSON key
  std::function<uint64_t()> body;         ///< timed; returns operations done
  std::function<void()> setup = nullptr;  ///< untimed, before every body
};
using BenchGroup = std::vector<BenchRow>;

/// What a row records: best rep and quartiles of the rep rates, in items/sec.
struct RowStats {
  double best = 0, p25 = 0, median = 0, p75 = 0;
  int reps = 0;
};
using BenchResults = std::map<std::string, RowStats>;

/// Best rep plus linear-interpolated quartiles of `rates` (non-empty).
inline RowStats SummarizeReps(std::vector<double> rates) {
  std::sort(rates.begin(), rates.end());
  const auto at = [&](double q) {
    const double pos = q * static_cast<double>(rates.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, rates.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return rates[lo] + (rates[hi] - rates[lo]) * frac;
  };
  return {rates.back(), at(0.25), at(0.5), at(0.75),
          static_cast<int>(rates.size())};
}

struct BenchOptions {
  int reps = 5;
  std::string filter = "";  ///< empty: every row; the run owns its namespaces
  uint64_t slots = 0;
};

/// Parses --reps, --filter and --slots (default `default_slots`); any other
/// flag or a non-positive count exits with a message (a bad --filter regex
/// throws std::regex_error before any row runs).
inline BenchOptions ParseBenchOptions(int argc, char** argv,
                                      uint64_t default_slots) {
  const auto fail = [](const std::string& why) {
    std::fprintf(stderr, "%s\n", why.c_str());
    std::exit(1);
  };
  Result<Flags> parsed = Flags::Parse(argc, argv);
  if (!parsed.ok()) fail(parsed.status().ToString());
  const Flags& flags = parsed.value();
  if (Status s = flags.CheckKnown({"reps", "filter", "slots"}); !s.ok()) {
    fail(s.message());
  }
  const int64_t reps = flags.GetInt("reps", 5);
  const int64_t slots =
      flags.GetInt("slots", static_cast<int64_t>(default_slots));
  if (reps < 1 || slots < 1) fail("--reps and --slots must be positive");
  return {static_cast<int>(reps), flags.GetString("filter", ""),
          static_cast<uint64_t>(slots)};
}

/// The build's target architecture, for the machine-context rows below.
inline const char* BenchArchName() {
#if defined(__x86_64__) || defined(_M_X64)
  return "x86_64";
#elif defined(__aarch64__) || defined(_M_ARM64)
  return "aarch64";
#else
  return "unknown";
#endif
}

/// Machine-context rows every bench binary refreshes alongside its results:
/// numbers in BENCH_throughput.json are only comparable within one machine
/// and build, so the file records which produced them. The flat format maps
/// keys to numbers only, so strings are encoded in the key
/// ("meta.arch.x86_64": 1, "meta.build.Release": 1).
inline FlatJson BenchMetaEntries() {
  return {{"meta.nproc", std::thread::hardware_concurrency()},
          {std::string("meta.arch.") + BenchArchName(), 1},
          {std::string("meta.build.") + MCCUCKOO_BUILD_TYPE, 1}};
}

/// Runs each group's rows that match opt.filter for opt.reps interleaved
/// reps, freeing a group's fixtures once it is done.
inline BenchResults RunBenchGroups(const BenchOptions& opt,
                                   std::vector<BenchGroup> groups) {
  const std::regex filter(opt.filter);
  BenchResults results;
  for (BenchGroup& rows : groups) {
    std::erase_if(rows, [&](const BenchRow& row) {
      return !std::regex_search(row.key, filter);
    });
    std::vector<std::vector<double>> rates(rows.size());
    for (int rep = 0; rep < opt.reps; ++rep) {
      for (size_t i = 0; i < rows.size(); ++i) {
        const size_t r = (i + static_cast<size_t>(rep)) % rows.size();
        if (rows[r].setup) rows[r].setup();
        const Stopwatch sw;
        const uint64_t ops = rows[r].body();
        rates[r].push_back(static_cast<double>(ops) / sw.ElapsedSeconds());
      }
    }
    for (size_t r = 0; r < rows.size(); ++r) {
      const RowStats s = SummarizeReps(rates[r]);
      results[rows[r].key] = s;
      std::printf("%-52s %10.4g/s  median %10.4g [%.4g, %.4g]  %d reps\n",
                  rows[r].key.c_str(), s.best, s.median, s.p25, s.p75, s.reps);
    }
    std::fflush(stdout);
    rows.clear();
  }
  return results;
}

/// Merges `results`, each row with its four siblings, plus `extra` and the
/// "meta.*" rows into BenchJsonPath(). Every old row under a namespace in
/// `replaced` ("micro.", "shard.", ...) is dropped first; other old rows
/// are kept unless written again. Returns the process exit code.
inline int WriteBenchRows(const BenchResults& results,
                          std::vector<std::string> replaced,
                          FlatJson extra = {}) {
  FlatJson rows = std::move(extra);
  for (const auto& [key, s] : results) {
    rows[key] = s.best;
    rows[key + ".median"] = s.median;
    rows[key + ".p25"] = s.p25;
    rows[key + ".p75"] = s.p75;
    rows[key + ".reps"] = s.reps;
  }
  rows.merge(BenchMetaEntries());
  replaced.push_back("meta.");
  const std::string path = BenchJsonPath();
  if (!MergeFlatJson(path, replaced, rows)) {
    std::fprintf(stderr, "failed to write %s\n", path.c_str());
    return 1;
  }
  std::fprintf(stderr, "wrote %zu rows to %s\n", rows.size(), path.c_str());
  return 0;
}

/// Runs `groups` and writes the measured rows plus `extra(results)` with
/// WriteBenchRows. The binary owns the key namespaces in `owned`: an
/// unfiltered run replaces every row under them; a --filter run replaces
/// only the rows it wrote. An empty namespace would own the whole file, so
/// it is refused before anything runs. Returns the process exit code.
inline int RunBenchToJson(
    const BenchOptions& opt, std::vector<BenchGroup> groups,
    const std::vector<std::string>& owned,
    const std::function<FlatJson(const BenchResults&)>& extra = {}) {
  if (owned.empty() || std::ranges::find(owned, "") != owned.end()) {
    std::fprintf(stderr, "refusing to own every row: empty key namespace\n");
    return 1;
  }
  const BenchResults results = RunBenchGroups(opt, std::move(groups));
  return WriteBenchRows(
      results, opt.filter.empty() ? owned : std::vector<std::string>{},
      extra ? extra(results) : FlatJson{});
}

}  // namespace mccuckoo

#endif  // MCCUCKOO_BENCH_BENCH_DRIVER_H_
