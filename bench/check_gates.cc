// Applies the gates of a gate list (bench/gates.txt) to a
// BENCH_throughput.json-format file and exits non-zero if one fails.
//
//   [MCCUCKOO_BENCH_JSON=PATH] check_gates [--filter=RE]
//
//   --filter=RE   apply only the gates whose name contains a match of the
//                 ECMAScript regex RE (default: every gate); a filter that
//                 matches no gate is an error
//
// The gate list is the source tree's bench/gates.txt (its path is compiled
// in). The rows are read from the file the bench binaries write:
// $MCCUCKOO_BENCH_JSON, or ./BENCH_throughput.json.
//
// Prints one line per applied gate (passed, FAILED, skipped or report; see
// bench/check_gates.h) and exits 1 if any gate failed, 2 on a usage error.

#include <cstdio>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_json.h"
#include "bench/check_gates.h"
#include "src/common/flags.h"

int main(int argc, char** argv) {
  using namespace mccuckoo;
  const auto usage = [](const std::string& why) {
    std::fprintf(stderr, "check_gates: %s\n", why.c_str());
    return 2;
  };
  Result<Flags> parsed = Flags::Parse(argc, argv);
  if (!parsed.ok()) return usage(parsed.status().ToString());
  const Flags& flags = parsed.value();
  if (Status s = flags.CheckKnown({"filter"}); !s.ok()) {
    return usage(s.message());
  }
  const std::string gates_path = MCCUCKOO_SOURCE_DIR "/bench/gates.txt";
  const std::string json_path = BenchJsonPath();
  const std::regex filter(flags.GetString("filter", ""));

  std::ifstream in(gates_path);
  if (!in) return usage("cannot read " + gates_path);
  std::stringstream text;
  text << in.rdbuf();
  std::vector<Gate> gates;
  std::string error;
  if (!ParseGates(text.str(), &gates, &error)) {
    return usage(gates_path + ": " + error);
  }
  const FlatJson rows = LoadFlatJson(json_path);
  if (rows.empty()) return usage("no rows in " + json_path);

  int applied = 0, failed = 0;
  for (const Gate& gate : gates) {
    if (!std::regex_search(gate.name, filter)) continue;
    const GateResult r = CheckGate(gate, rows);
    std::printf("%s\n", r.line.c_str());
    ++applied;
    failed += r.verdict == GateVerdict::kFail;
  }
  if (applied == 0) {
    return usage("no gate in " + gates_path + " matches --filter");
  }
  std::printf("%d gate(s) applied to %s, %d failed\n", applied,
              json_path.c_str(), failed);
  return failed == 0 ? 0 : 1;
}
