// Gates as data: how every CI performance gate reads BENCH_throughput.json.
//
// bench/gates.txt lists the gates, one per line:
//
//   name  kind  row_a  row_b  bound  nproc_floor
//
// A gate compares row A with k = bound times row B, reading each row's
// .median, .p25 and .p75 siblings (bench/bench_driver.h), never its best
// rep. It has one of three kinds:
//
//   win            passes only if A.median >= k*B.median and
//                  A.p25 > k*B.p75: quartiles that overlap read "no
//                  difference", and that fails a claimed win.
//   no_regression  fails only if A.median < k*B.median and
//                  A.p75 < k*B.p25: a deficit inside the spread passes.
//   report         prints the median ratio A/B; its bound is "-".
//
// Every kind fails when a sibling it reads, or the file's meta.nproc, is
// missing or not positive. A gate whose floor exceeds the file's own
// meta.nproc is skipped: it judges the machine that produced the rows, not
// the one running the checker.

#ifndef MCCUCKOO_BENCH_CHECK_GATES_H_
#define MCCUCKOO_BENCH_CHECK_GATES_H_

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_json.h"

namespace mccuckoo {

enum class GateKind { kWin, kNoRegression, kReport };

struct Gate {
  std::string name;
  GateKind kind = GateKind::kWin;
  std::string row_a, row_b;  ///< full JSON keys, without sibling suffixes
  double bound = 1;          ///< k; unused by report
  int nproc_floor = 1;
};

inline const char* GateKindName(GateKind kind) {
  switch (kind) {
    case GateKind::kWin: return "win";
    case GateKind::kNoRegression: return "no_regression";
    case GateKind::kReport: return "report";
  }
  return "?";
}

/// Parses gate-list text ('#' starts a comment; blank lines are skipped).
/// Returns false with a message naming the line on a malformed one.
inline bool ParseGates(const std::string& text, std::vector<Gate>* gates,
                       std::string* error) {
  std::istringstream lines(text);
  std::string line;
  for (int line_no = 1; std::getline(lines, line); ++line_no) {
    line = line.substr(0, line.find('#'));
    std::istringstream fields(line);
    std::string kind, bound, floor, extra;
    Gate g;
    if (!(fields >> g.name)) continue;
    const auto fail = [&](const std::string& why) {
      *error = "gate line " + std::to_string(line_no) + ": " + why;
      return false;
    };
    if (!(fields >> kind >> g.row_a >> g.row_b >> bound >> floor) ||
        (fields >> extra)) {
      return fail("want: name kind row_a row_b bound nproc_floor");
    }
    if (kind == "win") {
      g.kind = GateKind::kWin;
    } else if (kind == "no_regression") {
      g.kind = GateKind::kNoRegression;
    } else if (kind == "report") {
      g.kind = GateKind::kReport;
    } else {
      return fail("unknown kind '" + kind + "'");
    }
    char* end = nullptr;
    if (g.kind == GateKind::kReport) {
      if (bound != "-") return fail("a report gate's bound is '-'");
    } else {
      g.bound = std::strtod(bound.c_str(), &end);
      if (*end != '\0' || !(g.bound > 0)) return fail("bad bound " + bound);
    }
    const long n = std::strtol(floor.c_str(), &end, 10);
    if (*end != '\0' || n < 1) return fail("bad nproc floor " + floor);
    g.nproc_floor = static_cast<int>(n);
    gates->push_back(std::move(g));
  }
  return true;
}

enum class GateVerdict { kPass, kFail, kSkip };

struct GateResult {
  GateVerdict verdict;
  std::string line;  ///< one human-readable line, no trailing newline
};

namespace internal {

struct RowSpread {
  double p25, median, p75;
};

/// Reads `key`'s three siblings; empty (with the first missing or
/// non-positive key in *missing) if one is absent.
inline std::optional<RowSpread> ReadSpread(const FlatJson& rows,
                                           const std::string& key,
                                           std::string* missing) {
  double v[3];
  const char* suffix[3] = {".p25", ".median", ".p75"};
  for (int i = 0; i < 3; ++i) {
    const auto it = rows.find(key + suffix[i]);
    if (it == rows.end() || !(it->second > 0)) {
      *missing = key + suffix[i];
      return std::nullopt;
    }
    v[i] = it->second;
  }
  return RowSpread{v[0], v[1], v[2]};
}

/// snprintf into a std::string (gate lines are short).
template <typename... Args>
std::string Format(const char* fmt, Args... args) {
  char buf[512];
  std::snprintf(buf, sizeof(buf), fmt, args...);
  return buf;
}

}  // namespace internal

/// Judges one gate against a BENCH_throughput.json-format file's rows.
inline GateResult CheckGate(const Gate& g, const FlatJson& rows) {
  const std::string head = g.name + ": ";
  const auto nproc_it = rows.find("meta.nproc");
  if (nproc_it == rows.end() || !(nproc_it->second > 0)) {
    return {GateVerdict::kFail, "FAILED " + head + "missing row meta.nproc"};
  }
  if (nproc_it->second < g.nproc_floor) {
    return {GateVerdict::kSkip,
            "skipped " + head + "meta.nproc " +
                std::to_string(static_cast<int>(nproc_it->second)) +
                " < floor " + std::to_string(g.nproc_floor)};
  }
  std::string missing;
  const auto a = internal::ReadSpread(rows, g.row_a, &missing);
  const auto b = a ? internal::ReadSpread(rows, g.row_b, &missing)
                   : std::nullopt;
  if (!a || !b) {
    return {GateVerdict::kFail, "FAILED " + head + "missing row " + missing};
  }
  const double ratio = a->median / b->median;
  const std::string rows_ab = "  [" + g.row_a + " / " + g.row_b + "]";
  if (g.kind == GateKind::kReport) {
    return {GateVerdict::kPass,
            "report " + head + internal::Format("median %.3fx", ratio) +
                rows_ab};
  }
  const double k = g.bound;
  const bool win = g.kind == GateKind::kWin;
  const bool pass =
      win ? a->median >= k * b->median && a->p25 > k * b->p75
          : !(a->median < k * b->median && a->p75 < k * b->p25);
  return {pass ? GateVerdict::kPass : GateVerdict::kFail,
          (pass ? "passed " : "FAILED ") + head +
              internal::Format(
                  "%s >= %.4gx: median %.3fx; A.%s %.4g vs %.4gx B.%s %.4g",
                  GateKindName(g.kind), k, ratio, win ? "p25" : "p75",
                  win ? a->p25 : a->p75, k, win ? "p75" : "p25",
                  k * (win ? b->p75 : b->p25)) +
              rows_ab};
}

}  // namespace mccuckoo

#endif  // MCCUCKOO_BENCH_CHECK_GATES_H_
