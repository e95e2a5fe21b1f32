// Tests for bench/check_gates.h, the one reader behind every CI performance
// gate: the three kinds judge medians and quartiles (never the best rep),
// a missing row fails, a gate below its nproc floor is skipped, and every
// gate in bench/gates.txt names rows the checked-in results file has.

#include "bench/check_gates.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_json.h"

namespace mccuckoo {
namespace {

/// Writes `text` to a temp file and reads it back as a results file.
FlatJson LoadText(const std::string& text) {
  const std::string path =
      ::testing::TempDir() + "/check_gates_test_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() +
      ".json";
  std::ofstream(path) << text;
  FlatJson rows = LoadFlatJson(path);
  std::remove(path.c_str());
  return rows;
}

/// One row's siblings as results-file lines: key.p25/.median/.p75.
std::string Row(const std::string& key, double p25, double median,
                double p75) {
  std::ostringstream out;
  out << "  \"" << key << ".p25\": " << p25 << ",\n  \"" << key
      << ".median\": " << median << ",\n  \"" << key << ".p75\": " << p75
      << ",\n";
  return out.str();
}

std::string File(const std::string& rows, int nproc = 4) {
  return "{\n" + rows + "  \"meta.nproc\": " + std::to_string(nproc) +
         "\n}\n";
}

Gate MakeGate(GateKind kind, double bound, int floor = 1) {
  return {"g", kind, "a", "b", bound, floor};
}

TEST(CheckGatesTest, EvictionFileAtFourPointFiveXFailsTheFiveXWin) {
  // A hand-edited file that passed the old string-comparing awk gate.
  const std::string bfs = "ablation_eviction.McCuckoo.bfs.load90.ops_per_sec";
  const std::string walk =
      "ablation_eviction.McCuckoo.random_walk.load90.ops_per_sec";
  const FlatJson rows = LoadText(
      File(Row(bfs, 90000.5, 90000.5, 90000.5) +
           Row(walk, 20000.5, 20000.5, 20000.5)));
  const Gate gate{"eviction.load90", GateKind::kWin, bfs, walk, 5, 1};
  const GateResult r = CheckGate(gate, rows);
  EXPECT_EQ(r.verdict, GateVerdict::kFail) << r.line;
  EXPECT_NE(r.line.find("4.500x"), std::string::npos) << r.line;
}

TEST(CheckGatesTest, WinNeedsSeparatedQuartiles) {
  // Medians 2x apart clear a 1.5x bound, but A.p25 (140) is not above
  // 1.5 * B.p75 (150): the spreads overlap, which reads "no difference".
  const FlatJson overlap =
      LoadText(File(Row("a", 140, 200, 210) + Row("b", 90, 100, 100)));
  EXPECT_EQ(CheckGate(MakeGate(GateKind::kWin, 1.5), overlap).verdict,
            GateVerdict::kFail);
  const FlatJson separated =
      LoadText(File(Row("a", 160, 200, 210) + Row("b", 90, 100, 100)));
  EXPECT_EQ(CheckGate(MakeGate(GateKind::kWin, 1.5), separated).verdict,
            GateVerdict::kPass);
}

TEST(CheckGatesTest, NoRegressionFailsOnlyOnASeparatedDeficit) {
  // Median 80 is below 0.9 * 115 in both files; only the separated one
  // (A.p75 85 < 0.9 * B.p25 = 99) is a regression.
  const FlatJson separated =
      LoadText(File(Row("a", 75, 80, 85) + Row("b", 110, 115, 120)));
  EXPECT_EQ(CheckGate(MakeGate(GateKind::kNoRegression, 0.9), separated)
                .verdict,
            GateVerdict::kFail);
  const FlatJson overlap =
      LoadText(File(Row("a", 75, 80, 105) + Row("b", 110, 115, 120)));
  EXPECT_EQ(
      CheckGate(MakeGate(GateKind::kNoRegression, 0.9), overlap).verdict,
      GateVerdict::kPass);
}

TEST(CheckGatesTest, EveryKindFailsOnAMissingRow) {
  const FlatJson no_b = LoadText(File(Row("a", 1, 2, 3)));
  const FlatJson no_median = LoadText(
      File(Row("b", 1, 2, 3) + "  \"a.p25\": 1,\n  \"a.p75\": 3,\n"));
  const FlatJson no_meta = LoadText(
      "{\n" + Row("a", 1, 2, 3) + Row("b", 1, 2, 3) + "  \"x\": 1\n}\n");
  for (const GateKind kind :
       {GateKind::kWin, GateKind::kNoRegression, GateKind::kReport}) {
    for (const FlatJson* rows : {&no_b, &no_median, &no_meta}) {
      const GateResult r = CheckGate(MakeGate(kind, 1), *rows);
      EXPECT_EQ(r.verdict, GateVerdict::kFail) << r.line;
      EXPECT_NE(r.line.find("missing row"), std::string::npos) << r.line;
    }
  }
}

TEST(CheckGatesTest, ReportPrintsTheMedianRatioAndPasses) {
  const FlatJson rows =
      LoadText(File(Row("a", 1, 50, 100) + Row("b", 90, 100, 110)));
  const GateResult r = CheckGate(MakeGate(GateKind::kReport, 1), rows);
  EXPECT_EQ(r.verdict, GateVerdict::kPass);
  EXPECT_NE(r.line.find("0.500x"), std::string::npos) << r.line;
}

TEST(CheckGatesTest, BelowItsFloorAGateIsSkippedNotPassed) {
  // The t4 rows are not even recorded on a small host; the floor is read
  // from the file's meta.nproc, so the rows' own machine is judged.
  const FlatJson rows = LoadText(File("", /*nproc=*/2));
  const GateResult r = CheckGate(MakeGate(GateKind::kWin, 1.5, 4), rows);
  EXPECT_EQ(r.verdict, GateVerdict::kSkip);
  EXPECT_EQ(r.line.rfind("skipped", 0), 0u) << r.line;
  EXPECT_EQ(r.line.find("passed"), std::string::npos) << r.line;
}

TEST(CheckGatesTest, MalformedGateLinesAreRefused) {
  std::vector<Gate> gates;
  std::string error;
  EXPECT_TRUE(ParseGates("# comment\n\nx win a b 1.5 4  # trailing\n",
                         &gates, &error));
  ASSERT_EQ(gates.size(), 1u);
  EXPECT_EQ(gates[0].row_b, "b");
  EXPECT_EQ(gates[0].bound, 1.5);
  EXPECT_EQ(gates[0].nproc_floor, 4);
  for (const char* bad :
       {"x best a b 1.5 4", "x win a b - 1", "x report a b 2 1",
        "x win a b 1.5", "x win a b 1.5 4 extra", "x win a b 0 1",
        "x win a b 1.5x 1", "x no_regression a b 1 0"}) {
    gates.clear();
    EXPECT_FALSE(ParseGates(bad, &gates, &error)) << bad;
    EXPECT_NE(error.find("gate line 1"), std::string::npos) << error;
  }
}

TEST(CheckGatesTest, EveryListedGateNamesRecordedRows) {
  // A renamed row must not silently orphan its gate.
  std::ifstream in(std::string(MCCUCKOO_SOURCE_DIR) + "/bench/gates.txt");
  ASSERT_TRUE(in);
  std::stringstream text;
  text << in.rdbuf();
  std::vector<Gate> gates;
  std::string error;
  ASSERT_TRUE(ParseGates(text.str(), &gates, &error)) << error;
  ASSERT_FALSE(gates.empty());
  const FlatJson rows =
      LoadFlatJson(std::string(MCCUCKOO_SOURCE_DIR) + "/BENCH_throughput.json");
  ASSERT_TRUE(rows.contains("meta.nproc"));
  for (const Gate& gate : gates) {
    for (const std::string& row : {gate.row_a, gate.row_b}) {
      for (const char* sibling : {".median", ".p25", ".p75"}) {
        EXPECT_TRUE(rows.contains(row + sibling))
            << gate.name << " reads " << row + sibling
            << ", which BENCH_throughput.json does not have";
      }
    }
  }
}

}  // namespace
}  // namespace mccuckoo
