// Tests for bench/bench_driver.h: how the one bench timing loop orders its
// reps, summarizes them, and merges rows into the shared results file. A
// run restricted by --filter must replace only the rows it measured (each
// with its four siblings); an unfiltered run owns its whole key namespaces.

#include "bench/bench_driver.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_json.h"

namespace mccuckoo {
namespace {

/// Fake rows named `keys`: each body does 8 "ops" and appends its key to
/// `log`; each setup appends "setup:" + key.
std::vector<BenchGroup> FakeGroups(
    const std::vector<std::string>& keys,
    std::shared_ptr<std::vector<std::string>> log =
        std::make_shared<std::vector<std::string>>()) {
  BenchGroup group;
  for (const std::string& key : keys) {
    group.push_back({key,
                     [log, key] {
                       log->push_back(key);
                       return uint64_t{8};
                     },
                     [log, key] { log->push_back("setup:" + key); }});
  }
  return {group};
}

class BenchDriverTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "/bench_driver_test_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".json";
    ASSERT_TRUE(StoreFlatJson(
        path_, {{"micro.unrelated.row", 5.0}, {"batch.other.row", 7.0}}));
    setenv("MCCUCKOO_BENCH_JSON", path_.c_str(), 1);
  }
  void TearDown() override {
    unsetenv("MCCUCKOO_BENCH_JSON");
    std::remove(path_.c_str());
  }

  // Runs the fake rows `keys` as a bench binary would, with `filter`,
  // owning `owned`.
  FlatJson RunWithFilter(const std::string& filter,
                         const std::vector<std::string>& keys =
                             {"micro.lookup_hit.fake", "micro.insert.fake"},
                         const std::vector<std::string>& owned = {"micro."}) {
    const BenchOptions opt{.reps = 2, .filter = filter};
    EXPECT_EQ(RunBenchToJson(opt, FakeGroups(keys), owned), 0);
    return LoadFlatJson(path_);
  }

  std::string path_;
};

TEST_F(BenchDriverTest, FilteredRunKeepsOtherRowsOfItsPrefix) {
  const FlatJson data = RunWithFilter("lookup_hit");
  EXPECT_TRUE(data.count("micro.lookup_hit.fake"));
  EXPECT_FALSE(data.count("micro.insert.fake"));
  ASSERT_TRUE(data.count("micro.unrelated.row"));
  EXPECT_EQ(data.at("micro.unrelated.row"), 5.0);
  EXPECT_EQ(data.at("batch.other.row"), 7.0);
  EXPECT_TRUE(data.count("meta.nproc"));
}

TEST_F(BenchDriverTest, UnfilteredRunReplacesItsWholePrefix) {
  const FlatJson data = RunWithFilter("");
  EXPECT_TRUE(data.count("micro.lookup_hit.fake"));
  EXPECT_TRUE(data.count("micro.insert.fake"));
  EXPECT_FALSE(data.count("micro.unrelated.row"));
  EXPECT_EQ(data.at("batch.other.row"), 7.0);
}

// A binary that owns several namespaces (bench/scaling owns "shard." and
// "concurrent.") drops the stale rows of each namespace it owns on an
// unfiltered run and keeps every neighbour's rows.
TEST_F(BenchDriverTest, UnfilteredRunReplacesOnlyItsOwnedNamespaces) {
  FlatJson seeded = LoadFlatJson(path_);
  for (const char* key :
       {"lookup_hit.stale", "insert.stale", "write_scaling_ab.x.median",
        "insert_grow_ab.x.median", "obs_on.x", "lat_overhead.ratio"}) {
    seeded[key] = 3.0;
  }
  ASSERT_TRUE(StoreFlatJson(path_, seeded));
  const FlatJson data = RunWithFilter("", {"lookup_hit.fake", "insert.fake"},
                                      {"lookup_hit.", "insert."});
  EXPECT_TRUE(data.count("lookup_hit.fake"));
  EXPECT_TRUE(data.count("insert.fake"));
  EXPECT_FALSE(data.count("lookup_hit.stale"));
  EXPECT_FALSE(data.count("insert.stale"));
  EXPECT_EQ(data.at("micro.unrelated.row"), 5.0);
  EXPECT_EQ(data.at("batch.other.row"), 7.0);
  for (const char* key : {"write_scaling_ab.x.median",
                          "insert_grow_ab.x.median", "obs_on.x",
                          "lat_overhead.ratio"}) {
    ASSERT_TRUE(data.count(key)) << key;
    EXPECT_EQ(data.at(key), 3.0) << key;
  }
}

TEST_F(BenchDriverTest, EmptyNamespaceIsRefused) {
  auto log = std::make_shared<std::vector<std::string>>();
  EXPECT_NE(RunBenchToJson(BenchOptions{}, FakeGroups({"x.fake"}, log), {""}),
            0);
  EXPECT_TRUE(log->empty());
  EXPECT_EQ(LoadFlatJson(path_).size(), 2u);
}

TEST_F(BenchDriverTest, RepOrderRotatesWithinAGroup) {
  auto log = std::make_shared<std::vector<std::string>>();
  const BenchResults r =
      RunBenchGroups({.reps = 3}, FakeGroups({"a", "b", "c"}, log));
  const std::vector<std::string> want = {
      "setup:a", "a", "setup:b", "b", "setup:c", "c",   // rep 0
      "setup:b", "b", "setup:c", "c", "setup:a", "a",   // rep 1
      "setup:c", "c", "setup:a", "a", "setup:b", "b"};  // rep 2
  EXPECT_EQ(*log, want);
  ASSERT_EQ(r.size(), 3u);
  for (const auto& [key, s] : r) EXPECT_EQ(s.reps, 3) << key;
}

TEST_F(BenchDriverTest, FilteredRunReplacesOnlyMeasuredRowsSiblings) {
  FlatJson seeded = LoadFlatJson(path_);
  for (const char* row : {"micro.lookup_hit.fake", "micro.insert.fake"}) {
    for (const char* suffix : {"", ".median", ".p25", ".p75", ".reps"}) {
      seeded[std::string(row) + suffix] = -1.0;
    }
  }
  ASSERT_TRUE(StoreFlatJson(path_, seeded));
  const FlatJson data = RunWithFilter("lookup_hit");
  for (const char* suffix : {"", ".median", ".p25", ".p75"}) {
    EXPECT_GT(data.at(std::string("micro.lookup_hit.fake") + suffix), 0)
        << suffix;
  }
  EXPECT_EQ(data.at("micro.lookup_hit.fake.reps"), 2.0);
  for (const char* suffix : {"", ".median", ".p25", ".p75", ".reps"}) {
    EXPECT_EQ(data.at(std::string("micro.insert.fake") + suffix), -1.0)
        << suffix;
  }
}

// Linear interpolation between the order statistics at q * (n - 1):
// sorted {1, 2, 3, 4, 5, 10} puts p25 at 1.25 (2.25), the median at 2.5
// (3.5) and p75 at 3.75 (4.75).
TEST_F(BenchDriverTest, QuartilesMatchHandComputedValues) {
  const RowStats s = SummarizeReps({5, 1, 10, 3, 2, 4});
  EXPECT_DOUBLE_EQ(s.best, 10);
  EXPECT_DOUBLE_EQ(s.p25, 2.25);
  EXPECT_DOUBLE_EQ(s.median, 3.5);
  EXPECT_DOUBLE_EQ(s.p75, 4.75);
  EXPECT_EQ(s.reps, 6);
  const RowStats one = SummarizeReps({7});
  EXPECT_DOUBLE_EQ(one.p25, 7);
  EXPECT_DOUBLE_EQ(one.p75, 7);
}

}  // namespace
}  // namespace mccuckoo
