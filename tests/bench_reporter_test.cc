// Tests for bench/bench_reporter.h: how a google-benchmark run merges its
// items/sec rows into the shared results file. A run restricted by
// --benchmark_filter must replace only the rows it measured; an unfiltered
// run owns its whole key prefix.

#include "bench/bench_reporter.h"

#include <benchmark/benchmark.h>
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_json.h"

namespace mccuckoo {
namespace {

void BM_Counted(benchmark::State& state) {
  for (auto _ : state) benchmark::DoNotOptimize(state.iterations());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Counted)->Name("lookup_hit.fake")->Iterations(8);
BENCHMARK(BM_Counted)->Name("insert.fake")->Iterations(8);

class BenchReporterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "/bench_reporter_test_" +
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

  // Runs the registered benchmarks as a bench binary would, with `filter`,
  // keying rows `prefix` + name and owning `owned` (default: `prefix`).
  FlatJson RunWithFilter(const std::string& filter,
                         const std::string& prefix = "micro.",
                         std::vector<std::string> owned = {}) {
    std::string name = "bench_reporter_test";
    std::string flag = "--benchmark_filter=" + filter;
    std::vector<char*> argv = {name.data(), flag.data(), nullptr};
    EXPECT_EQ(RunBenchmarksToJson(2, argv.data(), prefix, std::move(owned)),
              0);
    return LoadFlatJson(path_);
  }

  std::string path_;
};

TEST_F(BenchReporterTest, FilteredRunKeepsOtherRowsOfItsPrefix) {
  const FlatJson data = RunWithFilter("lookup_hit");
  EXPECT_TRUE(data.count("micro.lookup_hit.fake"));
  EXPECT_FALSE(data.count("micro.insert.fake"));
  ASSERT_TRUE(data.count("micro.unrelated.row"));
  EXPECT_EQ(data.at("micro.unrelated.row"), 5.0);
  EXPECT_EQ(data.at("batch.other.row"), 7.0);
  EXPECT_TRUE(data.count("meta.nproc"));
}

TEST_F(BenchReporterTest, UnfilteredRunReplacesItsWholePrefix) {
  const FlatJson data = RunWithFilter("all");
  EXPECT_TRUE(data.count("micro.lookup_hit.fake"));
  EXPECT_TRUE(data.count("micro.insert.fake"));
  EXPECT_FALSE(data.count("micro.unrelated.row"));
  EXPECT_EQ(data.at("batch.other.row"), 7.0);
}

// A binary that owns several namespaces (bench/scaling owns "shard." and
// "concurrent.") registers full keys under an empty prefix: an unfiltered
// run drops the stale rows of each namespace it owns and keeps every
// neighbour's rows.
TEST_F(BenchReporterTest, UnfilteredRunReplacesOnlyItsOwnedNamespaces) {
  FlatJson seeded = LoadFlatJson(path_);
  for (const char* key :
       {"lookup_hit.stale", "insert.stale", "write_scaling_ab.x.median",
        "insert_grow_ab.x.median", "obs_on.x", "lat_overhead.ratio"}) {
    seeded[key] = 3.0;
  }
  ASSERT_TRUE(StoreFlatJson(path_, seeded));
  const FlatJson data = RunWithFilter("all", "", {"lookup_hit.", "insert."});
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

TEST_F(BenchReporterTest, EmptyNamespaceIsRefused) {
  std::string name = "bench_reporter_test";
  std::vector<char*> argv = {name.data(), nullptr};
  EXPECT_NE(RunBenchmarksToJson(1, argv.data(), ""), 0);
  EXPECT_EQ(LoadFlatJson(path_).size(), 2u);
}

}  // namespace
}  // namespace mccuckoo
