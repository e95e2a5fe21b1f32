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

  // Runs the registered benchmarks as a bench binary would, with `filter`.
  FlatJson RunWithFilter(const std::string& filter) {
    std::string name = "bench_reporter_test";
    std::string flag = "--benchmark_filter=" + filter;
    std::vector<char*> argv = {name.data(), flag.data(), nullptr};
    EXPECT_EQ(RunBenchmarksToJson(2, argv.data(), "micro."), 0);
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

}  // namespace
}  // namespace mccuckoo
