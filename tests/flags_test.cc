#include "src/common/flags.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

namespace mccuckoo {
namespace {

Flags ParseOrDie(std::vector<const char*> argv) {
  argv.insert(argv.begin(), "prog");
  Result<Flags> r = Flags::Parse(static_cast<int>(argv.size()),
                                 const_cast<char**>(argv.data()));
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return std::move(r).value();
}

TEST(FlagsTest, EqualsSyntax) {
  Flags f = ParseOrDie({"--items=5000", "--load=0.92"});
  EXPECT_EQ(f.GetInt("items", 0), 5000);
  EXPECT_DOUBLE_EQ(f.GetDouble("load", 0), 0.92);
}

TEST(FlagsTest, SpaceSyntax) {
  Flags f = ParseOrDie({"--items", "7", "--name", "fig9"});
  EXPECT_EQ(f.GetInt("items", 0), 7);
  EXPECT_EQ(f.GetString("name", ""), "fig9");
}

TEST(FlagsTest, BareBoolean) {
  Flags f = ParseOrDie({"--verbose", "--items=3"});
  EXPECT_TRUE(f.GetBool("verbose", false));
  EXPECT_FALSE(f.GetBool("quiet", false));
}

TEST(FlagsTest, ExplicitBooleanValues) {
  Flags f = ParseOrDie({"--a=false", "--b=0", "--c=no", "--d=true"});
  EXPECT_FALSE(f.GetBool("a", true));
  EXPECT_FALSE(f.GetBool("b", true));
  EXPECT_FALSE(f.GetBool("c", true));
  EXPECT_TRUE(f.GetBool("d", false));
}

TEST(FlagsTest, DefaultsWhenAbsent) {
  Flags f = ParseOrDie({});
  EXPECT_EQ(f.GetInt("missing", -3), -3);
  EXPECT_DOUBLE_EQ(f.GetDouble("missing", 2.5), 2.5);
  EXPECT_EQ(f.GetString("missing", "dflt"), "dflt");
  EXPECT_FALSE(f.Has("missing"));
}

TEST(FlagsTest, IntList) {
  Flags f = ParseOrDie({"--maxloops=50,100,200,500"});
  EXPECT_EQ(f.GetIntList("maxloops", {}),
            (std::vector<int64_t>{50, 100, 200, 500}));
  EXPECT_EQ(f.GetIntList("absent", {1, 2}), (std::vector<int64_t>{1, 2}));
}

TEST(FlagsTest, PositionalArgumentRejected) {
  std::vector<const char*> argv = {"prog", "stray"};
  Result<Flags> r =
      Flags::Parse(static_cast<int>(argv.size()), const_cast<char**>(argv.data()));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(FlagsTest, TryGetIntRejectsOverflowAndGarbage) {
  Flags f = ParseOrDie(
      {"--big=99999999999999999999", "--small=-99999999999999999999",
       "--word=abc", "--max=9223372036854775807",
       "--min=-9223372036854775808"});
  for (const char* name : {"big", "small", "word"}) {
    const Result<int64_t> r = f.TryGetInt(name, 0);
    ASSERT_FALSE(r.ok()) << name;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(r.status().message().find(name), std::string::npos);
  }
  EXPECT_EQ(f.TryGetInt("max", 0).value(), INT64_MAX);
  EXPECT_EQ(f.TryGetInt("min", 0).value(), INT64_MIN);
  EXPECT_EQ(f.TryGetInt("absent", 7).value(), 7);
}

TEST(FlagsTest, CheckKnownNamesTheUnknownFlag) {
  Flags f = ParseOrDie({"--shard=4", "--port=1"});
  EXPECT_TRUE(f.CheckKnown({"port", "shard"}).ok());
  const Status s = f.CheckKnown({"port", "shards"});
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "unknown flag --shard (want --port, --shards)");
}

TEST(FlagsTest, NamesListsEverything) {
  Flags f = ParseOrDie({"--b=1", "--a=2"});
  EXPECT_EQ(f.names(), (std::vector<std::string>{"a", "b"}));
}

}  // namespace
}  // namespace mccuckoo
