#include "src/core/snapshot.h"

#include <gtest/gtest.h>

#include <sstream>

#include "src/baseline/cuckoo_table.h"
#include "src/core/blocked_mccuckoo_table.h"
#include "src/core/mccuckoo_table.h"
#include "src/workload/keyset.h"

namespace mccuckoo {
namespace {

TableOptions SmallOptions(uint32_t l) {
  TableOptions o;
  o.buckets_per_table = l == 1 ? 512 : 170;
  o.slots_per_bucket = l;
  o.maxloop = 100;
  o.deletion_mode = DeletionMode::kResetCounters;
  return o;
}

template <typename Table>
void RoundTrip(uint32_t l) {
  Table original(SmallOptions(l));
  const auto keys = MakeUniqueKeys(original.capacity() * 80 / 100, 1, 0);
  for (uint64_t k : keys) original.Insert(k, k * 11);
  for (size_t i = 0; i < keys.size() / 5; ++i) original.Erase(keys[i]);

  std::stringstream stream;
  ASSERT_TRUE(SaveSnapshot(original, stream).ok());

  Result<Table> loaded = LoadSnapshot<Table>(stream);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const Table& t = loaded.value();
  EXPECT_EQ(t.TotalItems(), original.TotalItems());
  EXPECT_EQ(t.options().buckets_per_table,
            original.options().buckets_per_table);
  for (size_t i = 0; i < keys.size() / 5; ++i) {
    EXPECT_FALSE(t.Contains(keys[i])) << keys[i];
  }
  for (size_t i = keys.size() / 5; i < keys.size(); ++i) {
    uint64_t v = 0;
    ASSERT_TRUE(t.Find(keys[i], &v)) << keys[i];
    EXPECT_EQ(v, keys[i] * 11);
  }
  EXPECT_TRUE(t.ValidateInvariants().ok());
}

TEST(SnapshotTest, McCuckooRoundTrip) {
  RoundTrip<McCuckooTable<uint64_t, uint64_t>>(1);
}
TEST(SnapshotTest, BlockedRoundTrip) {
  RoundTrip<BlockedMcCuckooTable<uint64_t, uint64_t>>(3);
}
TEST(SnapshotTest, CuckooRoundTrip) {
  RoundTrip<CuckooTable<uint64_t, uint64_t>>(1);
}
TEST(SnapshotTest, BchtRoundTrip) {
  RoundTrip<CuckooTable<uint64_t, uint64_t>>(3);
}

TEST(SnapshotTest, StashedItemsSurvive) {
  TableOptions o = SmallOptions(1);
  o.buckets_per_table = 64;
  o.maxloop = 8;
  McCuckooTable<uint64_t, uint64_t> original(o);
  const auto keys = MakeUniqueKeys(190, 2, 0);
  for (uint64_t k : keys) original.Insert(k, k);
  ASSERT_GT(original.stash_size(), 0u);

  std::stringstream stream;
  ASSERT_TRUE(SaveSnapshot(original, stream).ok());
  auto loaded = LoadSnapshot<McCuckooTable<uint64_t, uint64_t>>(stream);
  ASSERT_TRUE(loaded.ok());
  for (uint64_t k : keys) EXPECT_TRUE(loaded.value().Contains(k)) << k;
}

TEST(SnapshotTest, OptionsRoundTripExactly) {
  TableOptions o = SmallOptions(1);
  o.deletion_mode = DeletionMode::kTombstone;
  o.eviction_policy = EvictionPolicy::kMinCounter;
  o.stash_kind = StashKind::kOnchipChs;
  o.onchip_stash_capacity = 7;
  o.maxloop = 123;
  McCuckooTable<uint64_t, uint64_t> original(o);
  original.Insert(1, 2);

  std::stringstream stream;
  ASSERT_TRUE(SaveSnapshot(original, stream).ok());
  auto loaded = LoadSnapshot<McCuckooTable<uint64_t, uint64_t>>(stream);
  ASSERT_TRUE(loaded.ok());
  const TableOptions& lo = loaded.value().options();
  EXPECT_EQ(lo.deletion_mode, DeletionMode::kTombstone);
  EXPECT_EQ(lo.eviction_policy, EvictionPolicy::kMinCounter);
  EXPECT_EQ(lo.stash_kind, StashKind::kOnchipChs);
  EXPECT_EQ(lo.onchip_stash_capacity, 7u);
  EXPECT_EQ(lo.maxloop, 123u);
}

TEST(SnapshotTest, RejectsGarbage) {
  std::stringstream stream("this is not a snapshot at all............");
  auto r = LoadSnapshot<McCuckooTable<uint64_t, uint64_t>>(stream);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(SnapshotTest, RejectsTruncatedStream) {
  McCuckooTable<uint64_t, uint64_t> original(SmallOptions(1));
  for (uint64_t k : MakeUniqueKeys(100, 3, 0)) original.Insert(k, k);
  std::stringstream stream;
  ASSERT_TRUE(SaveSnapshot(original, stream).ok());
  const std::string full = stream.str();
  std::stringstream truncated(full.substr(0, full.size() - 9));
  auto r = LoadSnapshot<McCuckooTable<uint64_t, uint64_t>>(truncated);
  EXPECT_FALSE(r.ok());
}

TEST(SnapshotTest, RejectsWrongVersion) {
  McCuckooTable<uint64_t, uint64_t> original(SmallOptions(1));
  std::stringstream stream;
  ASSERT_TRUE(SaveSnapshot(original, stream).ok());
  std::string bytes = stream.str();
  bytes[8] = 99;  // clobber the version field
  std::stringstream bad(bytes);
  auto r = LoadSnapshot<McCuckooTable<uint64_t, uint64_t>>(bad);
  EXPECT_FALSE(r.ok());
}

TEST(SnapshotTest, RejectsOutOfRangeEvictionPolicy) {
  // A snapshot from a newer (or corrupt) build may carry an enum value this
  // build does not know; the loader must fail with a descriptive error
  // instead of casting the raw integer into EvictionPolicy.
  McCuckooTable<uint64_t, uint64_t> original(SmallOptions(1));
  original.Insert(1, 2);
  std::stringstream stream;
  ASSERT_TRUE(SaveSnapshot(original, stream).ok());
  std::string bytes = stream.str();
  // Options block layout: magic(8) version(4) num_hashes(4)
  // buckets_per_table(8) slots_per_bucket(4) maxloop(4) seed(8)
  // deletion(4), then the eviction_policy u32 at byte 44.
  bytes[44] = static_cast<char>(200);
  std::stringstream bad(bytes);
  auto r = LoadSnapshot<McCuckooTable<uint64_t, uint64_t>>(bad);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("eviction_policy"), std::string::npos)
      << r.status().ToString();
}

TEST(SnapshotTest, BfsAndBubblePoliciesRoundTrip) {
  for (const EvictionPolicy p :
       {EvictionPolicy::kBfs, EvictionPolicy::kBubble}) {
    TableOptions o = SmallOptions(1);
    o.eviction_policy = p;
    McCuckooTable<uint64_t, uint64_t> original(o);
    for (uint64_t k : MakeUniqueKeys(400, 5, 0)) original.Insert(k, k + 3);
    std::stringstream stream;
    ASSERT_TRUE(SaveSnapshot(original, stream).ok());
    auto loaded = LoadSnapshot<McCuckooTable<uint64_t, uint64_t>>(stream);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(loaded.value().options().eviction_policy, p);
    EXPECT_EQ(loaded.value().TotalItems(), original.TotalItems());
  }
}

TEST(SnapshotTest, UnsupportedPolicyForTableIsStatusNotAbort) {
  // A BCHT snapshot whose eviction byte is patched to kBfs decodes fine but
  // must be refused by CuckooTable::Create (BFS needs slots_per_bucket = 1)
  // — as a Status, never an abort.
  TableOptions o = SmallOptions(3);
  CuckooTable<uint64_t, uint64_t> original(o);
  original.Insert(1, 2);
  std::stringstream stream;
  ASSERT_TRUE(SaveSnapshot(original, stream).ok());
  std::string bytes = stream.str();
  bytes[44] = static_cast<char>(EvictionPolicy::kBfs);
  std::stringstream bad(bytes);
  auto r = LoadSnapshot<CuckooTable<uint64_t, uint64_t>>(bad);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("BFS"), std::string::npos)
      << r.status().ToString();
}

TEST(ForEachItemTest, VisitsEveryKeyExactlyOnce) {
  McCuckooTable<uint64_t, uint64_t> t(SmallOptions(1));
  const auto keys = MakeUniqueKeys(800, 4, 0);
  for (uint64_t k : keys) t.Insert(k, k);
  std::unordered_map<uint64_t, int> visits;
  t.ForEachItem([&](uint64_t k, uint64_t v) {
    EXPECT_EQ(v, k);
    ++visits[k];
  });
  EXPECT_EQ(visits.size(), keys.size());
  for (const auto& [k, n] : visits) EXPECT_EQ(n, 1) << k;
}

}  // namespace
}  // namespace mccuckoo
