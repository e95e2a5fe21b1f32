// Exact behaviour pins for the two paper baselines (standard d-ary cuckoo
// at l = 1, BCHT at l > 1) over the configurations the golden bench files
// leave out: l in {1, 2, 3, 4}; random-walk and MinCounter eviction,
// plus BFS at l = 1; off-chip and on-chip CHS stashes. Each case
// fills a small d = 3 table past its first insertion failure, runs one
// FindBatch over present and absent keys and an Erase sweep that reaches
// stashed keys, then compares every counter the run produces against
// values recorded once. Any change to the walk RNG stream, the scan order,
// the victim choice, the stash charging or the slot layout shows up here.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "src/baseline/cuckoo_table.h"
#include "src/obs/metrics.h"
#include "src/workload/keyset.h"

namespace mccuckoo {
namespace {

struct Case {
  uint32_t slots_per_bucket;
  EvictionPolicy policy;
  StashKind stash;
};

/// Everything one case run is compared on.
struct Fingerprint {
  uint64_t inserted;  // keys inserted until first failure, plus the overfill
  AccessStats fill, find, erase;  // per phase, not cumulative
  uint64_t first_collision_items, first_failure_items, forced_rehash_events;
  uint64_t stash_after_fill, stash_after_erase;
  uint64_t find_hits, erase_hits;
  // Policy chains (colliding inserts) and stash-spill spans; 0 under
  // -DMCCUCKOO_NO_METRICS.
  uint64_t trace_events, trace_stashed;
  uint64_t items_fnv;  // ForEachItem (key, value) stream: slot order, then
                       // the stash in ascending key order

  bool operator==(const Fingerprint&) const = default;
};

std::string StatsInit(const AccessStats& s) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "{%llu, %llu, %llu, %llu, %llu, %llu}",
                static_cast<unsigned long long>(s.offchip_reads),
                static_cast<unsigned long long>(s.offchip_writes),
                static_cast<unsigned long long>(s.onchip_reads),
                static_cast<unsigned long long>(s.onchip_writes),
                static_cast<unsigned long long>(s.kickouts),
                static_cast<unsigned long long>(s.stash_probes));
  return buf;
}

/// The fingerprint as the initializer that would expect it, so a
/// deliberate behaviour change can be pasted back into kExpected.
std::string Initializer(const Fingerprint& f) {
  std::string out = "{";
  out += std::to_string(f.inserted) + ", " + StatsInit(f.fill) + ", " +
         StatsInit(f.find) + ", " + StatsInit(f.erase);
  for (uint64_t v : {f.first_collision_items, f.first_failure_items,
                     f.forced_rehash_events, f.stash_after_fill,
                     f.stash_after_erase, f.find_hits, f.erase_hits,
                     f.trace_events, f.trace_stashed}) {
    out += ", " + std::to_string(v);
  }
  char fnv[32];
  std::snprintf(fnv, sizeof(fnv), ", 0x%016llxull}",
                static_cast<unsigned long long>(f.items_fnv));
  return out + fnv;
}

void FnvMix(uint64_t* h, uint64_t word) {
  for (int i = 0; i < 8; ++i) {
    *h ^= (word >> (8 * i)) & 0xFF;
    *h *= 0x100000001B3ull;
  }
}

/// The whole scenario for one case.
template <typename Table>
Fingerprint RunCase(const Case& c) {
  TableOptions o;
  o.num_hashes = 3;
  o.buckets_per_table = 240 / c.slots_per_bucket;  // 720 slots for every l
  o.slots_per_bucket = c.slots_per_bucket;
  o.maxloop = 40;
  o.seed = 0xF1A9E4;
  o.eviction_policy = c.policy;
  o.stash_kind = c.stash;
  Table t(o);
  Fingerprint f{};

  // Fill until the first failure, then overfill by 10% of capacity so the
  // stash holds dozens of items (and the on-chip stash overruns).
  const std::vector<uint64_t> keys = MakeUniqueKeys(t.capacity() * 2, 7, 0);
  size_t n = 0;
  while (t.first_failure_items() == 0) {
    t.Insert(keys[n], keys[n] ^ 0x5A5A);
    ++n;
  }
  for (const size_t end = n + t.capacity() / 10; n < end; ++n) {
    t.Insert(keys[n], keys[n] ^ 0x5A5A);
  }
  f.inserted = n;
  f.fill = t.stats();
  f.stash_after_fill = t.stash_size();

  // One batch: every inserted key, then as many never-inserted keys.
  std::vector<uint64_t> probe(keys.begin(), keys.begin() + n);
  for (uint64_t k : MakeUniqueKeys(n, 7, 1)) probe.push_back(k);
  std::vector<uint64_t> out(probe.size());
  auto found = std::make_unique<bool[]>(probe.size());
  AccessStats before = t.stats();
  f.find_hits = t.FindBatch(probe, out.data(), found.get());
  f.find = t.stats() - before;

  // Erase every other inserted key from the back (the stash holds the
  // most recent overflow), and a few absent ones.
  before = t.stats();
  for (size_t i = n; i-- > 0;) {
    if (i % 2 == 1) f.erase_hits += t.Erase(keys[i]) ? 1 : 0;
  }
  for (size_t i = n; i < n + 16; ++i) {
    f.erase_hits += t.Erase(probe[i]) ? 1 : 0;
  }
  f.erase = t.stats() - before;
  f.stash_after_erase = t.stash_size();

  f.first_collision_items = t.first_collision_items();
  f.first_failure_items = t.first_failure_items();
  f.forced_rehash_events = t.forced_rehash_events();
  for (const HistogramSnapshot& h : t.SnapshotMetrics().policy_chain_len) {
    f.trace_events += h.count;
  }
  f.trace_stashed = t.spans().total(SpanKind::kStashSpill);
  f.items_fnv = 0xCBF29CE484222325ull;
  t.ForEachItem([&](uint64_t k, uint64_t v) {
    FnvMix(&f.items_fnv, k);
    FnvMix(&f.items_fnv, v);
  });
  EXPECT_TRUE(t.ValidateInvariants().ok());
  return f;
}

constexpr EvictionPolicy kWalk = EvictionPolicy::kRandomWalk;
constexpr EvictionPolicy kMin = EvictionPolicy::kMinCounter;
constexpr EvictionPolicy kBfs = EvictionPolicy::kBfs;
constexpr StashKind kOff = StashKind::kOffchip;
constexpr StashKind kChs = StashKind::kOnchipChs;

struct Expected {
  Case c;
  Fingerprint f;
};

// One row per case, in the order the test ids list them.
const Expected kExpected[] = {
    {{1, kWalk, kOff},
     {717,
      {5317, 2678, 0, 0, 1961, 0},
      {4362, 0, 0, 0, 0, 750},
      {783, 358, 0, 0, 0, 29},
      343, 645, 0, 33, 20, 717, 358, 146, 33, 0xde6859554e3de38dull}},
    {{1, kWalk, kChs},
     {717,
      {5317, 2645, 0, 33, 1961, 0},
      {3612, 0, 750, 0, 0, 750},
      {754, 345, 29, 13, 0, 29},
      343, 645, 29, 33, 20, 717, 358, 146, 33, 0xde6859554e3de38dull}},
    {{1, kMin, kOff},
     {746,
      {6861, 3455, 5585, 2709, 2709, 0},
      {4580, 0, 0, 0, 0, 797},
      {854, 373, 0, 0, 0, 44},
      343, 674, 0, 51, 23, 746, 373, 167, 51, 0x922a7417aa5e5fedull}},
    {{1, kMin, kChs},
     {746,
      {6861, 3404, 5585, 2760, 2709, 0},
      {3783, 0, 797, 0, 0, 797},
      {810, 345, 44, 28, 0, 44},
      343, 674, 47, 51, 23, 746, 373, 167, 51, 0x922a7417aa5e5fedull}},
    {{1, kBfs, kOff},
     {718,
      {3939, 896, 0, 0, 178, 0},
      {4370, 0, 0, 0, 0, 752},
      {814, 359, 0, 0, 0, 36},
      343, 646, 0, 34, 14, 718, 359, 143, 34, 0x575dc642d209377dull}},
    {{1, kBfs, kChs},
     {718,
      {3939, 862, 0, 34, 178, 0},
      {3618, 0, 752, 0, 0, 752},
      {778, 339, 36, 20, 0, 36},
      343, 646, 30, 34, 14, 718, 359, 143, 34, 0x575dc642d209377dull}},
    {{2, kWalk, kOff},
     {765,
      {6435, 3240, 0, 0, 2475, 0},
      {4683, 0, 0, 0, 0, 811},
      {891, 382, 0, 0, 0, 43},
      406, 693, 0, 46, 19, 765, 382, 139, 46, 0xd3651b72f6903535ull}},
    {{2, kWalk, kChs},
     {765,
      {6435, 3194, 0, 46, 2475, 0},
      {3872, 0, 811, 0, 0, 811},
      {848, 355, 43, 27, 0, 43},
      406, 693, 42, 46, 19, 765, 382, 139, 46, 0xd3651b72f6903535ull}},
    {{2, kMin, kOff},
     {777,
      {7167, 3612, 5822, 2835, 2835, 0},
      {4779, 0, 0, 0, 0, 835},
      {880, 388, 0, 0, 0, 35},
      406, 705, 0, 58, 39, 777, 388, 152, 58, 0xdf5d972495c48de5ull}},
    {{2, kMin, kChs},
     {777,
      {7167, 3554, 5822, 2893, 2835, 0},
      {3944, 0, 835, 0, 0, 835},
      {845, 369, 35, 19, 0, 35},
      406, 705, 54, 58, 39, 777, 388, 152, 58, 0xdf5d972495c48de5ull}},
    {{3, kWalk, kOff},
     {774,
      {6666, 3360, 0, 0, 2586, 0},
      {4752, 0, 0, 0, 0, 828},
      {887, 387, 0, 0, 0, 40},
      514, 702, 0, 54, 30, 774, 387, 135, 54, 0x49537692b111fba5ull}},
    {{3, kWalk, kChs},
     {774,
      {6666, 3306, 0, 54, 2586, 0},
      {3924, 0, 828, 0, 0, 828},
      {847, 363, 40, 24, 0, 40},
      514, 702, 50, 54, 30, 774, 387, 135, 54, 0x49537692b111fba5ull}},
    {{3, kMin, kOff},
     {786,
      {7748, 3907, 6394, 3121, 3121, 0},
      {4848, 0, 0, 0, 0, 852},
      {894, 393, 0, 0, 0, 46},
      514, 714, 0, 66, 36, 786, 393, 152, 66, 0x9a37e3f6195dc465ull}},
    {{3, kMin, kChs},
     {786,
      {7748, 3841, 6394, 3187, 3121, 0},
      {3996, 0, 852, 0, 0, 852},
      {848, 363, 46, 30, 0, 46},
      514, 714, 62, 66, 36, 786, 393, 152, 66, 0x9a37e3f6195dc465ull}},
    {{4, kWalk, kOff},
     {777,
      {6763, 3410, 0, 0, 2633, 0},
      {4776, 0, 0, 0, 0, 834},
      {913, 388, 0, 0, 0, 42},
      595, 705, 0, 57, 31, 777, 388, 122, 57, 0x6ad4042b3baa73e5ull}},
    {{4, kWalk, kChs},
     {777,
      {6763, 3353, 0, 57, 2633, 0},
      {3942, 0, 834, 0, 0, 834},
      {871, 362, 42, 26, 0, 42},
      595, 705, 53, 57, 31, 777, 388, 122, 57, 0x6ad4042b3baa73e5ull}},
    {{4, kMin, kOff},
     {772,
      {6264, 3158, 4886, 2386, 2386, 0},
      {4736, 0, 0, 0, 0, 824},
      {864, 386, 0, 0, 0, 38},
      595, 700, 0, 52, 30, 772, 386, 114, 52, 0xca5a30c5886da1d9ull}},
    {{4, kMin, kChs},
     {772,
      {6264, 3106, 4886, 2438, 2386, 0},
      {3912, 0, 824, 0, 0, 824},
      {826, 364, 38, 22, 0, 38},
      595, 700, 48, 52, 30, 772, 386, 114, 52, 0xca5a30c5886da1d9ull}},
};

std::string CaseName(const Case& c) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "l%u_%s_%s", c.slots_per_bucket,
                EvictionPolicyToString(c.policy),
                c.stash == kOff ? "offchip" : "onchip_chs");
  return buf;
}

void PrintTo(const Expected& e, std::ostream* os) { *os << CaseName(e.c); }

class BaselineFingerprintTest : public ::testing::TestWithParam<Expected> {};

TEST_P(BaselineFingerprintTest, MatchesRecordedRun) {
  const Case& c = GetParam().c;
  Fingerprint want = GetParam().f;
  const Fingerprint got = RunCase<CuckooTable<uint64_t, uint64_t>>(c);
  if constexpr (!kMetricsEnabled) {
    want.trace_events = want.trace_stashed = 0;
  }
  EXPECT_GT(got.stash_after_fill, 0u);
  EXPECT_LT(got.stash_after_erase, got.stash_after_fill);
  EXPECT_TRUE(got == want) << CaseName(c) << "\n  want " << Initializer(want)
                           << "\n  got  " << Initializer(got);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, BaselineFingerprintTest, ::testing::ValuesIn(kExpected),
    [](const ::testing::TestParamInfo<Expected>& info) {
      return CaseName(info.param.c);
    });

}  // namespace
}  // namespace mccuckoo
