// Every read form of the two multi-copy tables agrees with Find.
//
// The tables expose one lookup through many entry points: Find, Contains,
// FindNoStats, FindBatch, FindBatchNoStats, TryFindOptimistic,
// TryFindBatchOptimistic and, on the single-slot table, the striped-lock
// FindStriped. They must all return the same hit and value for every key,
// and take the same stash-probe decision (the §III.E/F screen). The matrix
// covers both layouts, every deletion mode, both stash kinds, the stash
// screen and the lookup pruning rules on and off, and (blocked layout) both
// tag-probe kernels. Each table is filled until keys spill to the stash,
// then loses a third of its keys where the mode allows erasing, and is
// queried with present, erased and never-inserted keys.
//
// ProbeOrderTest pins the charged and the uncharged lookup to the same
// probe sequence: on identical tables and keys, Find and FindNoStats record
// identical lookup_probes and per-partition probe counts.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "src/core/blocked_mccuckoo_table.h"
#include "src/core/lock_stripes.h"
#include "src/core/mccuckoo_table.h"
#include "src/core/seqlock.h"
#include "src/obs/metrics.h"
#include "src/workload/keyset.h"

namespace mccuckoo {
namespace {

using McTable = McCuckooTable<uint64_t, uint64_t>;
using BlockedTable = BlockedMcCuckooTable<uint64_t, uint64_t>;

enum class Layout { kMcCuckoo, kBlocked };

struct ReadCase {
  Layout layout;
  DeletionMode deletion;
  StashKind stash;
  bool screen;
  bool pruning;
  ProbeKind probe;  // the blocked table's tag kernel; kScalar otherwise
};

std::string CaseName(const ReadCase& c) {
  std::string s = c.layout == Layout::kMcCuckoo ? "Mc_" : "Blocked_";
  switch (c.deletion) {
    case DeletionMode::kDisabled: s += "NoDelete_"; break;
    case DeletionMode::kTombstone: s += "Tombstone_"; break;
    case DeletionMode::kResetCounters: s += "Reset_"; break;
  }
  s += c.stash == StashKind::kOffchip ? "Offchip_" : "Chs_";
  s += c.screen ? "Screen_" : "NoScreen_";
  s += c.pruning ? "Prune" : "NoPrune";
  if (c.layout == Layout::kBlocked) {
    s += c.probe == ProbeKind::kSimd ? "_Simd" : "_Scalar";
  }
  return s;
}

std::vector<ReadCase> AllReadCases() {
  std::vector<ReadCase> out;
  std::vector<ProbeKind> blocked_probes = {ProbeKind::kScalar};
  if (kSimdProbeAvailable) blocked_probes.push_back(ProbeKind::kSimd);
  for (Layout layout : {Layout::kMcCuckoo, Layout::kBlocked}) {
    for (DeletionMode del :
         {DeletionMode::kDisabled, DeletionMode::kTombstone,
          DeletionMode::kResetCounters}) {
      for (StashKind stash : {StashKind::kOffchip, StashKind::kOnchipChs}) {
        for (bool screen : {true, false}) {
          for (bool pruning : {true, false}) {
            if (layout == Layout::kMcCuckoo) {
              out.push_back(
                  {layout, del, stash, screen, pruning, ProbeKind::kScalar});
              continue;
            }
            for (ProbeKind probe : blocked_probes) {
              out.push_back({layout, del, stash, screen, pruning, probe});
            }
          }
        }
      }
    }
  }
  return out;
}

TableOptions OptionsFor(const ReadCase& c) {
  TableOptions o;
  o.num_hashes = 3;
  o.slots_per_bucket = c.layout == Layout::kMcCuckoo ? 1 : 3;
  o.buckets_per_table = c.layout == Layout::kMcCuckoo ? 256 : 96;
  o.maxloop = 8;  // short chains: keys reach the stash well below full load
  o.seed = 0xA9EE;
  o.deletion_mode = c.deletion;
  o.stash_kind = c.stash;
  o.stash_screen_enabled = c.screen;
  o.lookup_pruning_enabled = c.pruning;
  o.probe = c.probe;
  return o;
}

uint64_t StashProbeMetrics(const MetricsSnapshot& m) {
  return m.stash_hits + m.stash_misses;
}

/// What the reference read (Find) reported for one key.
struct Reference {
  bool hit = false;
  uint64_t value = 0;
  bool probed_stash = false;
};

template <typename Table>
void CheckAllReadFormsAgree(const ReadCase& c) {
  Table t(OptionsFor(c));
  const uint64_t cap = t.capacity();
  const std::vector<uint64_t> keys = MakeUniqueKeys(2 * cap, 23, 0);
  std::vector<uint64_t> inserted;
  for (uint64_t k : keys) {
    if (t.stash_size() >= 24) break;
    t.Insert(k, k ^ 0x77);
    inserted.push_back(k);
  }
  ASSERT_GE(t.stash_size(), 24u) << "the fill never spilled to the stash";
  if (c.deletion != DeletionMode::kDisabled) {
    size_t erased = 0;
    for (size_t i = 0; i < inserted.size(); i += 3) {
      erased += t.Erase(inserted[i]) ? 1 : 0;
    }
    ASSERT_GT(erased, 0u);
  }
  ASSERT_TRUE(t.CheckInvariants().ok());

  std::vector<uint64_t> queries = inserted;
  for (uint64_t k : MakeUniqueKeys(cap / 2, 23, 1)) queries.push_back(k);

  // Reference: Find, its stash-probe decision read off AccessStats.
  std::vector<Reference> ref(queries.size());
  uint64_t ref_stash_probes = 0;
  size_t ref_hits = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    const uint64_t before = t.stats().stash_probes;
    ref[i].hit = t.Find(queries[i], &ref[i].value);
    ref[i].probed_stash = t.stats().stash_probes != before;
    ref_stash_probes += ref[i].probed_stash ? 1 : 0;
    ref_hits += ref[i].hit ? 1 : 0;
    EXPECT_EQ(t.Contains(queries[i]), ref[i].hit);
  }
  ASSERT_GT(ref_hits, 0u);
  ASSERT_LT(ref_hits, queries.size());
  if (c.stash == StashKind::kOnchipChs || !c.screen) {
    ASSERT_GT(ref_stash_probes, 0u);
  }

  // FindNoStats and FindStriped: their decision shows in the stash-probe
  // metrics (compiled out under -DMCCUCKOO_NO_METRICS).
  auto check_metered = [&](const char* form, auto&& read) {
    for (size_t i = 0; i < queries.size(); ++i) {
      const uint64_t before = StashProbeMetrics(t.SnapshotMetrics());
      uint64_t v = 0;
      const bool hit = read(queries[i], &v);
      ASSERT_EQ(hit, ref[i].hit) << form << " key #" << i;
      if (hit) {
        ASSERT_EQ(v, ref[i].value) << form << " key #" << i;
      }
      if constexpr (kMetricsEnabled) {
        const bool probed = StashProbeMetrics(t.SnapshotMetrics()) != before;
        ASSERT_EQ(probed, ref[i].probed_stash) << form << " key #" << i;
      }
    }
  };
  check_metered("FindNoStats", [&](uint64_t k, uint64_t* v) {
    return t.FindNoStats(k, v);
  });

  // FindBatch: per key through one-key batches (decision from
  // AccessStats), then the whole query set through full tiles.
  for (size_t i = 0; i < queries.size(); ++i) {
    const uint64_t before = t.stats().stash_probes;
    uint64_t v = 0;
    bool found = false;
    EXPECT_EQ(t.FindBatch(std::span<const uint64_t>(&queries[i], 1), &v,
                          &found),
              ref[i].hit ? 1u : 0u);
    ASSERT_EQ(found, ref[i].hit) << "FindBatch key #" << i;
    if (found) {
      ASSERT_EQ(v, ref[i].value) << "FindBatch key #" << i;
    }
    ASSERT_EQ(t.stats().stash_probes != before, ref[i].probed_stash)
        << "FindBatch key #" << i;
  }
  auto check_batch = [&](const char* form, auto&& read, bool charged) {
    std::vector<uint64_t> out(queries.size(), 0);
    std::unique_ptr<bool[]> found(new bool[queries.size()]);
    const uint64_t stats_before = t.stats().stash_probes;
    const uint64_t metrics_before = StashProbeMetrics(t.SnapshotMetrics());
    EXPECT_EQ(read(std::span<const uint64_t>(queries), out.data(),
                   found.get()),
              ref_hits)
        << form;
    for (size_t i = 0; i < queries.size(); ++i) {
      ASSERT_EQ(found[i], ref[i].hit) << form << " key #" << i;
      if (found[i]) {
        ASSERT_EQ(out[i], ref[i].value) << form << " key #" << i;
      }
    }
    if (charged) {
      EXPECT_EQ(t.stats().stash_probes - stats_before, ref_stash_probes)
          << form;
    }
    if constexpr (kMetricsEnabled) {
      EXPECT_EQ(StashProbeMetrics(t.SnapshotMetrics()) - metrics_before,
                ref_stash_probes)
          << form;
    }
  };
  check_batch("FindBatch",
              [&](std::span<const uint64_t> k, uint64_t* o, bool* f) {
                return t.FindBatch(k, o, f);
              },
              /*charged=*/true);
  check_batch("FindBatchNoStats",
              [&](std::span<const uint64_t> k, uint64_t* o, bool* f) {
                return t.FindBatchNoStats(k, o, f);
              },
              /*charged=*/false);

  // The lock-free forms: a key whose lookup needs the stash reports
  // kContended (the caller then retries under a lock); every other key
  // resolves exactly as Find did. Nothing writes concurrently here, so
  // kContended appears for exactly those keys.
  SeqlockArray seq(t.seqlock_domain());
  t.AttachSeqlock(&seq);
  for (size_t i = 0; i < queries.size(); ++i) {
    uint64_t v = 0;
    const OptimisticResult r = t.TryFindOptimistic(queries[i], &v);
    if (ref[i].probed_stash) {
      ASSERT_EQ(r, OptimisticResult::kContended)
          << "TryFindOptimistic key #" << i;
      continue;
    }
    ASSERT_EQ(r, ref[i].hit ? OptimisticResult::kHit : OptimisticResult::kMiss)
        << "TryFindOptimistic key #" << i;
    if (ref[i].hit) {
      ASSERT_EQ(v, ref[i].value);
    }
  }
  constexpr size_t kTile = Table::kBatchTile;
  for (size_t base = 0; base < queries.size(); base += kTile) {
    const size_t n = std::min(kTile, queries.size() - base);
    uint64_t out[kTile] = {};
    bool found[kTile] = {};
    bool needs_stash = false;
    size_t hits = 0;
    for (size_t i = base; i < base + n; ++i) {
      needs_stash = needs_stash || ref[i].probed_stash;
      hits += ref[i].hit ? 1 : 0;
    }
    const int64_t r = t.TryFindBatchOptimistic(
        std::span<const uint64_t>(&queries[base], n), out, found);
    if (needs_stash) {
      ASSERT_EQ(r, -1) << "TryFindBatchOptimistic tile at #" << base;
      continue;
    }
    ASSERT_EQ(r, static_cast<int64_t>(hits))
        << "TryFindBatchOptimistic tile at #" << base;
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(found[i], ref[base + i].hit);
      if (found[i]) {
        ASSERT_EQ(out[i], ref[base + i].value);
      }
    }
  }

  if constexpr (std::is_same_v<Table, McTable>) {
    check_metered("FindStriped", [&](uint64_t k, uint64_t* v) {
      return t.FindStriped(k, v);
    });
  }
  t.AttachSeqlock(nullptr);
  EXPECT_TRUE(t.CheckInvariants().ok());
}

class ReadPathAgreementTest : public ::testing::TestWithParam<ReadCase> {};

TEST_P(ReadPathAgreementTest, EveryReadFormAgreesWithFind) {
  const ReadCase& c = GetParam();
  if (c.layout == Layout::kMcCuckoo) {
    CheckAllReadFormsAgree<McTable>(c);
  } else {
    CheckAllReadFormsAgree<BlockedTable>(c);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, ReadPathAgreementTest, ::testing::ValuesIn(AllReadCases()),
    [](const ::testing::TestParamInfo<ReadCase>& info) {
      return CaseName(info.param);
    });

// --- Charged and uncharged lookups probe in the same order -----------------

struct OrderCase {
  Layout layout;
  bool pruning;
};

template <typename Table>
void CheckProbeOrder(const OrderCase& c) {
  TableOptions o;
  o.num_hashes = 3;
  o.slots_per_bucket = c.layout == Layout::kMcCuckoo ? 1 : 3;
  o.buckets_per_table = 4096;
  o.lookup_pruning_enabled = c.pruning;
  Table t(o);
  const size_t n = static_cast<size_t>(t.capacity() * 7 / 10);
  const std::vector<uint64_t> keys = MakeUniqueKeys(n, 31, 0);
  for (uint64_t k : keys) t.Insert(k, k + 1);
  std::vector<uint64_t> queries = keys;
  for (uint64_t k : MakeUniqueKeys(n / 2, 31, 1)) queries.push_back(k);

  t.ResetMetrics();
  std::vector<bool> charged_hits;
  for (uint64_t k : queries) charged_hits.push_back(t.Find(k));
  const MetricsSnapshot charged = t.SnapshotMetrics();
  t.ResetMetrics();
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_EQ(t.FindNoStats(queries[i]), charged_hits[i]) << "key #" << i;
  }
  const MetricsSnapshot uncharged = t.SnapshotMetrics();

  EXPECT_EQ(uncharged.lookups, charged.lookups);
  EXPECT_EQ(uncharged.lookup_probes, charged.lookup_probes)
      << "lookup_probes sum: Find " << charged.lookup_probes.sum
      << ", FindNoStats " << uncharged.lookup_probes.sum;
  EXPECT_EQ(uncharged.partition_probes, charged.partition_probes);
  EXPECT_EQ(uncharged.partition_hits, charged.partition_hits);
  if constexpr (kMetricsEnabled) {
    EXPECT_EQ(charged.lookups, queries.size());
  }
}

class ProbeOrderTest : public ::testing::TestWithParam<OrderCase> {};

TEST_P(ProbeOrderTest, FindAndFindNoStatsRecordTheSameProbes) {
  if (GetParam().layout == Layout::kMcCuckoo) {
    CheckProbeOrder<McTable>(GetParam());
  } else {
    CheckProbeOrder<BlockedTable>(GetParam());
  }
}

INSTANTIATE_TEST_SUITE_P(
    BothLayouts, ProbeOrderTest,
    ::testing::Values(OrderCase{Layout::kMcCuckoo, true},
                      OrderCase{Layout::kMcCuckoo, false},
                      OrderCase{Layout::kBlocked, true},
                      OrderCase{Layout::kBlocked, false}),
    [](const ::testing::TestParamInfo<OrderCase>& info) {
      return std::string(info.param.layout == Layout::kMcCuckoo ? "Mc"
                                                                : "Blocked") +
             (info.param.pruning ? "_Prune" : "_NoPrune");
    });

}  // namespace
}  // namespace mccuckoo
