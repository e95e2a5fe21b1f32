// Tag-probe kernel and layout tests.
//
// Three layers of assurance for the cache-conscious lookup path:
//  1. Kernel equivalence — the SIMD tag-match kernels (SSE2/AVX2, when
//     compiled in) agree bit-for-bit with the portable SWAR reference on
//     arbitrary header contents.
//  2. Differential — a blocked table pinned to the scalar kernel and one
//     pinned to the SIMD kernel give identical Find/Contains/batch results
//     AND identical AccessStats on the same operation sequence (the probe
//     kind is a physical detail; the paper's access model must not see it).
//  3. Tag-collision behavior — fingerprints are a screen, never an oracle:
//     colliding tags must fall through to the key compare, deletions must
//     not leave stale tags findable, and stash fallback must still work.
//
// The (d, l) sweep at the bottom exists to run every header configuration
// under the ASan/UBSan and portable-probe CI legs.

#include <array>
#include <cstdint>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/core/blocked_mccuckoo_table.h"
#include "src/core/bucket_header.h"
#include "src/core/mccuckoo_table.h"
#include "src/sim/schemes.h"
#include "src/workload/keyset.h"

namespace mccuckoo {
namespace {

using Table = BlockedMcCuckooTable<uint64_t, uint64_t>;
using FlatTable = McCuckooTable<uint64_t, uint64_t>;

TableOptions BlockedOptions(ProbeKind probe,
                            uint32_t d = 3, uint32_t l = 3,
                            uint64_t buckets_per_table = 256) {
  TableOptions o;
  o.num_hashes = d;
  o.slots_per_bucket = l;
  o.buckets_per_table = buckets_per_table;
  o.maxloop = 200;
  o.seed = 42;
  o.deletion_mode = DeletionMode::kTombstone;
  o.probe = probe;
  return o;
}

// --- 1. Kernel equivalence -------------------------------------------------

BucketHeader RandomHeader(Xoshiro256& rng) {
  BucketHeader h;
  uint64_t words[2] = {rng.Next(), rng.Next()};
  static_assert(sizeof(h) == sizeof(words));
  std::memcpy(&h, words, sizeof(h));
  return h;
}

TEST(TagProbeKernels, SimdMatchesScalarOnRandomHeaders) {
  if (!kSimdProbeAvailable) {
    GTEST_SKIP() << "SIMD probe kernel not compiled in";
  }
  Xoshiro256 rng(0xC0FFEE);
  alignas(16) std::array<BucketHeader, kMaxHashes> headers;
  std::array<const BucketHeader*, kMaxHashes> ptrs;
  for (int iter = 0; iter < 20'000; ++iter) {
    const uint8_t tag = static_cast<uint8_t>(rng.Next());
    for (uint32_t t = 0; t < kMaxHashes; ++t) {
      headers[t] = RandomHeader(rng);
      ptrs[t] = &headers[t];
    }
    for (uint32_t d = 1; d <= kMaxHashes; ++d) {
      uint32_t simd[kMaxHashes] = {};
      SimdTagMatchMasks(ptrs.data(), d, tag, simd);
      for (uint32_t t = 0; t < d; ++t) {
        ASSERT_EQ(simd[t], TagMatchMaskScalar(headers[t], tag))
            << "iter " << iter << " d " << d << " t " << t;
      }
    }
  }
}

TEST(TagProbeKernels, MatchRequiresNonZeroCounter) {
  BucketHeader h{};  // all tags 0, all counters 0
  // Tag 0 matches every tag byte, but every slot is empty: no match bits.
  EXPECT_EQ(TagMatchMaskScalar(h, 0), 0u);
  h.meta[3] = 2;  // slot 3 occupied (counter 2)
  EXPECT_EQ(TagMatchMaskScalar(h, 0), 1u << 3);
  h.tag[3] = 0xAB;
  EXPECT_EQ(TagMatchMaskScalar(h, 0), 0u);
  EXPECT_EQ(TagMatchMaskScalar(h, 0xAB), 1u << 3);
}

TEST(TagProbeKernels, HeaderLayoutIsCacheLineFriendly) {
  // The static_asserts in bucket_header.h enforce these at compile time;
  // restated here so a layout regression fails loudly in a test run too.
  EXPECT_EQ(sizeof(BucketHeader), 16u);
  EXPECT_EQ(alignof(BucketHeader), 16u);
  EXPECT_EQ(64u % sizeof(BucketHeader), 0u);  // headers never straddle lines
}

TEST(TagProbeKernels, ProbeKindResolution) {
  EXPECT_STREQ(ProbeKindToString(ProbeKind::kScalar), "scalar");
  EXPECT_STREQ(ProbeKindToString(ProbeKind::kSimd), "simd");
  EXPECT_EQ(ResolveProbeKind(ProbeKind::kScalar), ProbeKind::kScalar);
  EXPECT_EQ(ResolveProbeKind(ProbeKind::kAuto),
            kSimdProbeAvailable ? ProbeKind::kSimd : ProbeKind::kScalar);
  if (!kSimdProbeAvailable) {
    TableOptions o = BlockedOptions(ProbeKind::kSimd);
    EXPECT_FALSE(o.Validate().ok());
  }
}

// --- 2. Scalar-vs-SIMD differential ---------------------------------------

TEST(ProbeDifferential, ScalarAndSimdTablesAgreeExactly) {
  if (!kSimdProbeAvailable) {
    GTEST_SKIP() << "SIMD probe kernel not compiled in";
  }
  Table scalar(BlockedOptions(ProbeKind::kScalar));
  Table simd(BlockedOptions(ProbeKind::kSimd));
  ASSERT_STREQ(scalar.probe_variant(), "scalar");
  ASSERT_STREQ(simd.probe_variant(), "simd");

  const auto keys = MakeUniqueKeys(scalar.capacity() / 2, 99, 0);
  const auto absent = MakeUniqueKeys(1'000, 99, 5);
  for (uint64_t k : keys) {
    const InsertResult a = scalar.Insert(k, k ^ 0x5A5A);
    const InsertResult b = simd.Insert(k, k ^ 0x5A5A);
    ASSERT_EQ(a, b);
  }
  // Erase a third: the probe kernels must agree on tombstoned slots too.
  for (size_t i = 0; i < keys.size(); i += 3) {
    ASSERT_EQ(scalar.Erase(keys[i]), simd.Erase(keys[i]));
  }
  scalar.ResetStats();
  simd.ResetStats();

  uint64_t va = 0, vb = 0;
  for (size_t i = 0; i < keys.size(); ++i) {
    const bool ha = scalar.Find(keys[i], &va);
    const bool hb = simd.Find(keys[i], &vb);
    ASSERT_EQ(ha, hb) << "key " << keys[i];
    if (ha) {
      ASSERT_EQ(va, vb);
    }
    ASSERT_EQ(ha, i % 3 != 0);
  }
  for (uint64_t k : absent) {
    ASSERT_EQ(scalar.Contains(k), simd.Contains(k));
  }
  // The modeled access counts must be bit-identical: the kernel choice is
  // physical layout only, invisible to the paper's memory model.
  EXPECT_EQ(scalar.stats(), simd.stats());

  // Batched paths too (same workload, same invariant).
  scalar.ResetStats();
  simd.ResetStats();
  std::vector<uint64_t> out_a(keys.size()), out_b(keys.size());
  std::vector<uint8_t> found_a(keys.size()), found_b(keys.size());
  ASSERT_EQ(scalar.FindBatch(keys, out_a.data(),
                             reinterpret_cast<bool*>(found_a.data())),
            simd.FindBatch(keys, out_b.data(),
                           reinterpret_cast<bool*>(found_b.data())));
  EXPECT_EQ(found_a, found_b);
  EXPECT_EQ(out_a, out_b);
  EXPECT_EQ(scalar.stats(), simd.stats());
}

// --- 3. Tag-collision behavior --------------------------------------------

TEST(TagCollisions, CollidingTagFallsThroughToKeyCompare) {
  FlatTable table([] {
    TableOptions o;
    o.num_hashes = 3;
    o.buckets_per_table = 512;
    o.maxloop = 200;
    o.seed = 7;
    return o;
  }());
  // With 4-bit fingerprints, any few hundred keys contain many tag
  // collisions; every absent key below whose tag collides with a resident
  // key's must still miss via the key compare.
  const auto keys = MakeUniqueKeys(600, 3, 0);
  const auto absent = MakeUniqueKeys(600, 3, 9);
  for (uint64_t k : keys) table.Insert(k, k);
  for (uint64_t k : keys) {
    uint64_t v = 0;
    ASSERT_TRUE(table.Find(k, &v));
    EXPECT_EQ(v, k);
  }
  for (uint64_t k : absent) EXPECT_FALSE(table.Contains(k));
  EXPECT_TRUE(table.ValidateInvariants().ok());
}

TEST(TagCollisions, DeleteThenMissDespiteStaleTag) {
  Table table(BlockedOptions(ProbeKind::kAuto));
  const auto keys = MakeUniqueKeys(500, 11, 0);
  for (uint64_t k : keys) table.Insert(k, k);
  for (uint64_t k : keys) ASSERT_TRUE(table.Erase(k));
  // Counters are zero; the stale tag bytes must not resurrect the keys.
  for (uint64_t k : keys) EXPECT_FALSE(table.Contains(k));
  EXPECT_EQ(table.size(), 0u);
  EXPECT_TRUE(table.ValidateInvariants().ok());
}

TEST(TagCollisions, StashResidentKeysFoundPastTagScreen) {
  // A deliberately tiny, over-committed table forces keys into the stash;
  // the tag screen only covers main-table slots, so stash hits must
  // survive any screening decision.
  TableOptions o = BlockedOptions(ProbeKind::kAuto, 3, 2, 8);
  o.maxloop = 4;
  Table table(o);
  const auto keys = MakeUniqueKeys(static_cast<uint64_t>(table.capacity()),
                                   17, 0);
  std::vector<uint64_t> inserted;
  for (uint64_t k : keys) {
    table.Insert(k, k + 1);
    inserted.push_back(k);
  }
  ASSERT_GT(table.stash_size(), 0u) << "workload failed to populate stash";
  for (uint64_t k : inserted) {
    uint64_t v = 0;
    ASSERT_TRUE(table.Find(k, &v)) << "key " << k;
    EXPECT_EQ(v, k + 1);
  }
}

// --- Scheme-level probe plumbing ------------------------------------------

TEST(ProbePlumbing, SchemeReportsItsKernel) {
  SchemeConfig c;
  c.total_slots = 9 * 512;
  c.probe = ProbeKind::kScalar;
  auto scalar = MakeScheme(SchemeKind::kBMcCuckoo, c);
  EXPECT_STREQ(scalar->probe_variant(), "scalar");
  c.probe = ProbeKind::kAuto;
  auto auto_table = MakeScheme(SchemeKind::kBMcCuckoo, c);
  EXPECT_STREQ(auto_table->probe_variant(),
               kSimdProbeAvailable ? "simd" : "scalar");
  auto baseline = MakeScheme(SchemeKind::kBcht, c);
  EXPECT_STREQ(baseline->probe_variant(), "none");
  // The unblocked multi-copy table uses a header-screened scalar probe.
  auto flat = MakeScheme(SchemeKind::kMcCuckoo, c);
  EXPECT_STREQ(flat->probe_variant(), "scalar");
}

// --- (d, l) configuration sweep (sanitizer fodder) ------------------------

TEST(ProbeConfigSweep, AllHeaderConfigsInsertFindErase) {
  for (uint32_t d = 2; d <= kMaxHashes; ++d) {
    for (uint32_t l : {2u, 3u, 4u, 8u}) {
      SCOPED_TRACE(testing::Message() << "d=" << d << " l=" << l);
      Table table(BlockedOptions(ProbeKind::kAuto, d, l, 64));
      const auto keys =
          MakeUniqueKeys(table.capacity() / 2, 1000 + d * 10 + l, 0);
      for (uint64_t k : keys) table.Insert(k, ~k);
      uint64_t v = 0;
      for (uint64_t k : keys) {
        ASSERT_TRUE(table.Find(k, &v));
        ASSERT_EQ(v, ~k);
      }
      for (size_t i = 0; i < keys.size(); i += 2) {
        ASSERT_TRUE(table.Erase(keys[i]));
      }
      for (size_t i = 0; i < keys.size(); ++i) {
        ASSERT_EQ(table.Contains(keys[i]), i % 2 != 0);
      }
      ASSERT_TRUE(table.ValidateInvariants().ok());
    }
  }
}

}  // namespace
}  // namespace mccuckoo
