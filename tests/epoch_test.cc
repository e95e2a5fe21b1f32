// Tests of the item store's epoch-based reclaimer (src/server/epoch.h).

#include "src/server/epoch.h"

#include <gtest/gtest.h>

#include <cstdint>

namespace mccuckoo {
namespace server {

/// Runs TryReclaim's two steps one at a time, so a test can place other
/// operations between the guard scan and the free.
struct EpochReclaimerTestPeer {
  static uint64_t Scan(const EpochReclaimer& r) { return r.ReclaimBound(); }
  static size_t Free(EpochReclaimer& r, uint64_t bound) {
    return r.FreeRetiredBelow(bound);
  }
};

namespace {

using Peer = EpochReclaimerTestPeer;

void CountFree(void* p) { ++*static_cast<int*>(p); }

TEST(EpochReclaimerTest, FreesWhenNoGuardIsActive) {
  EpochReclaimer r;
  int frees = 0;
  r.Retire(&frees, CountFree);
  r.Retire(&frees, CountFree);
  EXPECT_EQ(r.retired_pending(), 2u);
  EXPECT_EQ(r.TryReclaim(), 2u);
  EXPECT_EQ(frees, 2);
  EXPECT_EQ(r.retired_pending(), 0u);
}

TEST(EpochReclaimerTest, GuardEnteredBeforeRetireBlocksTheFree) {
  EpochReclaimer r;
  int frees = 0;
  {
    EpochReclaimer::Guard g(r);
    r.Retire(&frees, CountFree);
    EXPECT_EQ(r.TryReclaim(), 0u);
    EXPECT_EQ(frees, 0);
  }
  EXPECT_EQ(r.TryReclaim(), 1u);
  EXPECT_EQ(frees, 1);
}

TEST(EpochReclaimerTest, ItemRetiredAfterTheScanOutlivesItsReader) {
  // The reclaimer scans the guard slots without a lock, then frees. A
  // reader that enters between the two steps can obtain an item that a
  // writer removes and retires right after; the free must not take that
  // item, although the scan saw no active guard.
  EpochReclaimer r;
  int frees = 0;
  const uint64_t bound = Peer::Scan(r);  // no guard active yet
  {
    EpochReclaimer::Guard reader(r);  // reader looks the item up...
    r.Retire(&frees, CountFree);      // ...then a writer retires it
    EXPECT_EQ(Peer::Free(r, bound), 0u);
    EXPECT_EQ(frees, 0) << "freed an item a live guard still holds";
  }
  EXPECT_EQ(r.TryReclaim(), 1u);
  EXPECT_EQ(frees, 1);
}

}  // namespace
}  // namespace server
}  // namespace mccuckoo
