// Tests of the item store's epoch-based reclaimer (src/server/epoch.h).

#include "src/server/epoch.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

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

TEST(EpochReclaimerTest, GuardWaitsForAFreeSlot) {
  // With every slot held, a new guard spins until one is released: it must
  // never share a slot, whose epoch the holder would overwrite on exit.
  EpochReclaimer r;
  std::vector<std::unique_ptr<EpochReclaimer::Guard>> held;
  for (int i = 0; i < EpochReclaimer::kMaxSlots; ++i) {
    held.push_back(std::make_unique<EpochReclaimer::Guard>(r));
  }
  std::atomic<bool> entered{false};
  std::thread waiter([&] {
    EpochReclaimer::Guard g(r);
    entered.store(true, std::memory_order_release);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(entered.load(std::memory_order_acquire))
      << "a guard entered while all " << EpochReclaimer::kMaxSlots
      << " slots were held";
  held.pop_back();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!entered.load(std::memory_order_acquire) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  EXPECT_TRUE(entered.load(std::memory_order_acquire))
      << "the waiting guard did not take the released slot";
  held.clear();  // if it never entered, the next free slot lets it finish
  waiter.join();
}

}  // namespace
}  // namespace server
}  // namespace mccuckoo
