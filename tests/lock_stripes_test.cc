// Unit tests for the multi-writer building blocks: the striped writer
// locks (LockStripeArray / LockStripeSet / LockStripeDrain), the
// MovableAtomic counter cell, the atomic counter-byte discipline of
// TagCounterArray, and the atomic flag words of BitArray.
// The end-to-end multi-writer protocol is exercised in
// multiwriter_stress_test.cc; this file pins down the local contracts
// those tests build on.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/bits.h"
#include "src/core/counter_array.h"
#include "src/core/lock_stripes.h"
#include "src/core/seqlock.h"
#include "src/obs/metrics.h"

namespace mccuckoo {
namespace {

// --- LockStripeArray geometry ---------------------------------------------

TEST(LockStripeArrayTest, CongruentWithSeqlockArray) {
  for (size_t buckets : {size_t{1}, size_t{7}, size_t{64}, size_t{1000},
                         size_t{4096}, size_t{1} << 20}) {
    LockStripeArray locks(buckets);
    SeqlockArray seq(buckets);
    EXPECT_EQ(locks.num_stripes(), SeqlockArray::StripesFor(buckets))
        << "buckets=" << buckets;
    EXPECT_EQ(locks.num_stripes(), seq.num_stripes()) << "buckets=" << buckets;
    EXPECT_EQ(locks.aux_stripe(), locks.num_stripes());
    // Same low-bit mapping as the seqlock: congruence is the keystone of
    // the multi-writer protocol (stripe holder owns the version cells).
    for (size_t b : {size_t{0}, buckets / 2, buckets - 1, buckets + 3}) {
      EXPECT_EQ(locks.StripeOf(b), b & (locks.num_stripes() - 1));
    }
  }
}

TEST(LockStripeArrayTest, StripeCountIsCapped) {
  LockStripeArray locks(size_t{1} << 22);
  EXPECT_EQ(locks.num_stripes(), LockStripeArray::kMaxStripes);
}

TEST(LockStripeArrayTest, TryLockLockUnlock) {
  LockStripeArray locks(64);
  EXPECT_FALSE(locks.IsLocked(3));
  EXPECT_TRUE(locks.TryLock(3));
  EXPECT_TRUE(locks.IsLocked(3));
  EXPECT_FALSE(locks.TryLock(3));  // held -> try fails, does not block
  locks.Unlock(3);
  EXPECT_FALSE(locks.IsLocked(3));
  EXPECT_EQ(locks.Lock(3), 0u);  // uncontended fast path reports zero wait
  locks.Unlock(3);
}

TEST(LockStripeArrayTest, ContendedLockReportsNonZeroWait) {
  LockStripeArray locks(64);
  // Scheduling can always slip the unlock in before the waiter arrives
  // (making the acquisition legitimately uncontended), so retry the
  // scenario until one attempt genuinely waits.
  uint64_t wait = 0;
  for (int attempt = 0; attempt < 16 && wait == 0; ++attempt) {
    ASSERT_TRUE(locks.TryLock(5));
    std::atomic<bool> waiting{false};
    std::thread waiter([&] {
      waiting.store(true, std::memory_order_relaxed);
      const uint64_t w = locks.Lock(5);
      locks.Unlock(5);
      wait = w;
    });
    while (!waiting.load(std::memory_order_relaxed)) {
      std::this_thread::yield();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    locks.Unlock(5);
    waiter.join();
  }
  EXPECT_GE(wait, 1u);  // contended acquisitions are detectable
}

// --- LockStripeSet discipline ---------------------------------------------

TEST(LockStripeSetTest, AcquireOrderedSortsAndDedups) {
  LockStripeArray locks(64);
  LockStripeSet ls(locks, nullptr);
  const size_t stripes[] = {9, 2, 9, 5};
  ls.AcquireOrdered(stripes, 4);
  EXPECT_EQ(ls.held_count(), 3u);  // the duplicate collapses
  for (size_t s : {size_t{2}, size_t{5}, size_t{9}}) {
    EXPECT_TRUE(ls.Holds(s));
    EXPECT_TRUE(locks.IsLocked(s));
  }
  EXPECT_FALSE(ls.Holds(3));
  EXPECT_FALSE(locks.IsLocked(3));
  ls.ReleaseAll();
  EXPECT_EQ(ls.held_count(), 0u);
  for (size_t s : {size_t{2}, size_t{5}, size_t{9}}) {
    EXPECT_FALSE(locks.IsLocked(s));
  }
}

TEST(LockStripeSetTest, TryAcquireFailsOnForeignStripeWithoutBlocking) {
  LockStripeArray locks(64);
  ASSERT_TRUE(locks.TryLock(7));  // someone else holds stripe 7
  LockStripeSet ls(locks, nullptr);
  const size_t roots[] = {1, 4};
  ls.AcquireOrdered(roots, 2);
  EXPECT_FALSE(ls.TryAcquire(7));  // returns immediately instead of waiting
  EXPECT_TRUE(ls.TryAcquire(4));   // already held -> trivially true
  EXPECT_TRUE(ls.TryAcquire(10));
  EXPECT_EQ(ls.held_count(), 3u);
  locks.Unlock(7);
}

TEST(LockStripeSetTest, ReleaseSuffixKeepsRoots) {
  LockStripeArray locks(64);
  LockStripeSet ls(locks, nullptr);
  const size_t roots[] = {1, 4};
  ls.AcquireOrdered(roots, 2);
  ASSERT_TRUE(ls.TryAcquire(20));
  ASSERT_TRUE(ls.TryAcquire(30));
  EXPECT_EQ(ls.held_count(), 4u);
  ls.ReleaseSuffix(2);  // the re-plan path: drop speculative claims only
  EXPECT_EQ(ls.held_count(), 2u);
  EXPECT_TRUE(ls.Holds(1));
  EXPECT_TRUE(ls.Holds(4));
  EXPECT_FALSE(locks.IsLocked(20));
  EXPECT_FALSE(locks.IsLocked(30));
}

TEST(LockStripeSetTest, AcquireAuxIsIdempotentAndHighest) {
  LockStripeArray locks(64);
  LockStripeSet ls(locks, nullptr);
  const size_t roots[] = {0, 63};
  ls.AcquireOrdered(roots, 2);
  ls.AcquireAux();
  const size_t after_first = ls.held_count();
  ls.AcquireAux();  // second call is a no-op
  EXPECT_EQ(ls.held_count(), after_first);
  EXPECT_TRUE(ls.Holds(locks.aux_stripe()));
}

TEST(LockStripeSetTest, DestructorReleasesEverything) {
  LockStripeArray locks(64);
  {
    LockStripeSet ls(locks, nullptr);
    const size_t roots[] = {3, 8};
    ls.AcquireOrdered(roots, 2);
    ls.AcquireAux();
  }
  EXPECT_FALSE(locks.IsLocked(3));
  EXPECT_FALSE(locks.IsLocked(8));
  EXPECT_FALSE(locks.IsLocked(locks.aux_stripe()));
}

#ifndef MCCUCKOO_NO_METRICS
TEST(LockStripeSetTest, FlushesContentionTalliesOncePerOperation) {
  LockStripeArray locks(64);
  TableMetrics metrics;
  ASSERT_TRUE(locks.TryLock(12));  // provoke one contended try-failure
  {
    LockStripeSet ls(locks, &metrics);
    const size_t roots[] = {2, 6};
    ls.AcquireOrdered(roots, 2);          // 2 acquisitions
    EXPECT_FALSE(ls.TryAcquire(12));      // 1 contended attempt
    EXPECT_TRUE(ls.TryAcquireChain(20));  // 1 acquisition + 1 handoff
    EXPECT_TRUE(ls.TryAcquireChain(20));  // already held: no double count
    // Nothing flushed until the operation ends.
    EXPECT_EQ(metrics.Snapshot().writer_lock_acquisitions, 0u);
    ls.ReleaseAll();
    const MetricsSnapshot s = metrics.Snapshot();
    EXPECT_EQ(s.writer_lock_acquisitions, 3u);
    EXPECT_EQ(s.writer_lock_contended, 1u);
    EXPECT_EQ(s.writer_chain_handoffs, 1u);
    ls.ReleaseAll();  // idempotent: tallies were zeroed by the first flush
    EXPECT_EQ(metrics.Snapshot().writer_lock_acquisitions, 3u);
  }
  locks.Unlock(12);
}

TEST(LockStripeSetTest, BlockingContendedWaitRecordsHistogramSample) {
  LockStripeArray locks(64);
  TableMetrics metrics;
  // Retry like ContendedLockReportsNonZeroWait: the holder's unlock can
  // race in before AcquireOrdered blocks, making an attempt legitimately
  // uncontended.
  for (int attempt = 0; attempt < 16; ++attempt) {
    ASSERT_TRUE(locks.TryLock(2));
    std::thread holder([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      locks.Unlock(2);
    });
    {
      LockStripeSet ls(locks, &metrics);
      const size_t roots[] = {2};
      ls.AcquireOrdered(roots, 1);  // blocks until the holder lets go
    }
    holder.join();
    if (metrics.Snapshot().writer_lock_contended >= 1) break;
  }
  const MetricsSnapshot s = metrics.Snapshot();
  EXPECT_GE(s.writer_lock_contended, 1u);
  EXPECT_EQ(s.writer_lock_contended, s.writer_lock_wait_ns.count);
}
#endif  // MCCUCKOO_NO_METRICS

TEST(LockStripeDrainTest, HoldsEveryStripeIncludingAux) {
  LockStripeArray locks(256);
  {
    LockStripeDrain drain(locks);
    for (size_t s = 0; s <= locks.aux_stripe(); ++s) {
      EXPECT_TRUE(locks.IsLocked(s)) << "stripe " << s;
    }
  }
  for (size_t s = 0; s <= locks.aux_stripe(); ++s) {
    EXPECT_FALSE(locks.IsLocked(s)) << "stripe " << s;
  }
}

// --- MovableAtomic ---------------------------------------------------------

TEST(MovableAtomicTest, SingleWriterOperatorsAndValueSemantics) {
  MovableAtomic<uint64_t> a = 5;
  ++a;
  a += 10;
  EXPECT_EQ(static_cast<uint64_t>(a), 16u);
  --a;
  EXPECT_EQ(a.load(), 15u);
  MovableAtomic<uint64_t> b = a;  // copies the value, not the cell
  a = 0;
  EXPECT_EQ(b.load(), 15u);
  MovableAtomic<uint64_t> c = std::move(b);
  EXPECT_EQ(c.load(), 15u);
  c = 42;
  EXPECT_EQ(c.load(), 42u);
}

TEST(MovableAtomicTest, ConcurrentFetchAddIsExact) {
  MovableAtomic<uint64_t> n = 0;
  constexpr int kThreads = 4;
  constexpr int kIters = 20000;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) n.FetchAdd(1);
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(n.load(), static_cast<uint64_t>(kThreads) * kIters);
}

TEST(MovableAtomicTest, CompareExchangeFromZeroWinsExactlyOnce) {
  // The first_collision / first_failure seeding idiom: many threads race to
  // set the cell once; exactly one CAS-from-0 succeeds.
  MovableAtomic<uint64_t> cell = 0;
  std::atomic<int> winners{0};
  std::vector<std::thread> ts;
  for (int t = 0; t < 4; ++t) {
    ts.emplace_back([&, t] {
      uint64_t expected = 0;
      if (cell.CompareExchange(expected, static_cast<uint64_t>(t) + 1)) {
        winners.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(winners.load(), 1);
  EXPECT_NE(cell.load(), 0u);
}

// --- Atomic counter-byte discipline ----------------------------------------

TEST(TagCounterArrayAtomicTest, OwnerNibbleUpdatesKeepTheOtherNibble) {
  // Counter and tag live in one byte, and the stripe protocol makes the
  // byte's stripe holder its only writer. That owner interleaves tag,
  // counter, decrement and tombstone updates on byte 3 while other threads
  // own and hammer the neighbouring bytes: each update must keep the other
  // nibble, and no neighbour's store may bleed into byte 3.
  TagCounterArray counters(8, 7, nullptr);
  constexpr int kIters = 20000;
  std::thread owner([&] {
    for (int i = 0; i < kIters; ++i) {
      const uint8_t tag = static_cast<uint8_t>(i & 0x0F);
      counters.AtomicSetTag(3, tag);
      counters.AtomicSet(3, static_cast<uint64_t>(i % 6) + 2);
      counters.AtomicSet(3, counters.PeekCounter(3) - 1);
      if (counters.PeekTag(3) != tag ||
          counters.PeekCounter(3) != static_cast<uint64_t>(i % 6) + 1) {
        ADD_FAILURE() << "nibble lost at iteration " << i;
        return;
      }
      counters.AtomicMarkDeleted(3);
      if (counters.PeekTag(3) != tag || !counters.PeekTombstone(3)) {
        ADD_FAILURE() << "tombstone update lost the tag at iteration " << i;
        return;
      }
    }
    counters.AtomicSetTag(3, 0x0A);
    counters.AtomicSet(3, 5);
  });
  std::vector<std::thread> neighbours;
  for (size_t n : {size_t{2}, size_t{4}}) {
    neighbours.emplace_back([&, n] {
      for (int i = 0; i < kIters; ++i) {
        counters.AtomicSet(n, static_cast<uint64_t>(i % 7) + 1);
        counters.AtomicSetTag(n, static_cast<uint8_t>(~i & 0x0F));
      }
    });
  }
  owner.join();
  for (auto& t : neighbours) t.join();
  EXPECT_EQ(counters.PeekTag(3), 0x0Au);
  EXPECT_EQ(counters.PeekCounter(3), 5u);
  EXPECT_FALSE(counters.PeekTombstone(3));
}

TEST(TagCounterArrayAtomicTest, DecrementTombstoneAndSetSemantics) {
  TagCounterArray counters(4, 7, nullptr);
  counters.AtomicSetTag(1, 0x0C);
  counters.AtomicSet(1, 3);
  counters.AtomicSet(1, counters.PeekCounter(1) - 1);
  EXPECT_EQ(counters.PeekCounter(1), 2u);
  counters.AtomicSet(1, counters.PeekCounter(1) - 1);
  EXPECT_EQ(counters.PeekCounter(1), 1u);
  EXPECT_EQ(counters.PeekCounter(1), 1u);
  counters.AtomicMarkDeleted(1);
  EXPECT_EQ(counters.PeekCounter(1), 0u);  // tombstones read as counter 0
  EXPECT_TRUE(counters.PeekTombstone(1));
  EXPECT_EQ(counters.PeekTag(1), 0x0Cu);  // tag survives the whole dance
  counters.AtomicSet(1, 2);               // re-occupation clears the mark
  EXPECT_FALSE(counters.PeekTombstone(1));
  EXPECT_EQ(counters.PeekCounter(1), 2u);
}

TEST(TagCounterArrayAtomicTest, ConcurrentDisjointEntriesStayExact) {
  // The protocol guarantees one writer per entry; neighbouring entries may
  // be hammered concurrently. Entries are separate bytes, so no update may
  // bleed into a neighbour.
  constexpr size_t kEntries = 64;
  TagCounterArray counters(kEntries, 7, nullptr);
  std::vector<std::thread> ts;
  for (int t = 0; t < 4; ++t) {
    ts.emplace_back([&, t] {
      for (size_t i = static_cast<size_t>(t); i < kEntries; i += 4) {
        for (int r = 0; r < 1000; ++r) {
          counters.AtomicSet(i, (i % 7) + 1);
          counters.AtomicSetTag(i, static_cast<uint8_t>(i & 0x0F));
        }
      }
    });
  }
  for (auto& t : ts) t.join();
  for (size_t i = 0; i < kEntries; ++i) {
    EXPECT_EQ(counters.PeekCounter(i), (i % 7) + 1) << "entry " << i;
    EXPECT_EQ(counters.PeekTag(i), static_cast<uint8_t>(i & 0x0F))
        << "entry " << i;
  }
}

TEST(BitArrayAtomicTest, ConcurrentSetsOfOneWordKeepEveryBit) {
  // The blocked table packs 64 buckets' stash flags into one word, and
  // those buckets belong to up to 64 lock stripes: concurrent writers set
  // disjoint bits of the same word. A plain |= loses bits here.
  constexpr int kThreads = 4;
  for (int round = 0; round < 200; ++round) {
    BitArray flags(64);
    std::atomic<int> ready{0};
    std::vector<std::thread> ts;
    for (int t = 0; t < kThreads; ++t) {
      ts.emplace_back([&, t] {
        ready.fetch_add(1);
        while (ready.load() < kThreads) {
        }
        for (size_t i = static_cast<size_t>(t); i < 64; i += kThreads) {
          flags.AtomicSet(i);
        }
      });
    }
    for (auto& t : ts) t.join();
    ASSERT_EQ(flags.Word(0), ~uint64_t{0}) << "round " << round;
    for (size_t i = 0; i < 64; ++i) EXPECT_TRUE(flags.AtomicTest(i));
  }
}

}  // namespace
}  // namespace mccuckoo
