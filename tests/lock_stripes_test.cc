// Unit tests for the multi-writer building blocks: the striped writer
// locks (SeqlockArray's lock cells, LockStripeSet, LockStripeDrain), the
// MovableAtomic counter cell, the atomic counter-byte discipline of
// TagCounterArray, and the atomic flag words of BitArray.
// The end-to-end multi-writer protocol is exercised in
// multiwriter_stress_test.cc; this file pins down the local contracts
// those tests build on.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/bits.h"
#include "src/common/movable_atomic.h"
#include "src/core/counter_array.h"
#include "src/core/lock_stripes.h"
#include "src/core/seqlock.h"
#include "src/obs/metrics.h"

namespace mccuckoo {
namespace {

// --- Writer locks of the stripe array -------------------------------------

TEST(LockStripeArrayTest, CongruentWithSeqlockArray) {
  // The multi-writer protocol's keystone: holding the lock of a bucket's
  // stripe makes its holder the only writer of that same stripe's version
  // cell. Lock and version operations on a bucket must therefore land on
  // one stripe, and on no other.
  for (size_t buckets : {size_t{1}, size_t{7}, size_t{64}, size_t{1000},
                         size_t{4096}, size_t{1} << 20}) {
    SeqlockArray arr(buckets);
    ASSERT_EQ(arr.aux_stripe(), arr.num_stripes());
    for (size_t b : {size_t{0}, buckets / 2, buckets - 1, buckets + 3}) {
      const size_t s = arr.StripeOf(b);
      ASSERT_LT(s, arr.num_stripes());
      ASSERT_TRUE(arr.TryLock(s));
      arr.WriteBegin(s);
      for (size_t t = 0; t <= arr.aux_stripe(); ++t) {
        EXPECT_EQ(arr.IsLocked(t), t == s)
            << "buckets=" << buckets << " bucket=" << b << " stripe " << t;
        EXPECT_EQ(SeqlockArray::IsWriting(arr.Version(t)), t == s)
            << "buckets=" << buckets << " bucket=" << b << " stripe " << t;
      }
      arr.WriteEnd(s);
      arr.Unlock(s);
    }
    // The aux stripe's lock and version are its own, too.
    ASSERT_TRUE(arr.TryLock(arr.aux_stripe()));
    arr.WriteBegin(arr.aux_stripe());
    for (size_t t = 0; t < arr.num_stripes(); ++t) {
      EXPECT_FALSE(arr.IsLocked(t)) << "buckets=" << buckets;
      EXPECT_FALSE(SeqlockArray::IsWriting(arr.Version(t)))
          << "buckets=" << buckets;
    }
    arr.WriteEnd(arr.aux_stripe());
    arr.Unlock(arr.aux_stripe());
  }
}

TEST(LockStripeArrayTest, StripeCountIsCapped) {
  SeqlockArray locks(size_t{1} << 22);
  EXPECT_EQ(locks.num_stripes(), SeqlockArray::kMaxStripes);
}

TEST(LockStripeArrayTest, TryLockLockUnlock) {
  SeqlockArray locks(64);
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
  SeqlockArray locks(64);
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
  SeqlockArray locks(64);
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

  // Every sequence of n = 1..4 stripes over four values covers every
  // permutation and every pattern of duplicates. Each must lock exactly
  // its distinct stripes, in ascending order: releasing the newest claim
  // first must always drop the largest stripe still held.
  const size_t values[] = {3, 17, 40, 63};
  for (size_t n = 1; n <= LockStripeSet::kMaxOrdered; ++n) {
    size_t combos = 1;
    for (size_t i = 0; i < n; ++i) combos *= 4;
    for (size_t c = 0; c < combos; ++c) {
      size_t seq[LockStripeSet::kMaxOrdered];
      std::vector<size_t> want;
      for (size_t i = 0, code = c; i < n; ++i, code /= 4) {
        seq[i] = values[code % 4];
        want.push_back(seq[i]);
      }
      std::sort(want.begin(), want.end());
      want.erase(std::unique(want.begin(), want.end()), want.end());
      ls.AcquireOrdered(seq, n);
      ASSERT_EQ(ls.held_count(), want.size()) << "n=" << n << " c=" << c;
      for (size_t k = want.size(); k-- > 0;) {
        ASSERT_TRUE(locks.IsLocked(want[k])) << "n=" << n << " c=" << c;
        ls.ReleaseSuffix(k);
        ASSERT_FALSE(locks.IsLocked(want[k])) << "n=" << n << " c=" << c;
        for (size_t j = 0; j < k; ++j) ASSERT_TRUE(locks.IsLocked(want[j]));
      }
    }
  }
}

TEST(LockStripeSetTest, TryAcquireFailsOnForeignStripeWithoutBlocking) {
  SeqlockArray locks(64);
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
  SeqlockArray locks(64);
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
  SeqlockArray locks(64);
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
  SeqlockArray locks(64);
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
  SeqlockArray locks(64);
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
  SeqlockArray locks(64);
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
  SeqlockArray locks(256);
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

// --- Atomic counter-byte discipline ----------------------------------------

TEST(TagCounterArrayAtomicTest, OwnerNibbleUpdatesKeepTheOtherNibble) {
  // Counter and tag live in one byte, and the stripe protocol makes the
  // byte's stripe holder its only writer. That owner interleaves tag,
  // counter, decrement and tombstone updates on byte 3 while other threads
  // own and hammer the neighbouring bytes: each update must keep the other
  // nibble, and no neighbour's store may bleed into byte 3.
  TagCounterArray counters(8);
  constexpr int kIters = 20000;
  std::thread owner([&] {
    for (int i = 0; i < kIters; ++i) {
      const uint8_t tag = static_cast<uint8_t>(i & 0x0F);
      counters.SetTag(3, tag);
      counters.Set(3, static_cast<uint64_t>(i % 6) + 2);
      counters.Set(3, counters.PeekCounter(3) - 1);
      if (counters.PeekTag(3) != tag ||
          counters.PeekCounter(3) != static_cast<uint64_t>(i % 6) + 1) {
        ADD_FAILURE() << "nibble lost at iteration " << i;
        return;
      }
      counters.MarkDeleted(3);
      if (counters.PeekTag(3) != tag || !counters.PeekTombstone(3)) {
        ADD_FAILURE() << "tombstone update lost the tag at iteration " << i;
        return;
      }
    }
    counters.SetTag(3, 0x0A);
    counters.Set(3, 5);
  });
  std::vector<std::thread> neighbours;
  for (size_t n : {size_t{2}, size_t{4}}) {
    neighbours.emplace_back([&, n] {
      for (int i = 0; i < kIters; ++i) {
        counters.Set(n, static_cast<uint64_t>(i % 7) + 1);
        counters.SetTag(n, static_cast<uint8_t>(~i & 0x0F));
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
  TagCounterArray counters(4);
  counters.SetTag(1, 0x0C);
  counters.Set(1, 3);
  counters.Set(1, counters.PeekCounter(1) - 1);
  EXPECT_EQ(counters.PeekCounter(1), 2u);
  counters.Set(1, counters.PeekCounter(1) - 1);
  EXPECT_EQ(counters.PeekCounter(1), 1u);
  EXPECT_EQ(counters.PeekCounter(1), 1u);
  counters.MarkDeleted(1);
  EXPECT_EQ(counters.PeekCounter(1), 0u);  // tombstones read as counter 0
  EXPECT_TRUE(counters.PeekTombstone(1));
  EXPECT_EQ(counters.PeekTag(1), 0x0Cu);  // tag survives the whole dance
  counters.Set(1, 2);               // re-occupation clears the mark
  EXPECT_FALSE(counters.PeekTombstone(1));
  EXPECT_EQ(counters.PeekCounter(1), 2u);
}

TEST(TagCounterArrayAtomicTest, ConcurrentDisjointEntriesStayExact) {
  // The protocol guarantees one writer per entry; neighbouring entries may
  // be hammered concurrently. Entries are separate bytes, so no update may
  // bleed into a neighbour.
  constexpr size_t kEntries = 64;
  TagCounterArray counters(kEntries);
  std::vector<std::thread> ts;
  for (int t = 0; t < 4; ++t) {
    ts.emplace_back([&, t] {
      for (size_t i = static_cast<size_t>(t); i < kEntries; i += 4) {
        for (int r = 0; r < 1000; ++r) {
          counters.Set(i, (i % 7) + 1);
          counters.SetTag(i, static_cast<uint8_t>(i & 0x0F));
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
