// Striped writer locks: how ShardedMcCuckoo runs many writers per table.
//
// The paper's one-writer-many-readers design (§III.H) serializes every
// mutation behind a single mutex, capping write throughput at one core per
// table no matter how many threads the cache-server scenario throws at it.
// Following the fine-grained kick-out locking line of work (arXiv
// 1605.05236, PAPERS.md), writers instead take per-stripe spinlocks: the
// writer-lock cells of the table's SeqlockArray (seqlock.h). Holding the
// lock of bucket b's stripe grants exclusive *writer* rights over every
// bucket in that stripe, so the single-writer seqlock protocol (blind
// non-RMW version bumps, see SeqlockArray::WriteBegin) remains valid with
// many concurrent writers — two writers can never hold the same stripe,
// hence never race a version cell. Optimistic readers keep running
// lock-free against the versions exactly as before. This header holds the
// discipline over those locks.
//
// Deadlock freedom rests on a two-tier acquisition discipline:
//
//  * Blocking acquisition is only allowed in globally ascending stripe
//    order, and only for lock sets known up front: an operation's d
//    candidate stripes (acquired once, sorted, at the start) and the aux
//    stripe (the highest index, covering the stash — always acquired last).
//  * Everything discovered mid-operation — BFS kick-chain buckets, a
//    victim's other copies — is acquired by *try-lock only*. A failed
//    try-lock never blocks: the owner releases the speculative suffix and
//    re-plans, so no waits-for cycle can form.
//
// The claim-then-move progression along kick chains follows from the same
// rule: a writer first *claims* every bucket of the planned chain
// (try-locks), re-validates the plan under the claims, and only then moves
// occupants — terminal first — inside the claimed stripes' seqlock windows.
//
// Contention observability: every LockStripeSet tallies acquisitions,
// contended acquisitions and chain claims locally and flushes them into the
// owning table's TableMetrics once per operation (ReleaseAll), keeping the
// uncontended hot path free of extra atomic RMWs; blocking waits record a
// log2 wait-time histogram sample each.

#ifndef MCCUCKOO_CORE_LOCK_STRIPES_H_
#define MCCUCKOO_CORE_LOCK_STRIPES_H_

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>

#include "src/core/seqlock.h"
#include "src/obs/metrics.h"

namespace mccuckoo {

/// A std::atomic<T> that is copyable and movable (value-wise), so plain
/// counters inside movable aggregates (tables that relocate themselves on
/// Rehash) can become concurrency-safe without losing their move semantics.
/// Two increment disciplines coexist:
///  * operator++/operator+=/store — single-writer updates, implemented as
///    non-RMW relaxed load+store pairs (no lock-prefixed instruction on the
///    hot path). Legal only under writer exclusion.
///  * FetchAdd/FetchSub/CompareExchange — real RMWs for the multi-writer
///    paths, where several threads update the same cell concurrently.
/// Reads are always relaxed atomic loads, so either discipline is safe to
/// observe from any thread.
template <typename T>
class MovableAtomic {
 public:
  MovableAtomic(T v = T{}) : v_(v) {}  // NOLINT(google-explicit-constructor)
  MovableAtomic(const MovableAtomic& o) : v_(o.load()) {}
  MovableAtomic(MovableAtomic&& o) noexcept : v_(o.load()) {}
  MovableAtomic& operator=(const MovableAtomic& o) {
    store(o.load());
    return *this;
  }
  MovableAtomic& operator=(MovableAtomic&& o) noexcept {
    store(o.load());
    return *this;
  }
  MovableAtomic& operator=(T v) {
    store(v);
    return *this;
  }

  operator T() const { return load(); }  // NOLINT(google-explicit-constructor)
  T load() const { return v_.load(std::memory_order_relaxed); }
  void store(T v) { v_.store(v, std::memory_order_relaxed); }

  // Single-writer updates (non-RMW; require writer exclusion).
  MovableAtomic& operator+=(T d) {
    store(static_cast<T>(load() + d));
    return *this;
  }
  MovableAtomic& operator++() {
    store(static_cast<T>(load() + 1));
    return *this;
  }
  MovableAtomic& operator--() {
    store(static_cast<T>(load() - 1));
    return *this;
  }

  // Multi-writer updates (real RMWs).
  T FetchAdd(T d) { return v_.fetch_add(d, std::memory_order_relaxed); }
  T FetchSub(T d) { return v_.fetch_sub(d, std::memory_order_relaxed); }
  bool CompareExchange(T& expected, T desired) {
    return v_.compare_exchange_strong(expected, desired,
                                      std::memory_order_relaxed,
                                      std::memory_order_relaxed);
  }

 private:
  std::atomic<T> v_;
};

/// The lock set one operation holds, enforcing the two-tier acquisition
/// discipline (see file comment) and tallying contention metrics locally —
/// flushed into the table's TableMetrics once, at ReleaseAll/destruction.
class LockStripeSet {
 public:
  LockStripeSet(SeqlockArray& arr, TableMetrics* metrics)
      : arr_(arr), metrics_(metrics) {}
  ~LockStripeSet() { ReleaseAll(); }
  LockStripeSet(const LockStripeSet&) = delete;
  LockStripeSet& operator=(const LockStripeSet&) = delete;

  /// Blocking ordered acquisition of an up-front-known stripe set (the
  /// operation's candidate stripes): sorted ascending, deduplicated. Must
  /// be the first acquisition of this set (blocking out of global order
  /// would reintroduce deadlock).
  void AcquireOrdered(const size_t* stripes, size_t n) {
    assert(held_n_ == 0);
    assert(n <= kMaxHeld);
    size_t sorted[kMaxHeld];
    std::copy(stripes, stripes + n, sorted);
    std::sort(sorted, sorted + n);
    size_t prev = static_cast<size_t>(-1);
    for (size_t i = 0; i < n; ++i) {
      if (sorted[i] == prev) continue;
      prev = sorted[i];
      LockBlocking(sorted[i]);
    }
  }

  /// Blocking acquisition of the aux stripe — legal at any point because it
  /// is the globally highest index (nothing is ever acquired after it).
  void AcquireAux() {
    const size_t aux = arr_.aux_stripe();
    if (Holds(aux)) return;
    assert(held_n_ == 0 ||
           *std::max_element(held_, held_ + held_n_) < aux);
    LockBlocking(aux);
  }

  /// Non-blocking acquisition of a mid-operation stripe (chain buckets,
  /// victim copies). Returns true when the stripe is now (or already) held.
  /// A full held set reports failure like a lost try-lock — the caller
  /// re-plans or restarts, which is always correct (if rare: kMaxHeld is
  /// sized well past any real chain's unique-stripe count).
  bool TryAcquire(size_t stripe) {
    if (Holds(stripe)) return true;
    if (held_n_ == kMaxHeld || !arr_.TryLock(stripe)) {
      ++contended_;  // a try-failure is a contended acquisition attempt
      return false;
    }
    ++acquired_;
    held_[held_n_++] = stripe;
    return true;
  }

  /// TryAcquire for kick-chain claims; additionally counted as a chain
  /// hand-off (the claim-then-move progression metric).
  bool TryAcquireChain(size_t stripe) {
    const bool already = Holds(stripe);
    if (!TryAcquire(stripe)) return false;
    if (!already) ++chain_handoffs_;
    return true;
  }

  bool Holds(size_t stripe) const {
    for (size_t i = 0; i < held_n_; ++i) {
      if (held_[i] == stripe) return true;
    }
    return false;
  }

  size_t held_count() const { return held_n_; }

  /// Releases every stripe acquired after the first `keep` (reverse
  /// acquisition order) — the re-plan path: drop the speculative chain
  /// claims, keep the operation's root stripes.
  void ReleaseSuffix(size_t keep) {
    while (held_n_ > keep) arr_.Unlock(held_[--held_n_]);
  }

  /// Releases everything and flushes the contention tallies (idempotent).
  void ReleaseAll() {
    ReleaseSuffix(0);
    if (metrics_ != nullptr &&
        (acquired_ != 0 || contended_ != 0 || chain_handoffs_ != 0)) {
      metrics_->RecordWriterLocks(acquired_, contended_, chain_handoffs_);
    }
    acquired_ = contended_ = chain_handoffs_ = 0;
  }

 private:
  // Inline capacity (no heap traffic on the per-op hot path): d candidates
  // + a claimed BFS chain's unique stripes (chain depth stays in single
  // digits) + a victim's other copies + aux all fit with headroom. A chain
  // that somehow needs more fails its TryAcquire and re-plans.
  static constexpr size_t kMaxHeld = 32;

  void LockBlocking(size_t stripe) {
    assert(held_n_ < kMaxHeld);
    const uint64_t wait_ns = arr_.Lock(stripe);
    ++acquired_;
    if (wait_ns != 0) {
      ++contended_;
      if (metrics_ != nullptr) metrics_->RecordWriterLockWait(wait_ns);
    }
    held_[held_n_++] = stripe;
  }

  SeqlockArray& arr_;
  TableMetrics* metrics_;
  size_t held_[kMaxHeld];
  size_t held_n_ = 0;
  uint64_t acquired_ = 0;
  uint64_t contended_ = 0;
  uint64_t chain_handoffs_ = 0;
};

/// RAII table-wide drain: blocks until every stripe (aux included) is held,
/// in ascending order — the growth/rehash slow path. With all stripes held
/// no writer or striped-fallback reader can be mid-operation, so storage
/// can be restructured; optimistic readers are fenced by the seqlock aux
/// stripe as before.
class LockStripeDrain {
 public:
  explicit LockStripeDrain(SeqlockArray& arr) : arr_(arr) {
    for (size_t s = 0; s <= arr_.aux_stripe(); ++s) arr_.Lock(s);
  }
  ~LockStripeDrain() {
    const size_t aux = arr_.aux_stripe();
    for (size_t i = 0; i <= aux; ++i) arr_.Unlock(aux - i);
  }
  LockStripeDrain(const LockStripeDrain&) = delete;
  LockStripeDrain& operator=(const LockStripeDrain&) = delete;

 private:
  SeqlockArray& arr_;
};

}  // namespace mccuckoo

#endif  // MCCUCKOO_CORE_LOCK_STRIPES_H_
