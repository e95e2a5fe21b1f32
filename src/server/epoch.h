// Epoch-based deferred reclamation for the server's item layer.
//
// The item store keeps variable-size items on the heap and maps 64-bit key
// hashes to raw item pointers inside ShardedMcCuckoo. Readers (GET/MGET)
// are lock-free: they batch through FindBatch and dereference the returned
// pointers without taking any per-key lock — so a concurrent DEL/SET must
// not free the old item while a reader still holds its pointer. Classic
// epoch-based reclamation (EBR) closes that window with costs matched to a
// cache server: readers pay a few uncontended atomics per *request batch*
// (not per key), writers defer frees to a retire list, and memory is
// reclaimed as soon as every in-flight reader has moved past the removal.
//
// Protocol:
//  * A reader wraps its critical section in a Guard. Entering publishes
//    the current global epoch into a private slot using a publish-then-
//    verify loop (store own epoch, re-read the global, retry if it moved).
//    This is the standard EBR handshake: once the verify load observes the
//    same epoch E that was published, any retirer that later bumps the
//    global past E is seq_cst-ordered after the publish and must observe
//    the slot as active.
//  * A writer removes the item from the table FIRST, then calls Retire(),
//    which bumps the global epoch and queues (epoch, ptr). A reader whose
//    published epoch is > the retire epoch entered after the bump; the
//    bump's seq_cst RMW synchronizes-with the reader's guard-entry load,
//    so the earlier table removal happens-before the reader's lookups and
//    the reader cannot obtain the retired pointer.
//  * TryReclaim() frees every queued item whose retire epoch is below both
//    the minimum epoch published by any active guard and the global epoch
//    read before that scan (see ReclaimBound).
//
// Guard slots come from a fixed pool behind a tagged-Treiber free list, so
// guards work from any thread with no thread-local registration (and none
// of the dangling-owner hazards thread_local caching brings when stores
// are created and destroyed across tests). Acquiring a slot is one CAS in
// the common case; with more than kMaxSlots concurrent guards the acquirer
// politely spins — far beyond the server's worker-thread count.

#ifndef MCCUCKOO_SERVER_EPOCH_H_
#define MCCUCKOO_SERVER_EPOCH_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

namespace mccuckoo {
namespace server {

class EpochReclaimer {
 public:
  static constexpr int kMaxSlots = 256;
  /// Retire() triggers an opportunistic TryReclaim() once this many items
  /// are queued, bounding the retire list without a dedicated GC thread.
  static constexpr size_t kReclaimBatch = 64;

  EpochReclaimer() {
    for (int i = 0; i < kMaxSlots; ++i) {
      slots_[i].next.store(i + 1 < kMaxSlots ? static_cast<uint32_t>(i + 1)
                                             : kNoneIdx,
                           std::memory_order_relaxed);
    }
    free_head_.store(0, std::memory_order_relaxed);  // tag 0, head slot 0
  }

  ~EpochReclaimer() {
    // No guards may be active at destruction (the owner joins its worker
    // threads first); everything still queued is safe to free.
    for (const Retired& r : retired_) r.deleter(r.ptr);
  }

  EpochReclaimer(const EpochReclaimer&) = delete;
  EpochReclaimer& operator=(const EpochReclaimer&) = delete;

  /// RAII read-side critical section. Non-reentrant state is per-guard,
  /// not per-thread, so nesting guards (e.g. a store-level batch inside a
  /// request-level guard) simply occupies two slots.
  class Guard {
   public:
    explicit Guard(EpochReclaimer& r) : r_(&r), slot_(r.AcquireSlot()) {
      // Publish-then-verify (see file comment): the loop exits only when
      // the published value matches the global, which pins the ordering
      // retirers rely on. Bumps are per-retire, so the loop settles fast.
      uint64_t e = r_->global_.load(std::memory_order_seq_cst);
      for (;;) {
        r_->slots_[slot_].epoch.store(e, std::memory_order_seq_cst);
        const uint64_t e2 = r_->global_.load(std::memory_order_seq_cst);
        if (e2 == e) break;
        e = e2;
      }
    }

    ~Guard() {
      r_->slots_[slot_].epoch.store(kIdle, std::memory_order_release);
      r_->ReleaseSlot(slot_);
    }

    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;

   private:
    EpochReclaimer* r_;
    int slot_;
  };

  /// Queues `ptr` for deferred destruction via `deleter`. The caller must
  /// already have removed every path a new reader could reach `ptr` by
  /// (i.e. erased/replaced it in the table).
  void Retire(void* ptr, void (*deleter)(void*)) {
    const uint64_t e = global_.fetch_add(1, std::memory_order_seq_cst);
    size_t pending;
    {
      std::lock_guard<std::mutex> l(mu_);
      retired_.push_back(Retired{e, ptr, deleter});
      pending = retired_.size();
    }
    if (pending >= kReclaimBatch) TryReclaim();
  }

  /// Frees every retired item no active guard can still reference.
  /// Returns the number freed. Safe from any thread, including one that
  /// currently holds a Guard (its own epoch simply caps what is freed).
  size_t TryReclaim() { return FreeRetiredBelow(ReclaimBound()); }

  /// Items currently awaiting reclamation (tests / stats).
  size_t retired_pending() const {
    std::lock_guard<std::mutex> l(mu_);
    return retired_.size();
  }

 private:
  static constexpr uint64_t kIdle = 0;  // epochs start at 1
  static constexpr uint32_t kNoneIdx = 0xFFFFFFFFu;

  struct Retired {
    uint64_t epoch;
    void* ptr;
    void (*deleter)(void*);
  };

  friend struct EpochReclaimerTestPeer;

  /// TryReclaim's first step: the epoch below which no retired item can
  /// still be referenced. The global epoch is read before the guard scan,
  /// because the scan is not atomic with the free that follows: a guard
  /// that enters after the scan may read an item that is retired after it,
  /// and that item's retire epoch is at least the value read here. Items
  /// retired before that read were removed from the table before any such
  /// guard entered, so it cannot hold them.
  uint64_t ReclaimBound() const {
    uint64_t bound = global_.load(std::memory_order_seq_cst);
    for (int i = 0; i < kMaxSlots; ++i) {
      const uint64_t v = slots_[i].epoch.load(std::memory_order_seq_cst);
      if (v != kIdle && v < bound) bound = v;
    }
    return bound;
  }

  /// TryReclaim's second step: frees every queued item whose retire epoch
  /// is below `bound`. Returns the number freed.
  size_t FreeRetiredBelow(uint64_t bound) {
    std::vector<Retired> free_now;
    {
      std::lock_guard<std::mutex> l(mu_);
      size_t w = 0;
      for (size_t i = 0; i < retired_.size(); ++i) {
        if (retired_[i].epoch < bound) {
          free_now.push_back(retired_[i]);
        } else {
          retired_[w++] = retired_[i];
        }
      }
      retired_.resize(w);
    }
    for (const Retired& r : free_now) r.deleter(r.ptr);
    return free_now.size();
  }

  // Cache-line-sized slots: a guard's epoch publications must not
  // false-share with its neighbours'.
  struct alignas(64) Slot {
    std::atomic<uint64_t> epoch{kIdle};
    std::atomic<uint32_t> next{kNoneIdx};
  };

  // Tagged Treiber stack over slot indices ({tag:32, index:32} in one
  // 64-bit word); the tag defeats ABA on concurrent pop/push.
  int AcquireSlot() {
    uint64_t head = free_head_.load(std::memory_order_acquire);
    for (;;) {
      const uint32_t idx = static_cast<uint32_t>(head);
      if (idx == kNoneIdx) {
        std::this_thread::yield();
        head = free_head_.load(std::memory_order_acquire);
        continue;
      }
      const uint32_t next = slots_[idx].next.load(std::memory_order_relaxed);
      const uint64_t want = ((head >> 32) + 1) << 32 | next;
      if (free_head_.compare_exchange_weak(head, want,
                                           std::memory_order_acq_rel,
                                           std::memory_order_acquire)) {
        return static_cast<int>(idx);
      }
    }
  }

  void ReleaseSlot(int idx) {
    uint64_t head = free_head_.load(std::memory_order_relaxed);
    for (;;) {
      slots_[idx].next.store(static_cast<uint32_t>(head),
                             std::memory_order_relaxed);
      const uint64_t want =
          ((head >> 32) + 1) << 32 | static_cast<uint32_t>(idx);
      if (free_head_.compare_exchange_weak(head, want,
                                           std::memory_order_release,
                                           std::memory_order_relaxed)) {
        return;
      }
    }
  }

  std::atomic<uint64_t> global_{1};
  std::atomic<uint64_t> free_head_{0};
  Slot slots_[kMaxSlots];
  mutable std::mutex mu_;
  std::vector<Retired> retired_;
};

}  // namespace server
}  // namespace mccuckoo

#endif  // MCCUCKOO_SERVER_EPOCH_H_
