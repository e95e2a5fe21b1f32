// A std::atomic<T> that copies and moves by value.

#ifndef MCCUCKOO_COMMON_MOVABLE_ATOMIC_H_
#define MCCUCKOO_COMMON_MOVABLE_ATOMIC_H_

#include <atomic>

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
/// Plain reads are relaxed atomic loads, so either discipline is safe to
/// observe from any thread; LoadAcquire/StoreRelease pair up where a value
/// publishes the stores before it (the tables' rehash epoch).
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
  T LoadAcquire() const { return v_.load(std::memory_order_acquire); }
  void StoreRelease(T v) { v_.store(v, std::memory_order_release); }

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

}  // namespace mccuckoo

#endif  // MCCUCKOO_COMMON_MOVABLE_ATOMIC_H_
