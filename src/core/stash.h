// Off-chip stash for insertion failures (paper §III.E).
//
// When a kick-out chain exceeds maxloop, the in-hand item is parked in the
// stash instead of triggering a full rehash. McCuckoo's stash lives in
// abundant off-chip memory, so unlike the classic on-chip 4-entry stash it
// can absorb large insertion surges; the cost of probing it is contained by
// the screening rules in the table (counters + per-bucket flags). The stash
// itself is hash-organized ("more advanced hash techniques", §III.E), so one
// probe costs one off-chip access — the table charges that access.

#ifndef MCCUCKOO_CORE_STASH_H_
#define MCCUCKOO_CORE_STASH_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

namespace mccuckoo {

/// Hash-organized overflow store: one flat open-addressed array of entries
/// (linear probing, at most half full, backward-shift deletion), so a
/// probe is a multiply, a shift and a short scan of adjacent entries, each
/// carrying its own occupied mark. Items() lists the pairs in ascending
/// key order, independent of the layout. Uncharged: callers (the tables)
/// account the off-chip accesses so screening decisions stay in one place.
template <typename Key, typename Value>
class Stash {
 public:
  /// Adds (key, value). Returns false if the key was already stashed (the
  /// existing value is replaced).
  bool Insert(const Key& key, const Value& value) {
    if (2 * (size_ + 1) > slots_.size()) Grow();
    size_t i = Home(key);
    for (; slots_[i].used; i = Next(i)) {
      if (slots_[i].key == key) {
        slots_[i].value = value;
        return false;
      }
    }
    slots_[i] = {key, value, true};
    ++size_;
    return true;
  }

  /// Looks `key` up; copies the value into `*out` (if non-null) when found.
  bool Find(const Key& key, Value* out) const {
    const size_t i = Locate(key);
    if (i == kAbsent) return false;
    if (out != nullptr) *out = slots_[i].value;
    return true;
  }

  /// Removes `key`. Returns whether it was present.
  bool Erase(const Key& key) {
    size_t hole = Locate(key);
    if (hole == kAbsent) return false;
    // Backward shift: pull each later entry of the run into the hole
    // unless its home lies cyclically after the hole (moving it would put
    // it before its home, out of reach of its probe sequence).
    for (size_t j = Next(hole); slots_[j].used; j = Next(j)) {
      const size_t mask = slots_.size() - 1;
      if (((j - Home(slots_[j].key)) & mask) >= ((j - hole) & mask)) {
        slots_[hole] = std::move(slots_[j]);
        hole = j;
      }
    }
    slots_[hole] = {};
    --size_;
    return true;
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Snapshot of the stashed pairs in ascending key order (for draining /
  /// flag rebuilds).
  std::vector<std::pair<Key, Value>> Items() const {
    std::vector<std::pair<Key, Value>> out;
    out.reserve(size_);
    for (const Entry& e : slots_) {
      if (e.used) out.emplace_back(e.key, e.value);
    }
    std::sort(out.begin(), out.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    return out;
  }

  void Clear() { *this = Stash(); }

 private:
  struct Entry {
    Key key{};
    Value value{};
    bool used = false;
  };

  static constexpr size_t kAbsent = static_cast<size_t>(-1);
  static constexpr size_t kMinSlots = 16;

  size_t Home(const Key& key) const {
    const uint64_t h = std::hash<Key>{}(key);
    return static_cast<size_t>((h * 0x9E3779B97F4A7C15ull) >> shift_);
  }
  size_t Next(size_t i) const { return (i + 1) & (slots_.size() - 1); }

  size_t Locate(const Key& key) const {
    if (size_ == 0) return kAbsent;
    for (size_t i = Home(key); slots_[i].used; i = Next(i)) {
      if (slots_[i].key == key) return i;
    }
    return kAbsent;
  }

  /// Doubles the array (kMinSlots at first) and re-inserts every entry.
  void Grow() {
    std::vector<Entry> old = std::move(slots_);
    const size_t cap = old.empty() ? kMinSlots : 2 * old.size();
    slots_.assign(cap, Entry{});
    shift_ = 64 - static_cast<uint32_t>(std::countr_zero(cap));
    for (Entry& e : old) {
      if (!e.used) continue;
      size_t j = Home(e.key);
      while (slots_[j].used) j = Next(j);
      slots_[j] = std::move(e);
    }
  }

  std::vector<Entry> slots_;
  size_t size_ = 0;
  uint32_t shift_ = 64;
};

}  // namespace mccuckoo

#endif  // MCCUCKOO_CORE_STASH_H_
