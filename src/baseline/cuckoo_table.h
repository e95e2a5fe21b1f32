// Single-copy d-ary cuckoo hash table — both of the paper's baselines
// (§IV.A.3) in one class: the standard table ("Cuckoo") at
// slots_per_bucket l = 1, and the Blocked Cuckoo Hash Table [18] ("BCHT",
// 3-hash 3-slot in the experiments) at l > 1.
//
// Each key lives in exactly one slot of one of its d candidate buckets. The
// table has no on-chip helping structure, so every question about a bucket
// — does it have a free slot? does it hold the key? — costs one off-chip
// read; one bucket is fetched per access regardless of l ([33]), so a
// lookup costs at most d reads. The set-associativity inside a bucket
// absorbs most collisions at l > 1, pushing the achievable load well past
// 95%. The rest are resolved by a kick-out chain bounded by maxloop that
// evicts one slot of the chosen victim bucket (random walk or MinCounter),
// or by a breadth-first search for the shortest chain to a free slot.
// Overruns go to a stash (modeling the common CHS arrangement [22]) so that
// no key is ever lost, but without McCuckoo's counters every main-table
// miss must probe the stash.
//
// The baseline is the multi-copy engine's degenerate case, so it is a
// third layout of TableSkeleton: the skeleton's placement, random walk,
// BFS, stash tail, batching and metrics run it, told apart by the one
// layout constant kOnChipCounters = false (see table_skeleton.h). This
// layout supplies only its storage, its probe and the trivial copy
// location of a key that has one copy.

#ifndef MCCUCKOO_BASELINE_CUCKOO_TABLE_H_
#define MCCUCKOO_BASELINE_CUCKOO_TABLE_H_

#include <array>
#include <cstdint>
#include <vector>

#include "src/common/bits.h"
#include "src/common/prefetch.h"
#include "src/common/status.h"
#include "src/core/config.h"
#include "src/core/table_skeleton.h"
#include "src/hash/hash_family.h"
#include "src/obs/metrics.h"

namespace mccuckoo {

/// The baseline's stand-in for a counter store: one valid bit per slot.
/// The bit is the record's own, so the engine charges it with its bucket's
/// off-chip read and with the record's write, as the stash flags are, and
/// no on-chip memory is modeled. As a counter a slot reads 1 (its
/// occupant's sole copy) or 0 (empty); there are no fingerprints and no
/// tombstones. The stores are plain: a baseline only ever runs the single
/// writer.
class ValidBitArray {
 public:
  explicit ValidBitArray(size_t num_slots) : bits_(num_slots) {}

  uint64_t PeekCounter(size_t i) const { return bits_.Test(i) ? 1 : 0; }
  bool PeekTombstone(size_t) const { return false; }
  uint8_t PeekTag(size_t) const { return 0; }

  /// Sets (v != 0) or clears slot `i`'s valid bit.
  void Set(size_t i, uint64_t v) {
    if (v != 0) {
      bits_.Set(i);
    } else {
      bits_.Reset(i);
    }
  }
  void SetTag(size_t, uint8_t) {}

  void SwapStorage(ValidBitArray& other) { bits_.Swap(other.bits_); }

 private:
  BitArray bits_;
};

/// Classic d-ary cuckoo hash table with l-slot buckets (l = 1: standard
/// cuckoo; l > 1: BCHT). The entry points live in TableSkeleton.
template <typename Key, typename Value, typename Hasher = BobHasher>
  requires SeedableHasher<Hasher, Key>
class CuckooTable
    : public TableSkeleton<CuckooTable<Key, Value, Hasher>, Key, Value,
                           Hasher> {
  using Base = TableSkeleton<CuckooTable, Key, Value, Hasher>;
  friend Base;

 public:
  /// One off-chip record slot. Its valid bit is kept in the Storage's
  /// ValidBitArray and charged with the record.
  struct Slot {
    Key key{};
    Value value{};
  };

  /// The layout constant the skeleton's engine keys every baseline
  /// difference off: no on-chip counters, so a key has one copy and every
  /// look at a bucket is a charged off-chip read.
  static constexpr bool kOnChipCounters = false;

 private:
  using typename Base::Candidates;
  using typename Base::CopySet;
  using typename Base::ProbeResult;

 public:
  /// The configuration conditions Create() reports as Status. The
  /// constructor enforces the same conditions with an unconditional abort.
  static Status CheckOptions(const TableOptions& options) {
    return options.Validate();
  }

  /// Constructs a table; `options` must satisfy CheckOptions() (aborts
  /// otherwise — use Create() for untrusted configuration).
  explicit CuckooTable(const TableOptions& options)
      : Base(options, options.slots_per_bucket == 1 ? kSingleSlotRngSalt
                                                    : kBlockedRngSalt),
        mem_{std::vector<Slot>(options.capacity()),
             ValidBitArray(options.capacity())} {}

 private:
  using Base::opts_;
  using Base::stats_;

  static constexpr const char* kName = "CuckooTable";
  /// No fingerprints are stored.
  static constexpr uint8_t kTagMask = 0;
  // Walk RNG salts, one per layout: each layout keeps the stream its
  // paper outputs (bench/golden) were recorded with.
  static constexpr uint64_t kSingleSlotRngSalt = 0x1234ABCD5678EF00ull;
  static constexpr uint64_t kBlockedRngSalt = 0xBC47BC47BC47BC47ull;

  // --- TableSkeleton layout hooks -----------------------------------------

  const Slot& RecordAt(size_t idx) const { return mem_.slots[idx]; }
  Slot& RecordAt(size_t idx) { return mem_.slots[idx]; }
  uint32_t SlotsPerBucket() const { return opts_.slots_per_bucket; }
  static Slot CopyRecord(const Key& key, const Value& value, const size_t*,
                         uint32_t) {
    return Slot{key, value};
  }

  /// Batch stage 1's and scalar writes' prefetches: each 64 B line of
  /// every candidate bucket's slot range (one line at l = 1; l slots may
  /// straddle lines).
  void PrefetchCandidates(const Candidates* cand, size_t n,
                          bool for_write) const {
    const uint32_t l = opts_.slots_per_bucket;
    const size_t bucket_bytes = static_cast<size_t>(l) * sizeof(Slot);
    for (size_t i = 0; i < n; ++i) {
      for (uint32_t t = 0; t < opts_.num_hashes; ++t) {
        const char* base =
            reinterpret_cast<const char*>(&mem_.slots[cand[i].bucket[t] * l]);
        for (size_t off = 0; off < bucket_bytes; off += 64) {
          if (for_write) {
            PrefetchLine<1, 3>(base + off);
          } else {
            PrefetchLine<0, 1>(base + off);
          }
        }
      }
    }
  }

  /// Probes the candidate buckets in table order, one off-chip read each
  /// (charged by the kCharged instantiation), until one holds the key.
  /// There are no partitions: the probes are recorded under partition 0.
  template <bool kCharged, typename MetricsSink>
  ProbeResult ProbeMain(const Key& key, const Candidates& cand, Value* out,
                        MetricsSink& sink) const {
    const uint32_t l = opts_.slots_per_bucket;
    ProbeResult r;
    uint32_t probes = 0;
    for (uint32_t t = 0; t < opts_.num_hashes && !r.hit; ++t) {
      if constexpr (kCharged) ++stats_.offchip_reads;
      ++probes;
      for (uint32_t s = 0; s < l; ++s) {
        const size_t idx = cand.bucket[t] * l + s;
        const Slot& slot = mem_.slots[idx];
        if (slot.key == key && mem_.counters.PeekCounter(idx) != 0) {
          if (out != nullptr) *out = slot.value;
          r.hit = true;
          r.slot = idx;
          break;
        }
      }
    }
    if constexpr (kMetricsEnabled) {
      sink.RecordLookupOutcome(probes, r.hit ? 0 : -1);
      sink.RecordPartitionProbes(0, probes);
    }
    return r;
  }

  // --- Copy location: a key has one copy ------------------------------------

  template <typename Ctx>
  CopySet LocateOtherCopies(Ctx&, const Key&, uint8_t,
                            const std::array<size_t, kMaxHashes>&, size_t,
                            uint64_t) {
    return CopySet{};
  }

  template <typename Ctx>
  CopySet LocateAllCopies(Ctx&, const Key&, const Candidates&,
                          size_t known_slot) {
    CopySet out{};
    out.pos[out.count++] = known_slot;
    return out;
  }

  /// The storage: d * n * l records (bucket b owns [b*l, (b+1)*l)) and
  /// their valid bits.
  struct Storage {
    std::vector<Slot> slots;
    ValidBitArray counters;
    void Swap(Storage& o) {
      slots.swap(o.slots);
      counters.SwapStorage(o.counters);
    }
  };
  Storage mem_;
};

}  // namespace mccuckoo

#endif  // MCCUCKOO_BASELINE_CUCKOO_TABLE_H_
