// Multi-copy Cuckoo hash table (McCuckoo) — the paper's core contribution.
//
// A d-ary, one-slot-per-bucket cuckoo table that, instead of committing an
// inserted item to a single bucket, writes a copy into *every* free
// candidate bucket and tracks each bucket occupant's total copy count in a
// compact on-chip counter array. The counters then drive every operation:
//
//  * Insertion (§III.B.1) — principles:
//      1. occupy all empty candidate buckets;
//      2. never overwrite a bucket of value 1 (a sole copy);
//      3. overwrite the rest in decreasing counter order while the victim
//         still has at least two more copies than the inserted item
//         (V >= n_x + 2).
//    A real collision only occurs when all candidates hold sole copies;
//    then a counter-guided random walk relocates items, and maxloop
//    overruns go to an off-chip stash.
//  * Lookup (§III.B.2) — candidates are partitioned by counter value;
//    partitions smaller than their value are impossible and skipped; a
//    partition of size S and value V needs at most S - V + 1 probes. With
//    deletions disabled, a zero counter anywhere proves the key was never
//    inserted (Bloom property: zero off-chip accesses).
//  * Deletion (§III.B.3) — all V copies are located, then only their on-chip
//    counters are reset (or tombstoned): zero off-chip writes.
//  * Stash screening (§III.E/F) — a 1-bit flag per bucket (charged as part
//    of the bucket, read back for free during lookups) plus the rule "a
//    stashed item always saw all-ones counters" suppress almost every stash
//    probe.
//
// One point the paper leaves implicit is made explicit here: overwriting a
// redundant copy of victim B (counter V >= 2) requires decrementing B's
// *other* copies' counters, whose positions are only learned by reading B's
// key from the overwritten bucket (the read cost visible in Fig 10a) and
// then identifying B's copies inside the value-V partition of B's
// candidates — by pigeonhole inference when the partition has exactly V
// members, by further reads otherwise. See LocateOtherCopies().
//
// Placement, redundant-copy displacement, the random walk and the BFS are
// TableSkeleton's, written once at slot granularity for both layouts (here
// l = 1: a slot is its bucket); this layout supplies the storage, the
// probe and the pigeonhole copy location behind them.


#ifndef MCCUCKOO_CORE_MCCUCKOO_TABLE_H_
#define MCCUCKOO_CORE_MCCUCKOO_TABLE_H_

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdint>
#include <vector>

#include "src/common/prefetch.h"
#include "src/common/status.h"
#include "src/core/config.h"
#include "src/core/counter_array.h"
#include "src/core/growth.h"
#include "src/core/table_skeleton.h"
#include "src/hash/hash_family.h"
#include "src/obs/metrics.h"

namespace mccuckoo {

/// Multi-copy cuckoo hash table. Key must be equality-comparable and
/// hashable by Hasher; Key and Value must be copyable. Not thread-safe (see
/// ShardedMcCuckoo for the concurrent front-end). The layout-independent
/// entry points (batching, optimistic reads, Rehash, stash upkeep,
/// introspection) live in TableSkeleton.
template <typename Key, typename Value, typename Hasher = BobHasher>
  requires SeedableHasher<Hasher, Key>
class McCuckooTable
    : public TableSkeleton<McCuckooTable<Key, Value, Hasher>, Key, Value,
                           Hasher> {
  using Base = TableSkeleton<McCuckooTable, Key, Value, Hasher>;
  friend Base;
  friend struct McCuckooTestPeer;  // corrupts state to prove checks fire

 public:
  /// One off-chip bucket: the stored record alone. The paper keeps the
  /// bucket's 1-bit stash flag (§III.E) in the same memory word, and the
  /// charges still bill it with the bucket read; physically it lives in the
  /// Storage's flag array (TableSkeleton::FlagAt), so an 8-byte key and
  /// value make a 16 B bucket that never straddles a cache line.
  /// Occupancy is defined by the on-chip counter, not by the bucket itself.
  struct Bucket {
    Key key{};
    Value value{};
  };

  /// The skeleton's layout constant: on-chip copy counters drive the
  /// engine (the baseline CuckooTable has none).
  static constexpr bool kOnChipCounters = true;

 private:
  // Nested aggregates are defined before the operations: the
  // candidate-reusing member signatures below mention them.
  using typename Base::Candidates;
  using typename Base::CopySet;
  using typename Base::ProbeResult;


 public:
  /// The configuration conditions Create() reports as Status. The
  /// constructor enforces the same conditions with an unconditional abort,
  /// so Debug and Release builds agree on what direct construction with
  /// unsupported options does (it used to be a Debug-only assert).
  static Status CheckOptions(const TableOptions& options) {
    if (Status s = options.Validate(); !s.ok()) return s;
    if (options.slots_per_bucket != 1) {
      return Status::InvalidArgument(
          "McCuckooTable is single-slot; use BlockedMcCuckooTable");
    }
    return Status::OK();
  }

  /// Constructs a table; `options` must satisfy CheckOptions() (aborts
  /// otherwise — use Create() for untrusted configuration).
  explicit McCuckooTable(const TableOptions& options)
      : Base(options, /*rng_salt=*/0xA5A5A5A5A5A5A5A5ull),
        mem_{std::vector<Bucket>(options.num_hashes *
                                 options.buckets_per_table),
             BitArray(static_cast<size_t>(options.num_hashes) *
                      options.buckets_per_table),
             TagCounterArray(options.num_hashes * options.buckets_per_table,
                             options.num_hashes, stats_.get())} {}

  // --- Core operations (Insert, InsertOrAssign, Erase, Find, their
  // batched and multi-writer forms are TableSkeleton's) ---------------------

  /// Probe kernel the lookup paths use. The single-slot table screens with
  /// one fingerprint byte per candidate — a header-screened scalar probe;
  /// only the blocked table has whole-bucket headers for the SIMD kernels.
  const char* probe_variant() const { return "scalar"; }

 private:
  using Base::CommitRehash;
  using Base::opts_;
  using Base::ScratchRebuild;
  using Base::size_;
  using Base::stash_;
  using Base::StashEmpty;
  using Base::stats_;

  static constexpr const char* kName = "McCuckooTable";
  /// The counter byte keeps the low nibble of a key's 8-bit fingerprint.
  static constexpr uint8_t kTagMask = 0x0F;

  // --- TableSkeleton layout hooks -----------------------------------------

  const Bucket& RecordAt(size_t idx) const { return mem_.table[idx]; }
  Bucket& RecordAt(size_t idx) { return mem_.table[idx]; }
  /// One slot per bucket, as a constant: the skeleton's in-bucket loops
  /// fold away and a global slot index is the bucket index.
  static constexpr uint32_t SlotsPerBucket() { return 1; }
  /// The record every copy of a placed key shares (no hints here).
  static Bucket CopyRecord(const Key& key, const Value& value, const size_t*,
                           uint32_t) {
    return Bucket{key, value};
  }

  /// Batch stage 1's and scalar writes' prefetches (see
  /// TableSkeleton::StageCandidates and StageWriteCandidates).
  void PrefetchCandidates(const Candidates* cand, size_t n,
                          bool for_write) const {
    const uint32_t d = opts_.num_hashes;
    // Counter words first: stage 2 consults them before any bucket, so
    // they have the shortest deadline.
    for (size_t i = 0; i < n; ++i) {
      for (uint32_t t = 0; t < d; ++t) {
        mem_.counters.Prefetch(cand[i].bucket[t]);
      }
    }
    for (size_t i = 0; i < n; ++i) {
      for (uint32_t t = 0; t < d; ++t) {
        if (for_write) {
          PrefetchLine<1, 3>(&mem_.table[cand[i].bucket[t]]);
        } else {
          PrefetchLine<0, 1>(&mem_.table[cand[i].bucket[t]]);
        }
      }
    }
  }

  /// The main-table probe of the lookup principles (§III.B.2) over
  /// precomputed candidates, behind every read form and the single-writer
  /// writes. kCharged charges the paper's model exactly (Find,
  /// InsertOrAssign, Erase); the uncharged instantiation touches no
  /// AccessStats and is safe on torn optimistic reads (every index is a
  /// candidate's). `sink` receives the lookup metrics.
  template <bool kCharged, typename MetricsSink>
  ProbeResult ProbeMain(const Key& key, const Candidates& cand, Value* out,
                        MetricsSink& sink) const {
    const uint32_t d = opts_.num_hashes;
    if constexpr (kCharged) {
      // One bulk charge equal to what the per-candidate model read: d
      // counter reads, doubled by the tombstone probe in kTombstone mode.
      // The byte peeks below are the same logical reads.
      mem_.counters.ChargeReads(
          static_cast<uint64_t>(d) *
          (opts_.deletion_mode == DeletionMode::kTombstone ? 2 : 1));
    }
    // With pruning, candidates are grouped by counter value and the groups
    // probed from value d down to 1 (principles 2+3: a group of size S and
    // value V is impossible when S < V, else at most S - V + 1 of its
    // members are probed), and not at all once the Bloom rule fires
    // (principle 1, sound whenever counters cannot silently return to true
    // zero, i.e. in kDisabled and kTombstone modes). Without pruning,
    // every candidate with a live copy forms one group of value 1, probed
    // whole in candidate order. Tombstones belong to no group.
    const bool prune = opts_.lookup_pruning_enabled;
    uint64_t counter[kMaxHashes] = {};
    bool tomb[kMaxHashes] = {};
    bool any_true_empty = false;
    for (uint32_t t = 0; t < d; ++t) {
      counter[t] = mem_.counters.PeekCounter(cand.bucket[t]);
      tomb[t] = mem_.counters.PeekTombstone(cand.bucket[t]);
      if (counter[t] == 0 && !tomb[t]) any_true_empty = true;
    }
    // Probe tallies, recorded once on the way out.
    uint32_t probes_total = 0;
    std::array<uint8_t, kMaxHashes + 1> probes_by_value{};
    auto record = [&](int32_t hit_value) {
      if constexpr (kMetricsEnabled) {
        sink.RecordLookupOutcome(probes_total, hit_value);
        for (uint32_t val = 1; val <= d; ++val) {
          sink.RecordPartitionProbes(val, probes_by_value[val]);
        }
      }
    };
    ProbeResult r;
    uint32_t read_mask = 0;
    if (!prune || !any_true_empty ||
        opts_.deletion_mode == DeletionMode::kResetCounters) {
      uint64_t group[kMaxHashes] = {};
      for (uint32_t t = 0; t < d; ++t) {
        group[t] = prune ? (tomb[t] ? 0 : counter[t]) : (counter[t] != 0);
      }
      const uint8_t tag_nibble = cand.tag & kTagMask;
      for (uint64_t value = prune ? d : 1; value >= 1; --value) {
        uint32_t members[kMaxHashes] = {};
        uint32_t s = 0;
        for (uint32_t t = 0; t < d; ++t) {
          if (group[t] == value) members[s++] = t;
        }
        if (s < value) continue;  // impossible group
        const uint32_t probes = s - static_cast<uint32_t>(value) + 1;
        for (uint32_t i = 0; i < probes; ++i) {
          // One modeled bucket read. A fingerprint mismatch proves the
          // occupant is a different key, so the bucket line is never
          // touched then, but the read the paper's model performs is still
          // charged and tallied (its hardware has no tags); the screen
          // reads the flag if it needs it.
          const uint32_t t = members[i];
          ++probes_total;
          ++probes_by_value[counter[t] <= kMaxHashes ? counter[t]
                                                     : kMaxHashes];
          if constexpr (kCharged) ++stats_->offchip_reads;
          read_mask |= 1u << t;
          const size_t idx = cand.bucket[t];
          if (mem_.counters.PeekTag(idx) != tag_nibble) continue;
          const Bucket& b = mem_.table[idx];
          if (!(b.key == key)) continue;
          if (out != nullptr) *out = b.value;
          record(static_cast<int32_t>(counter[t]));
          r.hit = true;
          r.slot = idx;
          return r;
        }
      }
    }
    record(-1);
    r.read_mask = read_mask;
    if (!StashEmpty()) {  // the screen reads the counter facts only then
      r.any_true_empty = any_true_empty;
      for (uint32_t t = 0; t < d; ++t) {
        r.all_sole = r.all_sole && counter[t] == 1;
      }
    }
    return r;
  }

  /// MaybeGrow's growth step: a bucket split where CanSplitInto allows
  /// it, the full Rehash otherwise.
  Status Grow(const GrowthDecision& d) {
    return CanSplitInto(d) ? SplitGrow(d.new_buckets_per_table)
                           : Base::Grow(d);
  }

  // --- Copy location (the skeleton's placement and eviction call it) -------

  /// Finds the v-1 buckets other than `known_idx` holding copies of `key`
  /// (fingerprint nibble `tag`, counter value `v`, claimed candidate
  /// buckets `cand`). All copies lie in the value-v partition of the
  /// candidates. They are found on-chip first: exactly
  /// v - 1 partition members are copies and all carry the tag, so when
  /// exactly v - 1 members pass the tag screen they are the copies and no
  /// key is read; only a colliding tag costs key compares. The charges are
  /// the paper's model, which has no tags: it reads partition members in
  /// order until the unread remainder must be the key's by pigeonhole.
  template <typename Ctx>
  CopySet LocateOtherCopies(Ctx& ctx, const Key& key, uint8_t tag,
                            const std::array<size_t, kMaxHashes>& cand,
                            size_t known_idx, uint64_t v) {
    std::array<size_t, kMaxHashes> group{};
    std::array<bool, kMaxHashes> copy{};
    uint32_t n_group = 0;
    uint32_t n_tagged = 0;
    for (uint32_t t = 0; t < opts_.num_hashes; ++t) {
      const size_t idx = cand[t];
      if (idx == known_idx || ctx.Counter(mem_.counters, idx) != v) continue;
      copy[n_group] = mem_.counters.PeekTag(idx) == tag;
      n_tagged += copy[n_group];
      group[n_group++] = idx;
    }
    const uint32_t need = static_cast<uint32_t>(v) - 1;
    assert(n_group >= need);
    uint32_t confirmed = 0;
    for (uint32_t i = 0; i < n_group; ++i) {
      if (n_tagged != need) {
        copy[i] = copy[i] && mem_.table[group[i]].key == key;
      }
      if (confirmed < need && n_group - i > need - confirmed) {
        ctx.Charge(&AccessStats::offchip_reads);
        confirmed += copy[i];
      }
    }
    CopySet out{};
    for (uint32_t i = 0; i < n_group; ++i) {
      if (copy[i]) out.pos[out.count++] = group[i];
    }
    assert(out.count == need);
    return out;
  }

  /// Every copy of `key`, found at `known_idx` among its claimed candidates
  /// `cand`, for erase/update: its counter (read by the probe, uncharged
  /// here) gives the copy count.
  template <typename Ctx>
  CopySet LocateAllCopies(Ctx& ctx, const Key& key, const Candidates& cand,
                          size_t known_idx) {
    CopySet out =
        LocateOtherCopies(ctx, key, cand.tag & kTagMask, cand.bucket,
                          known_idx, mem_.counters.PeekCounter(known_idx));
    out.pos[out.count++] = known_idx;
    return out;
  }

  /// Whether a growth decision can take the SplitGrow path. HashFamily maps
  /// a key with FastRange64(h_t(key), n), and h_t does not depend on n, so
  /// under the same seed FastRange64(h, k * n) lies in [k * b, k * b + k)
  /// for b = FastRange64(h, n): growing by an integer factor k sends every
  /// bucket's occupant to a bucket no other old bucket feeds. The split keeps
  /// each copy count but scatters a key's copies away from the buckets its
  /// other candidates' occupants move to, which leaves true-zero counters
  /// among a live key's candidates — sound only without the Bloom rule
  /// ("a zero candidate counter proves absence"), i.e. in kResetCounters.
  bool CanSplitInto(const GrowthDecision& d) const {
    return d.action == GrowthAction::kGrow &&
           opts_.deletion_mode == DeletionMode::kResetCounters &&
           d.new_buckets_per_table % opts_.buckets_per_table == 0;
  }

  /// Growth by bucket splitting (see CanSplitInto): walks the old and new
  /// arrays in order, moving each occupied bucket's key, value, counter
  /// and tag from bucket b of sub-table t to FastRange64(h_t(key), k * n)
  /// in the same sub-table, under the unchanged seed. Counters stay equal
  /// to live copy counts, since every copy of a key moves. Stash flags
  /// start clear; only the stash is re-inserted, so a key that is stashed
  /// again sets its flags afresh. Commits like Rehash.
  Status SplitGrow(uint64_t new_buckets_per_table) {
    const uint64_t t0 = MetricsNowNs();
    TableOptions new_opts = opts_;
    new_opts.buckets_per_table = new_buckets_per_table;
    if (Status s = new_opts.Validate(); !s.ok()) return s;
    McCuckooTable rebuilt = ScratchRebuild(new_opts);
    const uint64_t n = opts_.buckets_per_table;
    stats_->offchip_reads += mem_.table.size();  // full scan of the old table
    for (uint32_t t = 0; t < opts_.num_hashes; ++t) {
      const size_t from_base = static_cast<size_t>(t) * n;
      const size_t to_base = static_cast<size_t>(t) * new_buckets_per_table;
      for (size_t from = from_base; from < from_base + n; ++from) {
        const uint64_t c = mem_.counters.PeekCounter(from);
        if (c == 0) continue;
        const Bucket& b = mem_.table[from];
        const size_t to = to_base + rebuilt.family_.Bucket(b.key, t);
        assert((to - to_base) / (new_buckets_per_table / n) ==
               from - from_base);
        Bucket& dst = rebuilt.mem_.table[to];
        dst.key = b.key;
        dst.value = b.value;
        ++rebuilt.stats_->offchip_writes;
        rebuilt.mem_.counters.Set(to, c);
        rebuilt.mem_.counters.SetTag(to, mem_.counters.PeekTag(from));
      }
    }
    rebuilt.size_ = size_.load();
    std::vector<Key> keys;
    std::vector<Value> values;
    keys.reserve(stash_.size());
    values.reserve(stash_.size());
    for (const auto& [k, v] : stash_.Items()) {
      ++stats_->offchip_reads;
      keys.push_back(k);
      values.push_back(v);
    }
    rebuilt.InsertBatch(keys, values);
    CommitRehash(std::move(rebuilt), t0, this->TotalItems());
    return Status::OK();
  }

  /// The reader-visible storage: buckets, per-bucket stash flags and the
  /// on-chip counter bytes. A Rehash commit under live optimistic readers
  /// swaps it pointer-wise and retires the old one whole
  /// (TableSkeleton::CommitRebuild).
  struct Storage {
    std::vector<Bucket> table;
    BitArray flags;  // one stash flag per bucket (TableSkeleton::FlagAt)
    TagCounterArray counters;
    void Swap(Storage& o) {
      table.swap(o.table);
      flags.Swap(o.flags);
      counters.SwapStorage(o.counters);
    }
  };
  Storage mem_;
};

}  // namespace mccuckoo

#endif  // MCCUCKOO_CORE_MCCUCKOO_TABLE_H_
