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
// The write engine (TryPlace, LocateOtherCopies, RandomWalkInsert,
// BfsInsert) is written once against a writer context and compiled for the
// single writer and for the striped multi-writer protocol; see
// TableSkeleton's "Writer contexts".


#ifndef MCCUCKOO_CORE_MCCUCKOO_TABLE_H_
#define MCCUCKOO_CORE_MCCUCKOO_TABLE_H_

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdint>
#include <thread>
#include <vector>

#include "src/common/prefetch.h"
#include "src/common/status.h"
#include "src/core/config.h"
#include "src/core/counter_array.h"
#include "src/core/eviction.h"
#include "src/core/growth.h"
#include "src/core/seqlock.h"
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

 private:
  // Nested aggregates are defined before the operations: the
  // candidate-reusing member signatures below mention them.
  using typename Base::Candidates;
  using typename Base::ProbeResult;

  /// Up to d global indices holding copies of one key.
  struct CopySet {
    std::array<size_t, kMaxHashes> pos;
    uint32_t count = 0;
  };

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
  using Base::AlternateBuckets;
  using Base::ClaimAlternates;
  using Base::CommitRehash;
  using Base::ComputeCandidates;
  using Base::kick_history_;
  using Base::kNoBucket;
  using Base::opts_;
  using Base::redundant_writes_;
  using Base::rng_;
  using Base::ScratchRebuild;
  using Base::size_;
  using Base::stash_;
  using Base::StashEmpty;
  using Base::StashOverflow;
  using Base::stats_;
  using typename Base::ChainStats;

  static constexpr const char* kName = "McCuckooTable";
  /// The counter byte keeps the low nibble of a key's 8-bit fingerprint.
  static constexpr uint8_t kTagMask = 0x0F;

  // --- TableSkeleton layout hooks -----------------------------------------

  const Bucket& RecordAt(size_t idx) const { return mem_.table[idx]; }
  Bucket& RecordAt(size_t idx) { return mem_.table[idx]; }
  /// A copy set entry is already a global slot (= bucket) index.
  static size_t SlotIndex(size_t idx) { return idx; }
  static size_t BucketOf(size_t slot) { return slot; }

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

  // --- the write engine (one per layout, compiled per writer context) -----

  /// Writes (key, value) into bucket `idx` with its fingerprint `tag` (the
  /// caller already holds it: Candidates::tag for the inserted key, the
  /// stored nibble for a moved occupant), in the bucket's seqlock window.
  /// The bucket's stash flag, kept apart, is sticky: occupant changes leave
  /// it as it is.
  template <typename Ctx>
  void Store(Ctx& ctx, size_t idx, const Key& key, const Value& value,
             uint8_t tag) {
    ctx.Open(idx);
    ctx.Charge(&AccessStats::offchip_writes);
    Bucket& b = mem_.table[idx];
    b.key = key;
    b.value = value;
    ctx.SetTag(idx, tag);
  }

  /// Applies insertion principles 1-3: fills empty candidates, then
  /// overwrites redundant copies in decreasing counter order while
  /// V >= placed + 2. Returns the number of copies placed (0 = none).
  /// Updates counters of placed copies and of every displaced victim. A
  /// victim whose other copies another writer holds is skipped; the caller
  /// restarts when that leaves a non-sole-copy candidate unplaced.
  template <typename Ctx>
  uint32_t TryPlace(Ctx& ctx, const Key& key, const Value& value,
                    const Candidates& cand) {
    const uint32_t d = opts_.num_hashes;
    std::array<bool, kMaxHashes> taken{};
    std::array<size_t, kMaxHashes> placed{};
    uint32_t n_placed = 0;

    // Principle 1: occupy all the empty candidate buckets. Tombstoned
    // entries read as counter 0: "treated as zero for insertion"
    // (§III.B.3), so they are recycled transparently.
    for (uint32_t t = 0; t < d; ++t) {
      if (ctx.Counter(mem_.counters, cand.bucket[t]) == 0) {
        Store(ctx, cand.bucket[t], key, value, cand.tag);
        placed[n_placed++] = cand.bucket[t];
        taken[t] = true;
      }
    }

    // Principles 2+3: overwrite occupied candidates in decreasing counter
    // order while the victim keeps a lead of two copies; never touch value
    // 1. Counters are re-read each round: one insertion can displace two
    // copies of the *same* victim, whose counter drops in between.
    while (n_placed < d) {
      int best = -1;
      uint64_t best_v = 0;
      for (uint32_t t = 0; t < d; ++t) {
        if (taken[t]) continue;
        const uint64_t cur = ctx.Counter(mem_.counters, cand.bucket[t]);
        if (cur > best_v) {
          best_v = cur;
          best = static_cast<int>(t);
        }
      }
      if (best < 0 || best_v < 2 || best_v < n_placed + 2) break;
      taken[best] = true;
      if (OverwriteRedundantCopy(ctx, cand.bucket[best], best_v, key, value,
                                 cand.tag)) {
        placed[n_placed++] = cand.bucket[best];
      }
    }

    if (n_placed == 0) return 0;
    for (uint32_t i = 0; i < n_placed; ++i) {
      ctx.Open(placed[i]);
      ctx.SetCounter(placed[i], n_placed);
    }
    ctx.Add(redundant_writes_, n_placed - 1);
    return n_placed;
  }

  /// Displaces the redundant copy at `victim_idx` (counter `v` >= 2) with
  /// (key, value, tag), decrementing the victim item's other copies'
  /// counters. Fails, before any mutation, when another writer holds one
  /// of those copies.
  template <typename Ctx>
  bool OverwriteRedundantCopy(Ctx& ctx, size_t victim_idx, uint64_t v,
                              const Key& key, const Value& value,
                              uint8_t tag) {
    assert(v >= 2);
    ctx.Charge(&AccessStats::offchip_reads);  // the Fig-10a read
    const Key victim_key = mem_.table[victim_idx].key;
    const std::array<size_t, kMaxHashes> alt =
        AlternateBuckets(victim_key, victim_idx);
    if (!ClaimAlternates(ctx, alt, victim_idx)) return false;
    const CopySet others = LocateOtherCopies(
        ctx, victim_key, mem_.counters.PeekTag(victim_idx), alt, victim_idx, v);
    for (uint32_t i = 0; i < others.count; ++i) {
      ctx.Open(others.pos[i]);
      ctx.SetCounter(others.pos[i], v - 1);
    }
    Store(ctx, victim_idx, key, value, tag);
    return true;
  }

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

  /// Counter-guided random walk (§III.D), single writer only: at each
  /// step, if the in-hand item has any empty or redundant candidate the
  /// counters reveal it and the chain ends immediately; otherwise a
  /// sole-copy occupant (never the bucket just written) is evicted per the
  /// configured policy — uniform random, MinCounter's coldest bucket, or
  /// bubbling's deterministic level cycle. On maxloop overrun the in-hand
  /// item gets one final placement attempt and is otherwise stashed —
  /// candidates provably all sole copies — with its flags set (§III.E).
  template <typename Ctx>
  InsertResult RandomWalkInsert(Ctx& ctx, Key key, Value value,
                                uint32_t* chain_len_out) {
    size_t exclude = kNoBucket;
    int32_t from_level = -1;  // bubbling: level the in-hand item left
    uint32_t chain = 0;
    for (uint32_t loop = 0; loop < opts_.maxloop; ++loop) {
      Candidates cand = ComputeCandidates(key);
      if (loop > 0 && TryPlace(ctx, key, value, cand) > 0) {
        ctx.Add(size_, size_t{1});  // net effect of the whole chain
        *chain_len_out = chain;
        return InsertResult::kInserted;
      }
      // All candidates hold sole copies: evict per the configured policy,
      // avoiding the bucket we just wrote (no immediate ping-pong).
      const uint32_t t =
          opts_.eviction_policy == EvictionPolicy::kBubble
              ? PickBubbleVictim(cand.bucket, opts_.num_hashes, exclude,
                                 from_level)
              : PickVictim(cand.bucket, opts_.num_hashes, exclude,
                           kick_history_, rng_);
      const size_t idx = cand.bucket[t];
      ctx.Charge(&AccessStats::offchip_reads);
      Key vk = mem_.table[idx].key;
      Value vv = mem_.table[idx].value;
      Store(ctx, idx, key, value, cand.tag);
      // Counter stays 1: the bucket still holds a sole copy.
      ctx.Kick(idx);
      exclude = idx;
      from_level = static_cast<int32_t>(t);
      key = std::move(vk);
      value = std::move(vv);
      ++chain;
    }
    // The loop's last iteration evicted one more victim without giving the
    // newly carried item a placement attempt of its own. Complete that step
    // before stashing: otherwise an item with an empty or redundant
    // candidate lands in the stash, and the kDisabled stash screen — which
    // relies on every stashed key having seen all-ones counters — would
    // veto that key's own lookups.
    *chain_len_out = chain;
    const Candidates cand = ComputeCandidates(key);
    if (TryPlace(ctx, key, value, cand) > 0) {
      ctx.Add(size_, size_t{1});
      return InsertResult::kInserted;
    }
    // Insertion failure: park the in-hand item in the stash.
    return StashOverflow(ctx, key, value, cand, /*dead_end=*/false, 0);
  }

  /// Counter-aware breadth-first search for the shortest eviction chain
  /// (§III.D crossed with [3]). Entered only when TryPlace placed nothing
  /// and every candidate of the in-hand key holds a sole copy — so all
  /// roots are valid interior nodes. The search itself reads one off-chip
  /// bucket per expanded node (the occupant key, to compute its
  /// alternates) and otherwise steers entirely by the on-chip counters:
  ///
  ///   counter == 0  -> free terminal (empty or tombstoned bucket);
  ///   counter >= 2  -> redundant terminal: "evicting" the occupant is a
  ///                    pure counter decrement of its other copies — the
  ///                    multi-copy advantage that keeps chains short where
  ///                    the single-copy BFS must walk to a true hole;
  ///   counter == 1  -> interior node, children = occupant's alternates.
  ///
  /// The search mutates nothing (a striped writer runs it racily over
  /// unclaimed buckets). The chain is then claimed and checked
  /// (ctx.ClaimChain) and shifted backward terminal-first under open
  /// seqlock stripes, published by the caller's ctx.Publish(). On a dead
  /// end the table is untouched, so the stash tail inherits the all-ones
  /// invariant directly from the TryPlace screen; a striped writer also
  /// stashes after kChainAttempts contended chains.
  template <typename Ctx>
  InsertResult BfsInsert(Ctx& ctx, const Key& key, const Value& value,
                         const Candidates& cand, ChainStats* chain) {
    const uint32_t d = opts_.num_hashes;
    std::array<uint64_t, kMaxHashes> roots{};
    for (uint32_t t = 0; t < d; ++t) roots[t] = cand.bucket[t];
    chain->budget = ctx.BfsBudget();
    bool dead_end = false;
    for (int attempt = 0; attempt < Ctx::kChainAttempts; ++attempt) {
      BfsPathResult path;
      {
        SeqlockReadCritical crit;  // unclaimed buckets mutate underneath
        path = BfsFindPath(
            roots.data(), d, chain->budget,
            [&](uint64_t id, auto&& emit, auto&& terminal) {
              const size_t bucket = static_cast<size_t>(id);
              ctx.Charge(&AccessStats::offchip_reads);  // the one read
              const std::array<size_t, kMaxHashes> oc =
                  AlternateBuckets(mem_.table[bucket].key, bucket);
              for (uint32_t t = 0; t < d; ++t) {
                const size_t alt = oc[t];
                if (alt == bucket) continue;
                if (ctx.Counter(mem_.counters, alt) != 1) {
                  terminal(alt);  // 0 = free, >= 2 = redundant copy
                  return;
                }
                // The child will be expanded (one occupant read) a few
                // iterations from now: issuing the fetch here overlaps the
                // DRAM latency of the whole frontier instead of paying one
                // serial miss per expanded node.
                __builtin_prefetch(&mem_.table[alt], 0, 1);
                emit(alt);
              }
            });
      }
      chain->nodes += path.nodes_expanded;
      ctx.ObserveBfs(path.found);
      if (!path.found) {
        dead_end = true;
        break;
      }
      const size_t mark = ctx.Mark();
      bool applied = ctx.ClaimChain(path);
      const size_t terminal = static_cast<size_t>(path.terminal);
      const uint64_t term_v =
          applied ? mem_.counters.PeekCounter(terminal) : 0;
      applied = applied && term_v != 1;  // else no longer a terminal
      // Apply backward: the last interior occupant moves into the
      // terminal, each predecessor into its successor, and the new key
      // lands in the root. Interior occupants are sole copies, so moves
      // are plain bucket stores; only the terminal changes counters, and
      // it moves first: its redundant-copy claim is the only step that can
      // fail, and it fails before any mutation.
      size_t dst = terminal;
      for (size_t i = path.node.size(); applied && i-- > 0;) {
        const size_t src = static_cast<size_t>(path.node[i]);
        const Bucket moved = mem_.table[src];  // read during the search
        const uint8_t moved_tag = mem_.counters.PeekTag(src);
        if (dst == terminal) {
          if (term_v >= 2) {
            // Redundant terminal: displace one copy of the occupant, which
            // decrements its other copies' counters (zero relocations).
            applied = OverwriteRedundantCopy(ctx, dst, term_v, moved.key,
                                             moved.value, moved_tag);
            if (!applied) break;
          } else {
            Store(ctx, dst, moved.key, moved.value, moved_tag);
          }
          ctx.Open(dst);
          ctx.SetCounter(dst, 1);  // the moved item is a sole copy
        } else {
          Store(ctx, dst, moved.key, moved.value, moved_tag);
          // Counter stays 1: dst already held a sole copy.
        }
        ctx.Kick(src);
        dst = src;
      }
      if (applied) {
        Store(ctx, static_cast<size_t>(path.node.front()), key, value,
              cand.tag);
        ctx.Add(size_, size_t{1});
        chain->len = static_cast<uint32_t>(path.node.size());
        return InsertResult::kInserted;
      }
      ctx.Release(mark);
      std::this_thread::yield();
    }
    return StashOverflow(ctx, key, value, cand, dead_end, chain->nodes);
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
