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
//  * Stash screening (§III.E/F) — a 1-bit flag per bucket (stored with the
//    bucket, read back for free during lookups) plus the rule "a stashed
//    item always saw all-ones counters" suppress almost every stash probe.
//
// One point the paper leaves implicit is made explicit here: overwriting a
// redundant copy of victim B (counter V >= 2) requires decrementing B's
// *other* copies' counters, whose positions are only learned by reading B's
// key from the overwritten bucket (the read cost visible in Fig 10a) and
// then identifying B's copies inside the value-V partition of B's
// candidates — by pigeonhole inference when the partition has exactly V
// members, by further reads otherwise. See LocateOtherCopies().


#ifndef MCCUCKOO_CORE_MCCUCKOO_TABLE_H_
#define MCCUCKOO_CORE_MCCUCKOO_TABLE_H_

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

#include "src/common/prefetch.h"
#include "src/common/status.h"
#include "src/core/config.h"
#include "src/core/counter_array.h"
#include "src/core/eviction.h"
#include "src/core/growth.h"
#include "src/core/lock_stripes.h"
#include "src/core/seqlock.h"
#include "src/core/table_skeleton.h"
#include "src/hash/hash_family.h"
#include "src/obs/metrics.h"
#include "src/obs/span_recorder.h"

namespace mccuckoo {

/// Multi-copy cuckoo hash table. Key must be equality-comparable and
/// hashable by Hasher; Key and Value must be copyable. Not thread-safe (see
/// ShardedMcCuckoo for the concurrent front-end). The layout-independent
/// entry points (batching, optimistic reads, Rehash, stash upkeep,
/// introspection) live in TableSkeleton.
template <typename Key, typename Value, typename Hasher = BobHasher,
          typename Family = HashFamily<Key, Hasher>>
  requires SeedableHasher<Hasher, Key>
class McCuckooTable
    : public TableSkeleton<McCuckooTable<Key, Value, Hasher, Family>, Key,
                           Value, Hasher, Family> {
  using Base = TableSkeleton<McCuckooTable, Key, Value, Hasher, Family>;
  friend Base;
  friend struct McCuckooTestPeer;  // corrupts state to prove checks fire

 public:
  /// One off-chip bucket: the stored record plus the 1-bit stash flag that
  /// shares the bucket's memory word (§III.E). Occupancy is defined by the
  /// on-chip counter, not by the bucket itself.
  struct Bucket {
    Key key{};
    Value value{};
    bool stash_flag = false;
  };

 private:
  // Nested aggregates are defined before the operations: the
  // candidate-reusing member signatures below mention them.
  using typename Base::Candidates;
  using typename Base::MainOutcome;

  /// Candidate indices plus their counters/tombstones as read (once, all
  /// charged) at the start of an operation, and which were bucket-read.
  struct CandidateView {
    std::array<size_t, kMaxHashes> idx{};
    std::array<uint64_t, kMaxHashes> counter{};
    std::array<bool, kMaxHashes> tombstone{};
    std::array<bool, kMaxHashes> bucket_read{};  // flag available?
    std::array<bool, kMaxHashes> flag_value{};
    uint32_t d = 0;
    // Probe accounting for the metrics layer (stack-local tallies; the
    // atomics are only touched once per operation in RecordLookupMetrics).
    std::array<uint8_t, kMaxHashes + 1> probes_by_value{};
    uint32_t probes_total = 0;
    int32_t hit_value = -1;  // partition value the key was found in
  };

  /// Up to d global indices holding copies of one key.
  struct CopySet {
    std::array<size_t, kMaxHashes> idx;
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
             TagCounterArray(options.num_hashes * options.buckets_per_table,
                             options.num_hashes, stats_.get())} {}

  // --- Core operations (Insert, Find and the batched forms are
  // TableSkeleton's) ------------------------------------------------------

  /// Inserts or, if the key exists (main table or stash), updates every
  /// copy of it. On kUpdated the replaced value is written through
  /// `previous` (when non-null); otherwise `*previous` is left untouched.
  InsertResult InsertOrAssign(const Key& key, const Value& value,
                              Value* previous = nullptr) {
    CandidateView view;
    int64_t found = FindInMain(key, StageWriteCandidates(key), previous, &view);
    if (found >= 0) {
      CopySet copies = LocateAllCopies(key, static_cast<size_t>(found),
                                       view.counter[FindSlot(view, found)]);
      for (uint32_t i = 0; i < copies.count; ++i) {
        StoreBucket(copies.idx[i], key, value);
      }
      SeqFlush();
      return InsertResult::kUpdated;
    }
    if (ShouldProbeStash(view) && AssignInStash(key, value, previous)) {
      return InsertResult::kUpdated;
    }
    return this->Insert(key, value);
  }

  /// Deletes `key`. Requires a deletion-enabled mode; in multi-copy tables
  /// this performs zero off-chip writes (only counters change, §III.B.3).
  bool Erase(const Key& key) {
    ScopedLatencySample lat(latency_.get(), LatencyOp::kErase);
    if (opts_.deletion_mode == DeletionMode::kDisabled) {
      std::fprintf(stderr,
                   "McCuckooTable::Erase called with DeletionMode::kDisabled; "
                   "construct the table with kResetCounters or kTombstone\n");
      std::abort();
    }
    CandidateView view;
    const int64_t found = FindInMain(key, StageWriteCandidates(key), nullptr,
                                     &view);
    if (found >= 0) {
      const size_t fidx = static_cast<size_t>(found);
      const uint64_t v = view.counter[FindSlot(view, found)];
      CopySet copies = LocateAllCopies(key, fidx, v);
      for (uint32_t i = 0; i < copies.count; ++i) {
        SeqOpen(copies.idx[i]);
        if (opts_.deletion_mode == DeletionMode::kTombstone) {
          mem_.counters.MarkDeleted(copies.idx[i]);
        } else {
          mem_.counters.Set(copies.idx[i], 0);
        }
      }
      --size_;
      SeqFlush();
      metrics_->RecordErase();
      return true;
    }
    return ShouldProbeStash(view) && EraseFromStash(key);
  }

  /// Attaches (or detaches) the striped writer-lock array for the
  /// multi-writer path (see lock_stripes.h). Must be congruent with the
  /// attached SeqlockArray (same sizing hint): holding a lock stripe grants
  /// exclusive writer rights over the matching seqlock stripe, which is
  /// what keeps the blind non-RMW version bumps valid under many writers.
  void AttachLockStripes(LockStripeArray* locks) { locks_ = locks; }

  /// Probe kernel the lookup paths use. The single-slot table screens with
  /// one fingerprint byte per candidate — a header-screened scalar probe;
  /// only the blocked table has whole-bucket headers for the SIMD kernels.
  const char* probe_variant() const { return "scalar"; }

  // ===== Multi-writer (striped-lock) operations ===========================
  //
  // The Concurrent* entry points below let many writers mutate the table at
  // once under an attached LockStripeArray (congruent with the attached
  // SeqlockArray, see lock_stripes.h). The protocol, in brief:
  //
  //  * An operation BLOCK-acquires only its own key's candidate stripes —
  //    sorted, deduplicated, known up front — plus (last) the aux stripe,
  //    which is globally maximal. Everything discovered mid-operation (BFS
  //    chain nodes, the terminal, a displaced victim's other copies) is
  //    TRY-locked only; a failed try-lock releases the mid-op suffix and
  //    replans or restarts. Blocking acquisition in ascending order with no
  //    later blocking waits is deadlock-free by the classic ordering
  //    argument.
  //  * Every counter mutation anywhere in the table happens under that
  //    bucket's stripe. Holding a stripe therefore pins its buckets'
  //    counters AND the copy-sets of the items in them: displacing a copy
  //    of item X requires try-locking all of X's other copies first, which
  //    a holder of any one of them blocks.
  //  * Eviction runs the BFS engine in plan/validate/apply form regardless
  //    of the configured policy (the walk policies mutate mid-chain and
  //    lean on shared RNG/history state). The plan phase reads racily and
  //    mutates nothing; the chain is then try-claimed and re-validated
  //    under the claims; the apply phase runs terminal-first, and its only
  //    fallible step (claiming a redundant terminal occupant's other
  //    copies) fails before any mutation — so a failure replans cleanly.
  //  * Seqlock windows for the whole operation are opened in a stack-local
  //    SeqlockWriterSet and closed *before* the stripe locks are released:
  //    the next holder of a stripe owns its version cell again only after
  //    our odd window is closed.
  //  * These paths charge no AccessStats and record no kick history
  //    (writer-exclusion structures); TableMetrics and the latency
  //    recorder are atomic and recorded normally. The stash tail records
  //    its dead-end and spill spans under the aux stripe.
  //
  // Callers (ShardedMcCuckoo in WriteMode::kMultiWriter) hold the shard
  // lock shared for every operation; growth escalates to the exclusive
  // side plus a full LockStripeDrain, so in-flight operations never see a
  // geometry change — which is also why mid-operation bucket indices stay
  // in bounds.

  /// Multi-writer insert of a key assumed not to be present (same contract
  /// as Insert: duplicates corrupt the copy invariants). `growth_mu`
  /// serializes the growth-policy bookkeeping; `*wants_growth` is set when
  /// the policy asks for a rehash/reseed, which the caller performs under
  /// full exclusivity via MaybeGrowExclusive().
  InsertResult ConcurrentInsert(const Key& key, const Value& value,
                                std::mutex& growth_mu, bool* wants_growth) {
    ScopedLatencySample lat(latency_.get(), LatencyOp::kInsert);
    assert(locks_ != nullptr);
    *wants_growth = false;
    const uint64_t t0 = MetricsNowNs();
    const Candidates cand = StageWriteCandidates(key);
    LockStripeSet ls(*locks_, metrics_.get());
    SeqlockWriterSet ws;
    bool collided = false;
    bool need_restart = false;
    uint32_t chain_len = 0, bfs_nodes = 0, bfs_budget = 0;
    InsertResult r;
    for (;;) {
      AcquireCandidateStripes(ls, cand);
      r = ConcurrentPlaceOrEvict(key, value, cand, ls, ws, &collided,
                                 &need_restart, &chain_len, &bfs_nodes,
                                 &bfs_budget);
      if (!need_restart) break;
      // A redundant candidate's other copies are transiently claimed by
      // another writer; back off completely (breaking hold-and-wait) and
      // redo the acquisition. Nothing was mutated, no seq window is open.
      ls.ReleaseAll();
      std::this_thread::yield();
    }
    ConcurrentFlush(ws, ls);
    metrics_->RecordInsert(chain_len, MetricsNowNs() - t0);
    if (collided) {
      metrics_->RecordPolicyChain(static_cast<uint32_t>(EvictionPolicy::kBfs),
                                  chain_len);
      metrics_->RecordBfsNodes(bfs_nodes);
    }
    *wants_growth = ConcurrentGrowthCheck(
        growth_mu, r != InsertResult::kInserted, chain_len, bfs_nodes,
        bfs_budget);
    return r;
  }

  /// Multi-writer InsertOrAssign: updates every copy in place when the key
  /// exists (main table or stash), inserts otherwise. The candidate
  /// stripes stay held across the found/stash/insert decision, so the
  /// presence check cannot go stale before the insert. `previous` works as
  /// in InsertOrAssign.
  InsertResult ConcurrentInsertOrAssign(const Key& key, const Value& value,
                                        std::mutex& growth_mu,
                                        bool* wants_growth,
                                        Value* previous = nullptr) {
    ScopedLatencySample lat(latency_.get(), LatencyOp::kInsert);
    assert(locks_ != nullptr);
    *wants_growth = false;
    const uint64_t t0 = MetricsNowNs();
    const Candidates cand = StageWriteCandidates(key);
    LockStripeSet ls(*locks_, metrics_.get());
    SeqlockWriterSet ws;
    bool collided = false;
    bool need_restart = false;
    uint32_t chain_len = 0, bfs_nodes = 0, bfs_budget = 0;
    InsertResult r;
    for (;;) {
      AcquireCandidateStripes(ls, cand);
      // Re-locate on every (re)acquisition: between restarts another
      // writer of the same key may have inserted it.
      const CopySet copies = ConcurrentLocateCopies(key, cand);
      if (copies.count > 0) {
        if (previous != nullptr) *previous = mem_.table[copies.idx[0]].value;
        for (uint32_t i = 0; i < copies.count; ++i) {
          // Value-only update: the occupant's key, tag and counter are
          // already exactly this key's (located under the held stripes).
          SeqOpenIn(ws, copies.idx[i]);
          mem_.table[copies.idx[i]].value = value;
        }
        ConcurrentFlush(ws, ls);
        return InsertResult::kUpdated;
      }
      if (ConcurrentShouldProbeStash(cand)) {
        ls.AcquireAux();
        const bool in_stash = stash_.Find(key, previous);
        metrics_->RecordStashProbe(in_stash);
        if (in_stash) {
          SeqOpenAuxIn(ws);
          stash_.Insert(key, value);
          ConcurrentFlush(ws, ls);
          return InsertResult::kUpdated;
        }
        // Keep aux held through the insert attempt: it is the maximal
        // stripe and any later AcquireAux is an idempotent no-op.
      }
      r = ConcurrentPlaceOrEvict(key, value, cand, ls, ws, &collided,
                                 &need_restart, &chain_len, &bfs_nodes,
                                 &bfs_budget);
      if (!need_restart) break;
      ls.ReleaseAll();
      std::this_thread::yield();
    }
    ConcurrentFlush(ws, ls);
    metrics_->RecordInsert(chain_len, MetricsNowNs() - t0);
    if (collided) {
      metrics_->RecordPolicyChain(static_cast<uint32_t>(EvictionPolicy::kBfs),
                                  chain_len);
      metrics_->RecordBfsNodes(bfs_nodes);
    }
    *wants_growth = ConcurrentGrowthCheck(
        growth_mu, r != InsertResult::kInserted, chain_len, bfs_nodes,
        bfs_budget);
    return r;
  }

  /// Multi-writer erase: all copies of the key lie among the held
  /// candidates, so locating them under the stripes is exact.
  bool ConcurrentErase(const Key& key) {
    ScopedLatencySample lat(latency_.get(), LatencyOp::kErase);
    assert(locks_ != nullptr);
    if (opts_.deletion_mode == DeletionMode::kDisabled) {
      std::fprintf(stderr,
                   "McCuckooTable::ConcurrentErase called with "
                   "DeletionMode::kDisabled; construct the table with "
                   "kResetCounters or kTombstone\n");
      std::abort();
    }
    const Candidates cand = StageWriteCandidates(key);
    LockStripeSet ls(*locks_, metrics_.get());
    SeqlockWriterSet ws;
    AcquireCandidateStripes(ls, cand);
    const CopySet copies = ConcurrentLocateCopies(key, cand);
    if (copies.count > 0) {
      for (uint32_t i = 0; i < copies.count; ++i) {
        SeqOpenIn(ws, copies.idx[i]);
        if (opts_.deletion_mode == DeletionMode::kTombstone) {
          mem_.counters.AtomicMarkDeleted(copies.idx[i]);
        } else {
          mem_.counters.AtomicSet(copies.idx[i], 0);
        }
      }
      size_.FetchSub(1);
      ConcurrentFlush(ws, ls);
      metrics_->RecordErase();
      return true;
    }
    if (ConcurrentShouldProbeStash(cand)) {
      ls.AcquireAux();
      SeqOpenAuxIn(ws);
      const bool hit = stash_.Erase(key);
      ConcurrentFlush(ws, ls);
      metrics_->RecordStashProbe(hit);
      if (hit) {
        // Stash items are not counted in size_, so no decrement here.
        stale_stash_flag_keys_.FetchAdd(1);
        metrics_->RecordErase();
        return true;
      }
      return false;
    }
    ls.ReleaseAll();
    return false;
  }

  /// Striped-lock reader fallback for the multi-writer mode: takes the
  /// key's candidate stripes (blocking, ordered) instead of any table-wide
  /// lock, so a fallback read waits only for writers touching its own
  /// candidates. Does not require the wrapper's drain lock: a rehash
  /// cannot *start* while we hold any stripe (growth drains them all), and
  /// one that committed between candidate computation and acquisition is
  /// caught by the epoch check and retried.
  bool FindStriped(const Key& key, Value* out = nullptr) const {
    assert(locks_ != nullptr);
    ScopedLatencySample lat(latency_.get(), LatencyOp::kFind);
    for (;;) {
      const uint64_t epoch = rehash_epoch_.load();
      const uint32_t d = opts_.num_hashes;
      Candidates cand;
      bool in_range = true;
      {
        // Geometry may be swapping under us until the stripes are held.
        SeqlockReadCritical crit;
        cand = ComputeCandidates(key);
        for (uint32_t t = 0; t < d; ++t) {
          in_range = in_range && cand.bucket[t] < mem_.table.size();
        }
      }
      if (!in_range) continue;  // torn mid-commit read; retry
      LockStripeSet ls(*locks_, metrics_.get());
      {
        std::array<size_t, kMaxHashes> stripes;
        for (uint32_t t = 0; t < d; ++t) {
          stripes[t] = locks_->StripeOf(cand.bucket[t]);
        }
        ls.AcquireOrdered(stripes.data(), d);
      }
      // The stripe acquisitions are acquire barriers and the committing
      // rehash bumps the epoch before releasing its drain, so an unchanged
      // epoch here proves the candidates match the live geometry.
      if (rehash_epoch_.load() != epoch) continue;
      Value tmp{};
      LookupTally tally;
      MainOutcome mo;
      {
        // Neighbouring buckets in the same cache lines may still be
        // mutated by writers holding *other* stripes.
        SeqlockReadCritical crit;
        mo = FindNoStatsMain(key, cand, &tmp, tally);
      }
      bool hit = (mo == MainOutcome::kHit);
      if (mo == MainOutcome::kCheckStash) {
        ls.AcquireAux();
        hit = stash_.Find(key, &tmp);
        tally.RecordStashProbe(hit);
      }
      tally.FlushTo(*metrics_);
      ls.ReleaseAll();
      if (hit && out != nullptr) *out = tmp;
      return hit;
    }
  }

  /// Growth-policy bookkeeping for one concurrent insert, serialized by
  /// the wrapper's growth mutex (GrowthPolicy state is not thread-safe).
  /// Returns true when the policy wants a rehash/reseed; the caller then
  /// escalates to the exclusive drain and calls MaybeGrowExclusive().
  bool ConcurrentGrowthCheck(std::mutex& growth_mu, bool overflowed,
                             uint32_t chain_len, uint32_t bfs_nodes,
                             uint32_t bfs_budget) {
    std::lock_guard<std::mutex> g(growth_mu);
    growth_.ObserveInsert(overflowed, chain_len, opts_.maxloop, bfs_nodes,
                          bfs_budget);
    const GrowthDecision d = growth_.Decide(
        {ApproxTotalItems(), opts_.capacity(), ApproxStashSize(),
         opts_.buckets_per_table});
    if (d.action == GrowthAction::kSuppressed) {
      metrics_->SetGrowthSuppressed(true);
      return false;
    }
    return d.action != GrowthAction::kNone;
  }

  /// Runs the growth engine under full exclusivity: the caller holds the
  /// exclusive drain plus every lock stripe (LockStripeDrain). Re-decides
  /// from scratch, so if a competing writer already grew the table this is
  /// a no-op.
  void MaybeGrowExclusive() { MaybeGrow(); }

  /// Racy item-count estimates for growth decisions and wrapper
  /// introspection (annotated: the stash map may be mutating under aux).
  size_t ApproxStashSize() const {
    SeqlockReadCritical crit;
    return stash_.size();
  }
  size_t ApproxTotalItems() const { return size_.load() + ApproxStashSize(); }

 private:
  // --- multi-writer internals --------------------------------------------

  /// Bounded replans for a contended/invalidated BFS chain before the
  /// operation falls back to the stash.
  static constexpr int kMaxChainReplans = 3;

  void AcquireCandidateStripes(LockStripeSet& ls, const Candidates& cand) {
    std::array<size_t, kMaxHashes> stripes;
    const uint32_t d = opts_.num_hashes;
    for (uint32_t t = 0; t < d; ++t) {
      stripes[t] = locks_->StripeOf(cand.bucket[t]);
    }
    ls.AcquireOrdered(stripes.data(), d);
  }

  // Seqlock hooks against a stack-local writer set: concurrent operations
  // must not share the member seq_open_ (it is single-writer state).
  void SeqOpenIn(SeqlockWriterSet& ws, size_t bucket_idx) {
    if (seq_ != nullptr) ws.Open(*seq_, seq_->StripeOf(bucket_idx));
  }
  void SeqOpenAuxIn(SeqlockWriterSet& ws) {
    if (seq_ != nullptr) ws.Open(*seq_, seq_->aux_stripe());
  }

  /// Publishes the operation's seqlock windows, then releases its stripe
  /// locks — strictly in that order, so the next stripe holder owns the
  /// version cells only after our odd windows closed. Also flushes the
  /// per-operation lock-contention tallies. Safe to call with nothing
  /// held/open.
  void ConcurrentFlush(SeqlockWriterSet& ws, LockStripeSet& ls) {
    if (seq_ != nullptr) ws.CloseAll(*seq_);
    ls.ReleaseAll();
  }

  /// Uncharged bucket store under a held stripe (the concurrent paths run
  /// outside the paper's single-writer access model, so AccessStats stay
  /// untouched; see the section comment). `tag` is the fingerprint the
  /// caller already holds — Candidates::tag for the inserted key, the
  /// stored nibble for a moved occupant — so a store never re-hashes.
  void ConcurrentStoreBucket(SeqlockWriterSet& ws, size_t idx, const Key& key,
                             const Value& value, uint8_t tag) {
    SeqOpenIn(ws, idx);
    Bucket& b = mem_.table[idx];
    b.key = key;
    b.value = value;
    mem_.counters.AtomicSetTag(idx, tag);
  }

  void ConcurrentSetFlag(SeqlockWriterSet& ws, size_t idx) {
    SeqOpenIn(ws, idx);
    mem_.table[idx].stash_flag = true;
  }

  /// Exact copy location under held candidate stripes: every copy of `key`
  /// lives in one of its candidates, whose occupants cannot change while
  /// the stripes are held. The 4-bit tag, stable under the same stripes,
  /// screens out other occupants before their key is read, as in the
  /// lookup probes.
  CopySet ConcurrentLocateCopies(const Key& key, const Candidates& cand) {
    CopySet out{};
    const uint8_t tag_nibble = cand.tag & kTagMask;
    for (uint32_t t = 0; t < opts_.num_hashes; ++t) {
      const size_t idx = cand.bucket[t];
      if (mem_.counters.PeekCounter(idx) > 0 &&
          mem_.counters.PeekTag(idx) == tag_nibble &&
          mem_.table[idx].key == key) {
        out.idx[out.count++] = idx;
      }
    }
    return out;
  }

  /// ShouldProbeStash for the concurrent paths, rebuilt from the held
  /// candidates. Unlike the CandidateView form it can consult every
  /// stash_flag exactly (the stripes are held), which is a strictly
  /// stronger — still sound — screen: a stashed key set all d flags.
  bool ConcurrentShouldProbeStash(const Candidates& cand) {
    {
      // Benign race on the map size: our own key's stash membership is
      // pinned by the held candidate stripes (any writer stashing or
      // un-stashing it needs them), and the happens-before edge through
      // those stripes makes its effect on empty() visible.
      SeqlockReadCritical crit;
      if (stash_.empty()) return false;
    }
    if (opts_.stash_kind == StashKind::kOnchipChs) return true;
    if (!opts_.stash_screen_enabled) return true;
    const uint32_t d = opts_.num_hashes;
    bool any_zero = false, any_gt1 = false, any_flag_zero = false;
    for (uint32_t t = 0; t < d; ++t) {
      const size_t idx = cand.bucket[t];
      const uint64_t c = mem_.counters.PeekCounter(idx);
      const bool tomb = opts_.deletion_mode == DeletionMode::kTombstone &&
                        mem_.counters.PeekTombstone(idx);
      if (c == 0 && !tomb) any_zero = true;
      if (c > 1) any_gt1 = true;
      if (!mem_.table[idx].stash_flag) any_flag_zero = true;
    }
    if (opts_.deletion_mode == DeletionMode::kDisabled &&
        (any_zero || any_gt1)) {
      return false;
    }
    if (opts_.deletion_mode == DeletionMode::kTombstone && any_zero) {
      return false;
    }
    return !any_flag_zero;
  }

  bool AllCandidatesSoleCopies(const Candidates& cand) const {
    for (uint32_t t = 0; t < opts_.num_hashes; ++t) {
      if (mem_.counters.PeekCounter(cand.bucket[t]) != 1) return false;
    }
    return true;
  }

  /// Place-or-evict body shared by ConcurrentInsert/InsertOrAssign. Called
  /// with the candidate stripes held. Sets *need_restart (with nothing
  /// mutated and no seq window open) when a redundant candidate's victim
  /// copies could not be claimed — the caller releases everything and
  /// retries, which cannot be done here without breaking lock ordering.
  InsertResult ConcurrentPlaceOrEvict(const Key& key, const Value& value,
                                      const Candidates& cand,
                                      LockStripeSet& ls, SeqlockWriterSet& ws,
                                      bool* collided, bool* need_restart,
                                      uint32_t* chain_len, uint32_t* nodes,
                                      uint32_t* budget) {
    *collided = false;
    *need_restart = false;
    const uint32_t placed = ConcurrentTryPlace(key, value, cand, ls, ws);
    if (placed > 0) {
      size_.FetchAdd(1);
      return InsertResult::kInserted;
    }
    if (!AllCandidatesSoleCopies(cand)) {
      // A candidate still holds a redundant copy we failed to claim. BFS
      // requires all-ones roots (and so does the stash screen), so this
      // transient contention must be resolved by a full restart.
      *need_restart = true;
      return InsertResult::kFailed;
    }
    *collided = true;
    uint64_t expect_zero = 0;
    first_collision_items_.CompareExchange(expect_zero,
                                           ApproxTotalItems() + 1);
    return ConcurrentBfsInsert(key, value, cand, ls, ws, chain_len, nodes,
                               budget);
  }

  /// TryPlace under held candidate stripes. Differences from the
  /// single-writer form: counter updates go through the CAS accessors, and
  /// a redundant victim whose other copies cannot be try-claimed is
  /// skipped rather than waited for (the caller restarts when that leaves
  /// a non-sole-copy candidate unplaced).
  uint32_t ConcurrentTryPlace(const Key& key, const Value& value,
                              const Candidates& cand, LockStripeSet& ls,
                              SeqlockWriterSet& ws) {
    const uint32_t d = opts_.num_hashes;
    std::array<bool, kMaxHashes> taken{};
    std::array<size_t, kMaxHashes> placed{};
    uint32_t n_placed = 0;
    // Principle 1: occupy all the empty candidate buckets (tombstones read
    // as counter 0 through PeekCounter and are recycled transparently).
    for (uint32_t t = 0; t < d; ++t) {
      if (mem_.counters.PeekCounter(cand.bucket[t]) == 0) {
        ConcurrentStoreBucket(ws, cand.bucket[t], key, value, cand.tag);
        placed[n_placed++] = cand.bucket[t];
        taken[t] = true;
      }
    }
    // Principles 2+3, as in TryPlace (re-read each round; never touch 1).
    while (n_placed < d) {
      int best = -1;
      uint64_t best_v = 0;
      for (uint32_t t = 0; t < d; ++t) {
        if (taken[t]) continue;
        const uint64_t cur = mem_.counters.PeekCounter(cand.bucket[t]);
        if (cur > best_v) {
          best_v = cur;
          best = static_cast<int>(t);
        }
      }
      if (best < 0 || best_v < 2 || best_v < n_placed + 2) break;
      if (!ConcurrentOverwriteRedundant(ls, ws, cand.bucket[best], best_v, key,
                                        value, cand.tag)) {
        taken[best] = true;  // contended victim: consider the next-best
        continue;
      }
      placed[n_placed++] = cand.bucket[best];
      taken[best] = true;
    }
    if (n_placed == 0) return 0;
    for (uint32_t i = 0; i < n_placed; ++i) {
      SeqOpenIn(ws, placed[i]);
      mem_.counters.AtomicSet(placed[i], n_placed);
    }
    redundant_writes_.FetchAdd(n_placed - 1);
    return n_placed;
  }

  /// OverwriteRedundantCopy under the claim-then-move discipline: try-lock
  /// the victim item's other candidate stripes, identify its copies
  /// exactly (the copy-set is frozen — changing it would need the victim's
  /// stripe, which we hold), decrement them, then overwrite with (key,
  /// value, tag). Fails cleanly BEFORE any mutation when a claim fails; on
  /// success the claimed stripes stay held until the operation ends.
  ///
  /// The copies are found on-chip first: each carries the victim's counter
  /// v and tag nibble, and exactly v - 1 of the other candidates are
  /// copies. So when exactly v - 1 pass that screen they are the copies
  /// (pigeonhole) and no key is read; only an equal-count occupant whose
  /// nibble collides costs key compares.
  bool ConcurrentOverwriteRedundant(LockStripeSet& ls, SeqlockWriterSet& ws,
                                    size_t victim_idx, uint64_t v,
                                    const Key& key, const Value& value,
                                    uint8_t tag) {
    assert(v >= 2);
    const uint32_t d = opts_.num_hashes;
    const size_t held_before = ls.held_count();
    const Key victim_key = mem_.table[victim_idx].key;  // stripe held: stable
    const std::array<size_t, kMaxHashes> vc =
        AlternateBuckets(victim_key, victim_idx);
    for (uint32_t t = 0; t < d; ++t) {
      if (vc[t] == victim_idx) continue;
      if (!ls.TryAcquire(locks_->StripeOf(vc[t]))) {
        ls.ReleaseSuffix(held_before);
        return false;
      }
    }
    const uint8_t victim_tag = mem_.counters.PeekTag(victim_idx);
    CopySet others{};
    for (uint32_t t = 0; t < d; ++t) {
      const size_t idx = vc[t];
      if (idx == victim_idx) continue;
      if (mem_.counters.PeekCounter(idx) == v &&
          mem_.counters.PeekTag(idx) == victim_tag) {
        others.idx[others.count++] = idx;
      }
    }
    if (others.count != v - 1) {
      uint32_t kept = 0;
      for (uint32_t i = 0; i < others.count; ++i) {
        if (mem_.table[others.idx[i]].key == victim_key) {
          others.idx[kept++] = others.idx[i];
        }
      }
      others.count = kept;
    }
    assert(others.count == v - 1);
    for (uint32_t i = 0; i < others.count; ++i) {
      SeqOpenIn(ws, others.idx[i]);
      mem_.counters.AtomicDecrement(others.idx[i]);
    }
    ConcurrentStoreBucket(ws, victim_idx, key, value, tag);
    return true;
  }

  /// Re-validates a racily planned BFS chain under its claimed stripes:
  /// every interior node must still hold a sole copy whose alternates
  /// include the next hop (linkage recomputed from the now-stable key).
  bool ValidateChain(const BfsPathResult& path) const {
    for (size_t i = 0; i < path.node.size(); ++i) {
      const size_t bucket = static_cast<size_t>(path.node[i]);
      if (mem_.counters.PeekCounter(bucket) != 1) return false;
      const uint64_t next =
          i + 1 < path.node.size() ? path.node[i + 1] : path.terminal;
      const Candidates oc = ComputeCandidates(mem_.table[bucket].key);
      bool linked = false;
      for (uint32_t t = 0; t < opts_.num_hashes; ++t) {
        linked = linked || (oc.bucket[t] == next);
      }
      if (!linked) return false;
    }
    return true;
  }

  /// Node budget for one ConcurrentBfsInsert search. While the table's
  /// growth can still act (enabled and below its size cap), a search may
  /// expand all of maxloop nodes: with the kBfsMaxNodes cap, a table grown
  /// by SplitGrow (fewer redundant copies than a rebuilt one) stashes
  /// inserts from about 0.8 load, and the cache store answers each stashed
  /// insert with two pressure evictions. Once growth cannot act, searches
  /// keep the cap: at saturation a full budget makes every doomed insert
  /// pay maxloop occupant reads.
  uint32_t ConcurrentBfsBudget() const {
    const bool growth_can_act =
        opts_.growth.enabled &&
        opts_.buckets_per_table < opts_.growth.max_buckets_per_table;
    return growth_can_act ? opts_.maxloop : BfsNodeBudget(opts_.maxloop);
  }

  /// BfsInsert in plan/validate/apply form. Entered with the candidate
  /// stripes held and every candidate a sole copy. The plan phase reads
  /// racily (annotated) and mutates nothing; indices stay in bounds
  /// because geometry cannot change while we hold stripes. The claim
  /// phase try-locks nodes[1..] and the terminal (node[0] is a held
  /// root); validation re-checks the chain under the claims; the apply
  /// phase mirrors the single-writer backward shift. Skips the shared
  /// BfsThrottle (its streak state is single-writer). The node budget is
  /// ConcurrentBfsBudget(): all of maxloop while growth can still act,
  /// BfsNodeBudget(maxloop) once it cannot.
  InsertResult ConcurrentBfsInsert(const Key& key, const Value& value,
                                   const Candidates& cand, LockStripeSet& ls,
                                   SeqlockWriterSet& ws, uint32_t* chain_len,
                                   uint32_t* nodes_out, uint32_t* budget_out) {
    const uint32_t d = opts_.num_hashes;
    std::array<uint64_t, kMaxHashes> roots{};
    for (uint32_t t = 0; t < d; ++t) roots[t] = cand.bucket[t];
    *budget_out = ConcurrentBfsBudget();
    *chain_len = 0;
    *nodes_out = 0;
    bool dead_end = false;
    for (int attempt = 0; attempt < kMaxChainReplans; ++attempt) {
      BfsPathResult path;
      {
        SeqlockReadCritical crit;  // unclaimed buckets mutate underneath
        path = BfsFindPath(
            roots.data(), d, *budget_out,
            [&](uint64_t id, auto&& emit, auto&& terminal) {
              const size_t bucket = static_cast<size_t>(id);
              const Key okey = mem_.table[bucket].key;  // racy, re-validated
              const std::array<size_t, kMaxHashes> oc =
                  AlternateBuckets(okey, bucket);
              for (uint32_t t = 0; t < d; ++t) {
                const size_t alt = oc[t];
                if (alt == bucket) continue;
                if (mem_.counters.PeekCounter(alt) != 1) {
                  terminal(alt);
                  return;
                }
                __builtin_prefetch(&mem_.table[alt], 0, 1);
                emit(alt);
              }
            });
      }
      *nodes_out += path.nodes_expanded;
      if (!path.found) {  // genuine dead end: stash below
        dead_end = true;
        break;
      }
      const size_t held_before = ls.held_count();
      bool claimed = true;
      for (size_t i = 1; i < path.node.size() && claimed; ++i) {
        claimed = ls.TryAcquireChain(locks_->StripeOf(path.node[i]));
      }
      if (claimed) {
        claimed = ls.TryAcquireChain(locks_->StripeOf(path.terminal));
      }
      if (claimed) claimed = ValidateChain(path);
      uint64_t term_v = 0;
      if (claimed) {
        term_v = mem_.counters.PeekCounter(path.terminal);
        if (term_v == 1) claimed = false;  // no longer a terminal
      }
      bool applied = claimed;
      if (claimed) {
        // Apply backward. The terminal move runs first and is the only
        // fallible step; its failure leaves the table untouched.
        size_t dst = static_cast<size_t>(path.terminal);
        for (size_t i = path.node.size(); i-- > 0;) {
          const size_t src = static_cast<size_t>(path.node[i]);
          const Bucket moved = mem_.table[src];
          const uint8_t moved_tag = mem_.counters.PeekTag(src);
          if (dst == static_cast<size_t>(path.terminal)) {
            if (term_v >= 2) {
              if (!ConcurrentOverwriteRedundant(ls, ws, dst, term_v,
                                                moved.key, moved.value,
                                                moved_tag)) {
                applied = false;
                break;
              }
            } else {
              ConcurrentStoreBucket(ws, dst, moved.key, moved.value,
                                    moved_tag);
            }
            SeqOpenIn(ws, dst);
            mem_.counters.AtomicSet(dst, 1);  // the moved item is a sole copy
          } else {
            ConcurrentStoreBucket(ws, dst, moved.key, moved.value, moved_tag);
            // Counter stays 1: dst already held a sole copy.
          }
          dst = src;
        }
      }
      if (!applied) {
        ls.ReleaseSuffix(held_before);
        std::this_thread::yield();
        continue;
      }
      ConcurrentStoreBucket(ws, static_cast<size_t>(path.node.front()), key,
                            value, cand.tag);
      size_.FetchAdd(1);
      *chain_len = static_cast<uint32_t>(path.node.size());
      return InsertResult::kInserted;
    }
    // Stash tail. The root stripes have been held continuously since
    // ConcurrentTryPlace proved all-ones and nothing placed since, so the
    // kDisabled stash screen's precondition holds exactly as in the
    // single-writer path; the flags land on the held roots themselves.
    // The aux stripe serializes every stash inserter of the table, and
    // everything else that touches spans_ runs under the shard's exclusive
    // lock, so the span ring needs no synchronization of its own here.
    uint64_t expect_zero = 0;
    first_failure_items_.CompareExchange(expect_zero, ApproxTotalItems() + 1);
    ls.AcquireAux();
    SeqOpenAuxIn(ws);
    stash_.Insert(key, value);
    const uint64_t now = MetricsNowNs();
    if (dead_end) spans_.Record(SpanKind::kBfsDeadEnd, now, now, *nodes_out);
    spans_.Record(SpanKind::kStashSpill, now, now, stash_.size());
    if (opts_.stash_kind == StashKind::kOffchip) {
      for (uint32_t t = 0; t < opts_.num_hashes; ++t) {
        ConcurrentSetFlag(ws, cand.bucket[t]);
      }
    } else if (stash_.size() > opts_.onchip_stash_capacity) {
      forced_rehash_events_.FetchAdd(1);
    }
    return opts_.stash_enabled ? InsertResult::kStashed
                               : InsertResult::kFailed;
  }

 private:
  using Base::AssignInStash;
  using Base::bfs_throttle_;
  using Base::ChargeStashProbe;
  using Base::CommitRehash;
  using Base::AlternateBuckets;
  using Base::ComputeCandidates;
  using Base::StageWriteCandidates;
  using Base::EraseFromStash;
  using Base::family_;
  using Base::first_collision_items_;
  using Base::first_failure_items_;
  using Base::forced_rehash_events_;
  using Base::growth_;
  using Base::kick_history_;
  using Base::kNoBucket;
  using Base::latency_;
  using Base::MaybeGrow;
  using Base::metrics_;
  using Base::opts_;
  using Base::redundant_writes_;
  using Base::rehash_epoch_;
  using Base::rng_;
  using Base::ScratchRebuild;
  using Base::seq_;
  using Base::SeqFlush;
  using Base::SeqOpen;
  using Base::size_;
  using Base::spans_;
  using Base::stale_stash_flag_keys_;
  using Base::stash_;
  using Base::StashOverflow;
  using Base::stats_;

  static constexpr const char* kName = "McCuckooTable";
  /// The counter byte keeps the low nibble of a key's 8-bit fingerprint.
  static constexpr uint8_t kTagMask = 0x0F;

  // --- TableSkeleton layout hooks -----------------------------------------

  size_t NumBuckets() const { return mem_.table.size(); }
  const Bucket& RecordAt(size_t idx) const { return mem_.table[idx]; }
  bool FlagAt(size_t idx) const { return mem_.table[idx].stash_flag; }

  /// Clears every set stash flag: one charged write per flag changed.
  void ClearStashFlags() {
    for (size_t idx = 0; idx < mem_.table.size(); ++idx) {
      Bucket& b = mem_.table[idx];
      if (b.stash_flag) {
        SeqOpen(idx);
        b.stash_flag = false;
        ++stats_->offchip_writes;
      }
    }
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

  /// Main-table part of FindNoStats over precomputed candidates: counters,
  /// partitions, bucket probes, and the stash screen — everything except
  /// the stash probe itself. `sink` is the live TableMetrics for scalar
  /// calls, a stack-local LookupTally for batches and optimistic attempts.
  template <typename MetricsSink>
  MainOutcome FindNoStatsMain(const Key& key, const Candidates& cand,
                              Value* out, MetricsSink& sink) const {
    const uint32_t d = opts_.num_hashes;
    uint64_t counter[kMaxHashes];
    bool tomb[kMaxHashes];
    bool any_zero = false, any_gt1 = false;
    for (uint32_t t = 0; t < d; ++t) {
      counter[t] = mem_.counters.PeekCounter(cand.bucket[t]);
      tomb[t] = mem_.counters.PeekTombstone(cand.bucket[t]);
      if (counter[t] == 0 && !tomb[t]) any_zero = true;
      if (counter[t] > 1) any_gt1 = true;
    }
    // Probe tallies, recorded once on the way out (atomics are fine from
    // the shared-lock reader path; AccessStats would not be).
    uint32_t probes_total = 0;
    std::array<uint8_t, kMaxHashes + 1> probes_by_value{};
    auto record_lookup = [&](int32_t hit_value) {
      if constexpr (kMetricsEnabled) {
        sink.RecordLookupOutcome(probes_total, hit_value);
        for (uint32_t val = 1; val <= d; ++val) {
          sink.RecordPartitionProbes(val, probes_by_value[val]);
        }
      }
    };
    if (opts_.lookup_pruning_enabled && any_zero &&
        opts_.deletion_mode != DeletionMode::kResetCounters) {
      record_lookup(-1);
      return MainOutcome::kMiss;
    }
    // The empty() read is a plain size check, memory-safe even when racing
    // a writer; optimistic callers validate the aux stripe before trusting
    // any conclusion drawn from it (including the probe skips below).
    const bool stash_empty = stash_.empty();
    const uint8_t tag_nibble = cand.tag & kTagMask;
    bool read_flag_zero = false;
    for (uint64_t value = d; value >= 1; --value) {
      uint32_t members[kMaxHashes];
      uint32_t s = 0;
      for (uint32_t t = 0; t < d; ++t) {
        if (!tomb[t] && counter[t] == value) members[s++] = t;
      }
      if (s < value && opts_.lookup_pruning_enabled) continue;
      const uint32_t probes =
          opts_.lookup_pruning_enabled ? s - static_cast<uint32_t>(value) + 1
                                       : s;
      for (uint32_t i = 0; i < probes; ++i) {
        ++probes_total;
        ++probes_by_value[value];
        const size_t idx = cand.bucket[members[i]];
        if (mem_.counters.PeekTag(idx) != tag_nibble && stash_empty) {
          // Fingerprint mismatch proves the occupant is a different key;
          // with the stash empty its flag can never matter, so the one
          // DRAM line this probe models is never touched. Probe tallies
          // still count it — the model performed this read.
          continue;
        }
        const Bucket& b = mem_.table[idx];
        if (b.key == key) {
          if (out != nullptr) *out = b.value;
          record_lookup(static_cast<int32_t>(value));
          return MainOutcome::kHit;
        }
        if (!b.stash_flag) read_flag_zero = true;
      }
    }
    record_lookup(-1);
    // Stash screen, mirroring ShouldProbeStash.
    if (stash_empty) return MainOutcome::kMiss;
    if (opts_.stash_kind == StashKind::kOnchipChs) {
      return MainOutcome::kCheckStash;
    }
    if (opts_.stash_screen_enabled) {
      if (opts_.deletion_mode == DeletionMode::kDisabled &&
          (any_zero || any_gt1)) {
        return MainOutcome::kMiss;
      }
      if (opts_.deletion_mode == DeletionMode::kTombstone && any_zero) {
        return MainOutcome::kMiss;
      }
      if (read_flag_zero) return MainOutcome::kMiss;
    }
    return MainOutcome::kCheckStash;
  }

  /// Scalar Find body over precomputed candidates (shared by Find and the
  /// batched path; candidate computation itself is uncharged either way).
  /// `sink` receives the lookup metrics: the live TableMetrics for scalar
  /// calls, a stack-local LookupTally for batches (flushed once per batch).
  template <typename MetricsSink>
  bool FindImpl(const Key& key, const Candidates& cand, Value* out,
                MetricsSink& sink) const {
    auto* self = const_cast<McCuckooTable*>(this);
    CandidateView view;
    const int64_t idx = self->FindInMain(key, cand, out, &view);
    RecordLookupMetrics(sink, view);
    if (idx >= 0) return true;
    if (self->ShouldProbeStash(view)) {
      self->ChargeStashProbe();
      const bool hit = stash_.Find(key, out);
      sink.RecordStashProbe(hit);
      return hit;
    }
    return false;
  }

  /// Flushes one operation's stack-local probe tallies into the sink
  /// (one fused outcome cell plus at most d partition increments).
  template <typename MetricsSink>
  void RecordLookupMetrics(MetricsSink& sink, const CandidateView& v) const {
    if constexpr (kMetricsEnabled) {
      sink.RecordLookupOutcome(v.probes_total, v.hit_value);
      for (uint32_t val = 1; val <= v.d; ++val) {
        sink.RecordPartitionProbes(val, v.probes_by_value[val]);
      }
    }
  }

  /// MaybeGrow's growth step: a bucket split where CanSplitInto allows
  /// it, the full Rehash otherwise.
  Status Grow(const GrowthDecision& d) {
    return CanSplitInto(d) ? SplitGrow(d.new_buckets_per_table)
                           : Base::Grow(d);
  }

  // --- charged memory choke points --------------------------------------

  const Bucket& LoadBucket(size_t idx) {
    ++stats_->offchip_reads;
    return mem_.table[idx];
  }

  void StoreBucket(size_t idx, const Key& key, const Value& value) {
    SeqOpen(idx);
    ++stats_->offchip_writes;
    Bucket& b = mem_.table[idx];
    b.key = key;
    b.value = value;
    // stash_flag is sticky: preserved across occupant changes.
    // The fingerprint publishes inside the same seqlock window as the key
    // it describes; uncharged (software-layout state, see TagCounterArray).
    mem_.counters.SetTag(idx, family_.TagOf(key));
  }

  void SetFlag(size_t idx) {
    SeqOpen(idx);
    ++stats_->offchip_writes;
    mem_.table[idx].stash_flag = true;
  }

  // --- insertion ---------------------------------------------------------

  /// Applies insertion principles 1-3: fills empty candidates, then
  /// overwrites redundant copies in decreasing counter order while
  /// V >= placed + 2. Returns the number of copies placed (0 = collision).
  /// Updates counters of placed copies and of every displaced victim.
  uint32_t TryPlace(const Key& key, const Value& value,
                    const Candidates& cand) {
    const uint32_t d = opts_.num_hashes;
    std::array<uint64_t, kMaxHashes> cnt{};
    std::array<bool, kMaxHashes> taken{};
    for (uint32_t t = 0; t < d; ++t) {
      cnt[t] = mem_.counters.Get(cand.bucket[t]);
      // Tombstoned entries read as counter 0: "treated as zero for
      // insertion" (§III.B.3), so principle 1 recycles them transparently.
    }

    std::array<size_t, kMaxHashes> placed{};
    uint32_t n_placed = 0;

    // Principle 1: occupy all the empty candidate buckets.
    for (uint32_t t = 0; t < d; ++t) {
      if (cnt[t] == 0) {
        StoreBucket(cand.bucket[t], key, value);
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
        const uint64_t cur = mem_.counters.Get(cand.bucket[t]);
        if (cur > best_v) {
          best_v = cur;
          best = static_cast<int>(t);
        }
      }
      if (best < 0 || best_v < 2 || best_v < n_placed + 2) break;
      OverwriteRedundantCopy(cand.bucket[best], best_v, key, value);
      placed[n_placed++] = cand.bucket[best];
      taken[best] = true;
    }

    if (n_placed == 0) return 0;
    for (uint32_t i = 0; i < n_placed; ++i) {
      SeqOpen(placed[i]);
      mem_.counters.Set(placed[i], n_placed);
    }
    redundant_writes_ += n_placed - 1;
    return n_placed;
  }

  /// Displaces the redundant copy at `victim_idx` (counter `v` >= 2) with
  /// (key, value), decrementing the victim item's other copies' counters.
  void OverwriteRedundantCopy(size_t victim_idx, uint64_t v, const Key& key,
                              const Value& value) {
    assert(v >= 2);
    const Key victim_key = LoadBucket(victim_idx).key;  // the Fig-10a read
    CopySet others = LocateOtherCopies(victim_key, victim_idx, v);
    for (uint32_t i = 0; i < others.count; ++i) {
      SeqOpen(others.idx[i]);
      mem_.counters.Set(others.idx[i], v - 1);
    }
    StoreBucket(victim_idx, key, value);
  }

  /// Finds the v-1 buckets other than `known_idx` holding copies of `key`
  /// (whose counter value is `v`). All of them lie in the value-v partition
  /// of key's candidates; when the partition has exactly v members no reads
  /// are needed, otherwise members are read until the unread remainder must
  /// be the key's by pigeonhole.
  CopySet LocateOtherCopies(const Key& key, size_t known_idx, uint64_t v) {
    Candidates cand = ComputeCandidates(key);
    std::array<size_t, kMaxHashes> group{};
    uint32_t n_group = 0;
    for (uint32_t t = 0; t < opts_.num_hashes; ++t) {
      const size_t idx = cand.bucket[t];
      if (idx == known_idx) continue;
      if (mem_.counters.Get(idx) == v) group[n_group++] = idx;
    }
    const uint32_t need = static_cast<uint32_t>(v) - 1;
    assert(n_group >= need);

    CopySet out{};
    uint32_t confirmed = 0;
    for (uint32_t i = 0; i < n_group && confirmed < need; ++i) {
      const uint32_t unread = n_group - i;
      if (unread == need - confirmed) {
        // Pigeonhole: every remaining partition member must be a copy.
        for (uint32_t j = i; j < n_group; ++j) {
          out.idx[out.count++] = group[j];
          ++confirmed;
        }
        break;
      }
      if (LoadBucket(group[i]).key == key) {
        out.idx[out.count++] = group[i];
        ++confirmed;
      }
    }
    assert(confirmed == need);
    return out;
  }

  /// As LocateOtherCopies but includes `known_idx`, for erase/update.
  CopySet LocateAllCopies(const Key& key, size_t known_idx, uint64_t v) {
    CopySet out = LocateOtherCopies(key, known_idx, v);
    out.idx[out.count++] = known_idx;
    return out;
  }

  /// Counter-guided random walk (§III.D): at each step, if the in-hand item
  /// has any empty or redundant candidate the counters reveal it and the
  /// chain ends immediately; otherwise a sole-copy occupant (never the
  /// bucket just written) is evicted per the configured policy — uniform
  /// random, MinCounter's coldest bucket, or bubbling's deterministic
  /// level cycle. On maxloop overrun the in-hand item gets one final
  /// placement attempt and is otherwise stashed — candidates provably all
  /// sole copies — with its flags set (§III.E).
  InsertResult RandomWalkInsert(Key key, Value value,
                                uint32_t* chain_len_out) {
    size_t exclude = kNoBucket;
    int32_t from_level = -1;  // bubbling: level the in-hand item left
    uint32_t chain = 0;
    for (uint32_t loop = 0; loop < opts_.maxloop; ++loop) {
      Candidates cand = ComputeCandidates(key);
      if (loop > 0) {
        const uint32_t placed = TryPlace(key, value, cand);
        if (placed > 0) {
          ++size_;  // net effect of the whole chain: the original key is in
          *chain_len_out = chain;
          return InsertResult::kInserted;
        }
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
      const Bucket& victim = LoadBucket(idx);
      Key vk = victim.key;
      Value vv = victim.value;
      StoreBucket(idx, key, value);
      // Counter stays 1: the bucket still holds a sole copy.
      ++stats_->kickouts;
      if (kick_history_.enabled()) kick_history_.Increment(idx);
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
    {
      const Candidates cand = ComputeCandidates(key);
      const uint32_t placed = TryPlace(key, value, cand);
      if (placed > 0) {
        ++size_;
        *chain_len_out = chain;
        return InsertResult::kInserted;
      }
    }
    // Insertion failure: park the in-hand item in the stash.
    *chain_len_out = chain;
    return StashOverflow(key, value);
  }

  /// Counter-aware breadth-first search for the shortest eviction chain
  /// (§III.D crossed with [3]). Entered only when TryPlace placed nothing,
  /// which proves every candidate of the in-hand key holds a sole copy —
  /// so all roots are valid interior nodes. The search itself reads one
  /// off-chip bucket per expanded node (the occupant key, to compute its
  /// alternates) and otherwise steers entirely by the on-chip counters:
  ///
  ///   counter == 0  -> free terminal (empty or tombstoned bucket);
  ///   counter >= 2  -> redundant terminal: "evicting" the occupant is a
  ///                    pure counter decrement of its other copies — the
  ///                    multi-copy advantage that keeps chains short where
  ///                    the single-copy BFS must walk to a true hole;
  ///   counter == 1  -> interior node, children = occupant's alternates.
  ///
  /// On success the chain shifts backward terminal-first under open seqlock
  /// stripes (published by the caller's single SeqFlush). On failure the
  /// table is untouched — BfsFindPath mutates nothing — so the stash tail
  /// inherits the all-ones invariant directly from the TryPlace screen.
  InsertResult BfsInsert(const Key& key, const Value& value,
                         const Candidates& cand, uint32_t* chain_len_out,
                         uint32_t* nodes_out, uint32_t* budget_out) {
    const uint32_t d = opts_.num_hashes;
    std::array<uint64_t, kMaxHashes> roots{};
    for (uint32_t t = 0; t < d; ++t) roots[t] = cand.bucket[t];
    *budget_out = bfs_throttle_.Budget(BfsNodeBudget(opts_.maxloop));
    const BfsPathResult path = BfsFindPath(
        roots.data(), d, *budget_out,
        [&](uint64_t id, auto&& emit, auto&& terminal) {
          const size_t bucket = static_cast<size_t>(id);
          const Key okey = LoadBucket(bucket).key;  // the one off-chip read
          const std::array<size_t, kMaxHashes> oc =
              AlternateBuckets(okey, bucket);
          for (uint32_t t = 0; t < d; ++t) {
            const size_t alt = oc[t];
            if (alt == bucket) continue;
            const uint64_t c = mem_.counters.Get(alt);
            if (c != 1) {
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
    *nodes_out = path.nodes_expanded;
    bfs_throttle_.Observe(path.found);
    if (!path.found) {
      *chain_len_out = 0;
      spans_.RecordInstant(SpanKind::kBfsDeadEnd, path.nodes_expanded);
      return StashOverflow(key, value);
    }
    // Apply the chain backward: the last interior occupant moves into the
    // terminal, each predecessor into its successor, and the new key lands
    // in the root. Every interior occupant is a sole copy (counter 1), so
    // moves are plain bucket stores; only the terminal changes counters.
    size_t dst = static_cast<size_t>(path.terminal);
    const uint64_t term_v = mem_.counters.PeekCounter(dst);
    for (size_t i = path.node.size(); i-- > 0;) {
      const size_t src = static_cast<size_t>(path.node[i]);
      const Bucket moved = mem_.table[src];  // read during the search
      if (dst == static_cast<size_t>(path.terminal)) {
        if (term_v >= 2) {
          // Redundant terminal: displace one copy of the occupant, which
          // decrements its other copies' counters (zero relocations).
          OverwriteRedundantCopy(dst, term_v, moved.key, moved.value);
        } else {
          StoreBucket(dst, moved.key, moved.value);
        }
        SeqOpen(dst);
        mem_.counters.Set(dst, 1);  // the moved item is a sole copy
      } else {
        StoreBucket(dst, moved.key, moved.value);
        // Counter stays 1: dst already held a sole copy.
      }
      ++stats_->kickouts;
      if (kick_history_.enabled()) kick_history_.Increment(src);
      dst = src;
    }
    StoreBucket(static_cast<size_t>(path.node.front()), key, value);
    ++size_;
    *chain_len_out = static_cast<uint32_t>(path.node.size());
    return InsertResult::kInserted;
  }

  // --- lookup ------------------------------------------------------------

  static uint32_t FindSlot(const CandidateView& view, int64_t idx) {
    for (uint32_t t = 0; t < view.d; ++t) {
      if (view.idx[t] == static_cast<size_t>(idx)) return t;
    }
    assert(false && "index not a candidate");
    return 0;
  }

  /// Main-table probe implementing the lookup principles, over precomputed
  /// candidates. Returns the global index where the key was found (its
  /// value copied to `out`), or -1 on a miss. Fills `*view` for the
  /// stash-screening decision.
  int64_t FindInMain(const Key& key, const Candidates& cand, Value* out,
                     CandidateView* view) {
    const uint32_t d = opts_.num_hashes;
    // One bulk charge equal to what the per-candidate model read: d counter
    // reads, doubled by the tombstone probe in kTombstone mode. The byte
    // peeks below are the same logical reads through the packed layout.
    mem_.counters.ChargeReads(
        static_cast<uint64_t>(d) *
        (opts_.deletion_mode == DeletionMode::kTombstone ? 2 : 1));
    CandidateView& v = *view;
    v.d = d;
    bool any_zero = false;
    for (uint32_t t = 0; t < d; ++t) {
      v.idx[t] = cand.bucket[t];
      v.counter[t] = mem_.counters.PeekCounter(cand.bucket[t]);
      v.tombstone[t] = (opts_.deletion_mode == DeletionMode::kTombstone) &&
                       mem_.counters.PeekTombstone(cand.bucket[t]);
      v.bucket_read[t] = false;
      v.flag_value[t] = false;
      if (v.counter[t] == 0 && !v.tombstone[t]) any_zero = true;
    }

    // Principle 1 (Bloom rule): sound whenever counters cannot silently
    // return to true zero, i.e. in kDisabled and kTombstone modes.
    if (opts_.lookup_pruning_enabled && any_zero &&
        opts_.deletion_mode != DeletionMode::kResetCounters) {
      return -1;
    }

    const uint8_t tag_nibble = cand.tag & kTagMask;
    auto probe = [&](uint32_t t, uint64_t value) -> bool {
      ++v.probes_total;
      ++v.probes_by_value[value <= kMaxHashes ? value : kMaxHashes];
      if (mem_.counters.PeekTag(cand.bucket[t]) != tag_nibble &&
          stash_.empty()) {
        // The fingerprint proves the occupant is a different key, and with
        // the stash empty its flag can never matter — so skip the physical
        // DRAM touch while charging the read the paper's model performs
        // (its hardware has no tags; accounting stays bit-identical).
        ++stats_->offchip_reads;
        v.bucket_read[t] = true;
        v.flag_value[t] = false;
        return false;
      }
      const Bucket& b = LoadBucket(cand.bucket[t]);
      v.bucket_read[t] = true;
      v.flag_value[t] = b.stash_flag;
      if (b.key == key) {
        if (out != nullptr) *out = b.value;
        v.hit_value = static_cast<int32_t>(value);
        return true;
      }
      return false;
    };

    if (!opts_.lookup_pruning_enabled) {
      for (uint32_t t = 0; t < d; ++t) {
        if (v.counter[t] == 0) continue;  // empty / tombstoned: no live copy
        if (probe(t, v.counter[t])) return static_cast<int64_t>(cand.bucket[t]);
      }
      return -1;
    }

    // Principles 2+3: per-value partitions; skip impossible ones; probe at
    // most S - V + 1 members of the rest.
    for (uint64_t value = d; value >= 1; --value) {
      uint32_t members[kMaxHashes];
      uint32_t s = 0;
      for (uint32_t t = 0; t < d; ++t) {
        if (!v.tombstone[t] && v.counter[t] == value) members[s++] = t;
      }
      if (s < value) continue;  // impossible partition
      const uint32_t probes = s - static_cast<uint32_t>(value) + 1;
      for (uint32_t i = 0; i < probes; ++i) {
        if (probe(members[i], value)) {
          return static_cast<int64_t>(cand.bucket[members[i]]);
        }
      }
    }
    return -1;
  }

  /// Decides whether a main-table miss warrants a stash probe (§III.E/F).
  bool ShouldProbeStash(const CandidateView& v) const {
    if (stash_.empty()) return false;  // stash size is an on-chip register
    if (opts_.stash_kind == StashKind::kOnchipChs) return true;  // free probe
    if (!opts_.stash_screen_enabled) return true;

    bool any_zero = false, any_gt1 = false;
    for (uint32_t t = 0; t < v.d; ++t) {
      if (v.counter[t] == 0 && !v.tombstone[t]) any_zero = true;
      if (v.counter[t] > 1) any_gt1 = true;
    }
    if (opts_.deletion_mode == DeletionMode::kDisabled) {
      // A stashed key saw all-ones counters, and without deletions a
      // counter can never fall back to 0 nor a sole copy gain copies.
      if (any_zero || any_gt1) return false;
      for (uint32_t t = 0; t < v.d; ++t) {
        if (v.bucket_read[t] && !v.flag_value[t]) return false;
      }
      return true;
    }
    if (opts_.deletion_mode == DeletionMode::kTombstone && any_zero) {
      // True zeros still prove "never inserted, never stashed".
      return false;
    }
    // Deletion-enabled: only the flags of buckets actually read are
    // trustworthy (§III.F); any 0 among them vetoes the probe.
    for (uint32_t t = 0; t < v.d; ++t) {
      if (v.bucket_read[t] && !v.flag_value[t]) return false;
    }
    return true;
  }

  /// Whether a growth decision can take the SplitGrow path. HashFamily maps
  /// a key with FastRange64(h_t(key), n), and h_t does not depend on n, so
  /// under the same seed FastRange64(h, k * n) lies in [k * b, k * b + k)
  /// for b = FastRange64(h, n): growing by an integer factor k sends every
  /// bucket's occupant to a bucket no other old bucket feeds.
  /// DoubleHashFamily's mod-n index has no such property. The split keeps
  /// each copy count but scatters a key's copies away from the buckets its
  /// other candidates' occupants move to, which leaves true-zero counters
  /// among a live key's candidates — sound only without the Bloom rule
  /// ("a zero candidate counter proves absence"), i.e. in kResetCounters.
  bool CanSplitInto(const GrowthDecision& d) const {
    return d.action == GrowthAction::kGrow &&
           std::is_same_v<Family, HashFamily<Key, Hasher>> &&
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

  /// The reader-visible storage: buckets plus the on-chip counter bytes.
  /// A Rehash commit under live optimistic readers swaps it pointer-wise
  /// and retires the old one whole (TableSkeleton::CommitRebuildLockFree).
  struct Storage {
    std::vector<Bucket> table;
    TagCounterArray counters;
    void Swap(Storage& o) {
      table.swap(o.table);
      counters.SwapStorage(o.counters);
    }
  };
  Storage mem_;
  // Multi-writer support: non-owning striped writer-lock array attached by
  // the multi-writer wrapper (null in single-writer use). Congruent with
  // seq_ by construction (both size via SeqlockArray::StripesFor), so a
  // held lock stripe owns exactly one seqlock stripe's writer rights.
  // Kept across Rehash commits.
  LockStripeArray* locks_ = nullptr;
};

}  // namespace mccuckoo

#endif  // MCCUCKOO_CORE_MCCUCKOO_TABLE_H_
