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
             TagCounterArray(options.num_hashes * options.buckets_per_table,
                             options.num_hashes, stats_.get())} {}

  // --- Core operations (Insert, InsertOrAssign, Erase, Find and the
  // batched forms are TableSkeleton's) -------------------------------------

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
      ProbeResult facts;
      const CopySet copies = ConcurrentLocateCopies(key, cand, &facts);
      if (copies.count > 0) {
        if (previous != nullptr) *previous = mem_.table[copies.pos[0]].value;
        for (uint32_t i = 0; i < copies.count; ++i) {
          // Value-only update: the occupant's key, tag and counter are
          // already exactly this key's (located under the held stripes).
          SeqOpenIn(ws, copies.pos[i]);
          mem_.table[copies.pos[i]].value = value;
        }
        ConcurrentFlush(ws, ls);
        return InsertResult::kUpdated;
      }
      if (ShouldProbeStash(facts, cand)) {
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
    ProbeResult facts;
    const CopySet copies = ConcurrentLocateCopies(key, cand, &facts);
    if (copies.count > 0) {
      for (uint32_t i = 0; i < copies.count; ++i) {
        SeqOpenIn(ws, copies.pos[i]);
        if (opts_.deletion_mode == DeletionMode::kTombstone) {
          mem_.counters.AtomicMarkDeleted(copies.pos[i]);
        } else {
          mem_.counters.AtomicSet(copies.pos[i], 0);
        }
      }
      size_.FetchSub(1);
      ConcurrentFlush(ws, ls);
      metrics_->RecordErase();
      return true;
    }
    if (ShouldProbeStash(facts, cand)) {
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
        mo = this->template ProbeAndScreen<false>(key, cand, &tmp, tally);
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
  /// lookup probe. Also fills `*facts` for the stash screen. Every
  /// candidate's flag is stable under the held stripes, so all d count as
  /// read: a stronger screen than the lookup's, still sound, since a
  /// stashed key set all d flags.
  CopySet ConcurrentLocateCopies(const Key& key, const Candidates& cand,
                                 ProbeResult* facts) {
    CopySet out{};
    const uint32_t d = opts_.num_hashes;
    const uint8_t tag_nibble = cand.tag & kTagMask;
    facts->read_mask = (1u << d) - 1;
    for (uint32_t t = 0; t < d; ++t) {
      const size_t idx = cand.bucket[t];
      const uint64_t c = mem_.counters.PeekCounter(idx);
      facts->all_sole = facts->all_sole && c == 1;
      facts->any_true_empty = facts->any_true_empty ||
                              (c == 0 && !mem_.counters.PeekTombstone(idx));
      if (c > 0 && mem_.counters.PeekTag(idx) == tag_nibble &&
          mem_.table[idx].key == key) {
        out.pos[out.count++] = idx;
      }
    }
    return out;
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
        others.pos[others.count++] = idx;
      }
    }
    if (others.count != v - 1) {
      uint32_t kept = 0;
      for (uint32_t i = 0; i < others.count; ++i) {
        if (mem_.table[others.pos[i]].key == victim_key) {
          others.pos[kept++] = others.pos[i];
        }
      }
      others.count = kept;
    }
    assert(others.count == v - 1);
    for (uint32_t i = 0; i < others.count; ++i) {
      SeqOpenIn(ws, others.pos[i]);
      mem_.counters.AtomicDecrement(others.pos[i]);
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
  using Base::bfs_throttle_;
  using Base::CommitRehash;
  using Base::AlternateBuckets;
  using Base::ComputeCandidates;
  using Base::StageWriteCandidates;
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
  using Base::ShouldProbeStash;
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
  Bucket& RecordAt(size_t idx) { return mem_.table[idx]; }
  bool FlagAt(size_t idx) const { return mem_.table[idx].stash_flag; }
  /// A copy set entry is already a global slot (= bucket) index.
  static size_t SlotIndex(size_t idx) { return idx; }

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
    if (!stash_.empty()) {  // the screen reads the counter facts only then
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
      SeqOpen(others.pos[i]);
      mem_.counters.Set(others.pos[i], v - 1);
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
          out.pos[out.count++] = group[j];
          ++confirmed;
        }
        break;
      }
      if (LoadBucket(group[i]).key == key) {
        out.pos[out.count++] = group[i];
        ++confirmed;
      }
    }
    assert(confirmed == need);
    return out;
  }

  /// Every copy of `key`, found at `known_idx`, for erase/update: its
  /// counter (read by the probe, uncharged here) gives the copy count.
  CopySet LocateAllCopies(const Key& key, size_t known_idx) {
    CopySet out = LocateOtherCopies(key, known_idx,
                                    mem_.counters.PeekCounter(known_idx));
    out.pos[out.count++] = known_idx;
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
