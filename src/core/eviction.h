// Victim-selection policies for the kick-out path.
//
// The paper's collision-resolution section (§III.D) notes that *any*
// existing mechanism — random-walk [28] or MinCounter [17] — can drive
// McCuckoo's relocation, with the on-chip copy counters pinpointing usable
// buckets at every step. Random-walk is the paper's running example; this
// header adds the MinCounter policy (a per-bucket kick-history counter,
// evict the "coldest" bucket) for all four tables, the deterministic
// level-cycling victim choice behind the bubbling-up policy
// (arXiv 2501.02312), and a shared breadth-first shortest-path engine [3]
// that each table drives with its own notion of "terminal" node — an empty
// bucket for the single-copy baseline, an empty *or redundant-copy*
// (counter > 1) bucket for the multi-copy tables, where eviction is a pure
// on-chip counter decrement.

#ifndef MCCUCKOO_CORE_EVICTION_H_
#define MCCUCKOO_CORE_EVICTION_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "src/common/packed_array.h"
#include "src/common/rng.h"
#include "src/hash/hash_family.h"
#include "src/mem/access_stats.h"

namespace mccuckoo {

/// Width of MinCounter's per-bucket kick-history counters (5 bits in [17]).
inline constexpr uint32_t kKickCounterBits = 5;

/// MinCounter's per-bucket kick-history array: kKickCounterBits-wide
/// saturating counters living on-chip next to the copy counters.
class KickHistory {
 public:
  /// Disabled history (random-walk tables carry this empty object).
  KickHistory() = default;

  /// Enabled history over `buckets` buckets. `stats` (may be null) receives
  /// on-chip access charges and must outlive the object.
  KickHistory(size_t buckets, AccessStats* stats)
      : counters_(buckets, kKickCounterBits), stats_(stats), enabled_(true) {}

  bool enabled() const { return enabled_; }

  /// Kick count of `bucket` (charged as one on-chip read).
  uint64_t Get(size_t bucket) const {
    if (stats_ != nullptr) ++stats_->onchip_reads;
    return counters_.Get(bucket);
  }

  /// Bytes of modeled on-chip memory (0 when disabled).
  size_t memory_bytes() const { return counters_.memory_bytes(); }

  /// Takes `other`'s counters and enabled flag but keeps this object's
  /// stats sink (Rehash commit under live optimistic readers keeps the
  /// owning table's AccessStats identity-stable).
  void AdoptStorage(KickHistory&& other) {
    counters_ = std::move(other.counters_);
    enabled_ = other.enabled_;
  }

  /// Saturating increment after `bucket`'s occupant is evicted.
  void Increment(size_t bucket) {
    if (stats_ != nullptr) ++stats_->onchip_writes;
    const uint64_t v = counters_.Get(bucket);
    if (v < counters_.max_value()) counters_.Set(bucket, v + 1);
  }

 private:
  PackedArray counters_;
  AccessStats* stats_ = nullptr;
  bool enabled_ = false;
};

/// Picks the eviction target among `d` candidate buckets, excluding
/// `exclude` (the bucket the in-hand item was just evicted from; pass
/// SIZE_MAX for none). With an enabled KickHistory this is MinCounter's
/// choice — the not-so-"hot" bucket, ties broken uniformly; otherwise a
/// uniform random pick. Returns the candidate slot index t.
template <typename Candidates>
uint32_t PickVictim(const Candidates& buckets, uint32_t d, size_t exclude,
                    const KickHistory& history, Xoshiro256& rng) {
  if (!history.enabled()) {
    uint32_t t = static_cast<uint32_t>(rng.Below(d));
    // d == 1 leaves no alternative to the excluded bucket (and Below(0)
    // would divide by zero): keep the single candidate.
    if (buckets[t] == exclude && d > 1) {
      t = (t + 1 + static_cast<uint32_t>(rng.Below(d - 1))) % d;
    }
    return t;
  }
  uint32_t best[kMaxHashes];
  uint32_t n_best = 0;
  uint64_t best_count = ~0ull;
  for (uint32_t t = 0; t < d; ++t) {
    if (buckets[t] == exclude) continue;
    const uint64_t c = history.Get(buckets[t]);
    if (c < best_count) {
      best_count = c;
      n_best = 0;
    }
    if (c == best_count) best[n_best++] = t;
  }
  if (n_best == 0) return 0;  // d == 1 and the only candidate is excluded
  return best[rng.Below(n_best)];
}

/// Bubbling-up victim choice (arXiv 2501.02312): instead of a random pick,
/// eviction cycles deterministically through the levels — an item displaced
/// from level `from_level` (-1 for the freshly inserted item) evicts at
/// level (from_level + 1) % d, so chains sweep "upward" through the
/// sub-tables and displaced items drift toward the headroom the placement
/// rule reserves in the low levels. Skips the bucket the in-hand item was
/// just evicted from when an alternative exists.
template <typename Candidates>
uint32_t PickBubbleVictim(const Candidates& buckets, uint32_t d,
                          size_t exclude, int32_t from_level) {
  uint32_t t = static_cast<uint32_t>(from_level + 1) % d;
  if (buckets[t] == exclude && d > 1) t = (t + 1) % d;
  return t;
}

// --- Shared breadth-first path search ------------------------------------

/// Result of one BfsFindPath() search. On success `node` holds the global
/// ids of the interior chain root..last (every one occupied by a sole
/// copy) and `terminal` the id that ends it (empty, or redundant-copy for
/// the multi-copy tables); items shift backward terminal-first, then the
/// new key lands in node.front(). `node` views the calling thread's search
/// storage: it stays valid until that thread's next BfsFindPath call.
/// `nodes_expanded` counts the interior nodes whose occupant was read to
/// generate children — the search-effort signal the growth policy and
/// metrics consume.
struct BfsPathResult {
  std::span<const uint64_t> node;
  uint64_t terminal = 0;
  bool found = false;
  uint32_t nodes_expanded = 0;
};

/// Node-expansion budget for one BFS search. `maxloop` bounds the random
/// walk's *relocations*; reusing it verbatim as the BFS frontier bound
/// would make every beyond-threshold insert pay maxloop occupant reads
/// before stashing — exactly the wall-clock collapse BFS exists to fix.
/// The cap lets doomed inserts fail in ~kBfsMaxNodes on-chip-guided reads,
/// at a price: it also fails some inserts that a larger search would have
/// placed. A table rich in redundant copies finds its terminals within a
/// few dozen nodes (the observed shortest chains at 90% load are 1-3
/// relocations), but one holding mostly sole copies starts to stash near
/// 0.8 load. The multi-copy tables' BFS paths apply the cap; the
/// multi-writer path lifts it while auto-growth can still act
/// (McCuckooTable::ConcurrentBfsBudget).
inline constexpr uint32_t kBfsMaxNodes = 48;

inline uint32_t BfsNodeBudget(uint32_t maxloop) {
  return maxloop < kBfsMaxNodes ? maxloop : kBfsMaxNodes;
}

/// Adaptive dead-end throttle for BFS insertion. Failed searches mean the
/// reachable region around the probe keys is saturated; spending the full
/// node budget on every further insert just multiplies the cost of an
/// outcome that is already known. The throttle is two-stage: any dead end
/// drops the next search to `kProbeBudget` nodes (at high load successes
/// and failures interleave, and the shortest successful chains sit well
/// inside that budget), and `kDeepTrigger` consecutive dead ends — the
/// deep-saturation regime where successes have become rare — cut it to
/// `kDeepProbeBudget`. Probes still notice when space opens up (free and
/// redundant-copy terminals sit at depth 1-2 once erases or growth free
/// room — the first probe that succeeds restores the full budget). The
/// throttle does change what is placed: a 16- or 4-node probe stashes
/// keys whose shortest chain lies beyond its budget, which the full
/// budget (48 nodes on the multi-copy tables) would have placed. The
/// single-writer BFS paths accept that trade. The multi-writer path does
/// not run the throttle (its streak state is single-writer); a port of it
/// there lowered the cache benchmark's set_capped hit_ratio by
/// 0.0007–0.0008 (EXPERIMENTS.md).
struct BfsThrottle {
  static constexpr uint32_t kDeepTrigger = 8;
  static constexpr uint32_t kProbeBudget = 16;
  static constexpr uint32_t kDeepProbeBudget = 4;

  uint32_t streak = 0;

  uint32_t Budget(uint32_t full) const {
    const uint32_t cap = streak >= kDeepTrigger ? kDeepProbeBudget
                         : streak >= 1          ? kProbeBudget
                                                : full;
    return cap < full ? cap : full;
  }
  void Observe(bool found) { streak = found ? 0 : streak + 1; }
};

namespace bfs_internal {

/// One enqueued id and the index of the node that emitted it (-1 for a
/// root).
struct Node {
  uint64_t id;
  int32_t parent;
};

/// The storage one thread's searches reuse, so a search allocates only
/// when it outgrows every earlier one on the thread. `seen` is an
/// open-addressed set of the enqueued ids (linear probing, at most half
/// full); a slot counts as occupied only when it carries the current
/// search's stamp, so starting a search clears nothing.
struct SearchStorage {
  struct Slot {
    uint64_t id;
    uint32_t stamp;
  };

  std::vector<Node> nodes;
  std::vector<Slot> seen;
  std::vector<uint64_t> chain;
  uint32_t stamp = 0;
  uint32_t shift = 64;

  void Begin() {
    nodes.clear();
    if (seen.empty()) {
      Rebuild(128);
    } else if (++stamp == 0) {  // wrapped: forget every old stamp
      Rebuild(seen.size());
    }
  }

  /// Appends (id, parent) unless this search already enqueued `id`.
  void Enqueue(uint64_t id, int32_t parent) {
    if (2 * (nodes.size() + 1) > seen.size()) Rebuild(2 * seen.size());
    if (Insert(id)) nodes.push_back({id, parent});
  }

 private:
  bool Insert(uint64_t id) {
    const size_t mask = seen.size() - 1;
    for (size_t i = (id * 0x9E3779B97F4A7C15ull) >> shift;;
         i = (i + 1) & mask) {
      Slot& s = seen[i];
      if (s.stamp != stamp) {
        s = Slot{id, stamp};
        return true;
      }
      if (s.id == id) return false;
    }
  }

  /// Resets the set to `cap` (a power of two) empty slots under stamp 1
  /// and re-adds the ids this search has enqueued so far.
  void Rebuild(size_t cap) {
    seen.assign(cap, Slot{0, 0});
    shift = 64 - static_cast<uint32_t>(std::countr_zero(cap));
    stamp = 1;
    for (const Node& n : nodes) Insert(n.id);
  }
};

inline SearchStorage& ThreadStorage() {
  thread_local SearchStorage storage;
  return storage;
}

}  // namespace bfs_internal

/// Breadth-first search for the shortest eviction path [3], shared by all
/// tables that support EvictionPolicy::kBfs. Node ids are opaque (the
/// single-slot tables pass bucket indices, the blocked table slot
/// indices). The search starts from `roots` (deduplicated, all assumed
/// non-terminal) and repeatedly invokes
///
///   expand(id, emit, terminal)
///
/// which must inspect `id`'s occupant, call `emit(child_id)` for every
/// non-terminal alternate, and call `terminal(id)` and return as soon as
/// it sees a terminal. The engine deduplicates children, bounds the
/// frontier to `max_nodes` ids, and reconstructs the root..id chain on
/// success. Its node list and id set live in per-thread storage reused
/// across searches, so a search makes no heap allocation once the thread
/// has run one of the same budget. No table state is mutated during the
/// search: a failed search leaves the table untouched, which is what keeps
/// the multi-copy stash screen's all-ones invariant intact on the failure
/// path.
template <typename ExpandFn>
BfsPathResult BfsFindPath(const uint64_t* roots, uint32_t n_roots,
                          size_t max_nodes, ExpandFn&& expand) {
  bfs_internal::SearchStorage& storage = bfs_internal::ThreadStorage();
  storage.Begin();
  const std::vector<bfs_internal::Node>& nodes = storage.nodes;
  BfsPathResult out;
  for (uint32_t i = 0; i < n_roots && nodes.size() < max_nodes; ++i) {
    storage.Enqueue(roots[i], -1);
  }
  for (size_t head = 0; head < nodes.size(); ++head) {
    ++out.nodes_expanded;
    bool found_terminal = false;
    uint64_t terminal = 0;
    expand(
        nodes[head].id,
        [&](uint64_t child) {
          if (nodes.size() < max_nodes) {
            storage.Enqueue(child, static_cast<int32_t>(head));
          }
        },
        [&](uint64_t id) {
          found_terminal = true;
          terminal = id;
        });
    if (found_terminal) {
      out.found = true;
      out.terminal = terminal;
      std::vector<uint64_t>& chain = storage.chain;
      chain.clear();
      for (int32_t n = static_cast<int32_t>(head); n >= 0;
           n = nodes[n].parent) {
        chain.push_back(nodes[n].id);
      }
      std::reverse(chain.begin(), chain.end());
      out.node = chain;
      return out;
    }
  }
  return out;
}

}  // namespace mccuckoo

#endif  // MCCUCKOO_CORE_EVICTION_H_
