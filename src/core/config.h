// Shared configuration and result types for the hash tables.

#ifndef MCCUCKOO_CORE_CONFIG_H_
#define MCCUCKOO_CORE_CONFIG_H_

#include <cstddef>
#include <cstdint>

#include "src/common/status.h"
#include "src/core/bucket_header.h"
#include "src/hash/hash_family.h"

namespace mccuckoo {

/// How a table handles Erase(), chosen at construction (paper §III.B.3).
enum class DeletionMode {
  /// Erase() is a programming error. Lookups may use the strongest counter
  /// rules: any zero candidate counter proves the key was never inserted
  /// (Bloom property), and any counter > 1 on a missed lookup proves the key
  /// is not in the stash.
  kDisabled,
  /// Erase() resets the copies' counters to 0 (zero off-chip writes). The
  /// Bloom property is lost; zero-counter buckets are still skipped for
  /// reading, and stash screening falls back to the per-bucket flags
  /// actually read during the lookup (§III.F).
  kResetCounters,
  /// Erase() marks the copies' counters "deleted": treated as zero by
  /// insertion, as non-zero by lookup, so the Bloom property survives.
  /// Suited to rare deletions — tombstones never return to true zero.
  kTombstone,
};

/// How the eviction victim is chosen when a kick-out is unavoidable
/// (§III.D: "any existing collision resolving mechanisms such as
/// random-walk or MinCounter can be used").
enum class EvictionPolicy {
  /// Uniformly random victim among the candidates [28] — the paper's
  /// running example and the default.
  kRandomWalk,
  /// MinCounter [17]: a small on-chip kick-history counter per bucket;
  /// evict the bucket kicked least often (ties random). Spreads relocations
  /// away from "hot" buckets.
  kMinCounter,
  /// Breadth-first search for the shortest cuckoo path [3]. On the
  /// multi-copy tables the search is counter-aware: a bucket whose
  /// occupant holds a redundant copy (counter > 1) terminates the chain
  /// with a pure counter decrement — no relocation. Supported by
  /// McCuckooTable, BlockedMcCuckooTable and the single-slot CuckooTable;
  /// CuckooTable rejects it at Create() when slots_per_bucket > 1 (BCHT).
  kBfs,
  /// Bubbling-up (arXiv 2501.02312): reserve headroom in the low-numbered
  /// sub-tables by placing fresh items as "high" as possible and cycling
  /// eviction deterministically through the levels, so displaced items
  /// drift toward the reserved headroom instead of random-walking.
  /// Supported by all four schemes.
  kBubble,
};

/// Returns a short stable policy name ("random_walk", "min_counter", ...).
inline const char* EvictionPolicyToString(EvictionPolicy p) {
  switch (p) {
    case EvictionPolicy::kRandomWalk: return "random_walk";
    case EvictionPolicy::kMinCounter: return "min_counter";
    case EvictionPolicy::kBfs:        return "bfs";
    case EvictionPolicy::kBubble:     return "bubble";
  }
  return "unknown";
}

/// Where the overflow stash lives.
enum class StashKind {
  /// McCuckoo's contribution (§III.E): a large stash in abundant off-chip
  /// memory. Each probe costs one off-chip read, so the counter + flag
  /// screen matters; capacity is effectively unlimited.
  kOffchip,
  /// Classic CHS [22]: a tiny stash in on-chip memory, probed for free on
  /// every main-table miss but holding only kOnchipStashCapacity items.
  /// Overruns beyond it are counted as forced-rehash events (the items are
  /// still retained so no data is ever lost in this library).
  kOnchipChs,
};

/// Capacity of the on-chip CHS stash (4 suffices for ~95% load whp [24]).
inline constexpr size_t kOnchipStashCapacity = 4;

/// Outcome of an insertion.
enum class InsertResult {
  /// The key settled in the main table (possibly after kick-outs).
  kInserted,
  /// The key already existed and its copies were updated (InsertOrAssign).
  kUpdated,
  /// The insertion chain hit maxloop; some item (the inserted key or a
  /// displaced victim) went to the stash (§III.E). All keys remain
  /// findable.
  kStashed,
};

/// Returns a short stable name ("inserted", "stashed", ...).
inline const char* InsertResultToString(InsertResult r) {
  switch (r) {
    case InsertResult::kInserted: return "inserted";
    case InsertResult::kUpdated:  return "updated";
    case InsertResult::kStashed:  return "stashed";
  }
  return "unknown";
}

/// Construction options shared by all four table variants.
struct TableOptions {
  /// Number of hash functions / sub-tables (2..kMaxHashes). The paper uses 3.
  uint32_t num_hashes = 3;

  /// Buckets per sub-table. Total bucket count is num_hashes * this.
  uint64_t buckets_per_table = 1 << 16;

  /// Slots per bucket; 1 for the single-slot tables, 3 for the blocked
  /// tables in the paper.
  uint32_t slots_per_bucket = 1;

  /// Kick-out chain length bound before declaring insertion failure.
  uint32_t maxloop = 500;

  /// Master seed for the hash family and the eviction RNG.
  uint64_t seed = 0x5EEDC0DE;

  /// Deletion handling (see DeletionMode).
  DeletionMode deletion_mode = DeletionMode::kDisabled;

  /// Victim selection during kick-outs (see EvictionPolicy).
  EvictionPolicy eviction_policy = EvictionPolicy::kRandomWalk;

  /// Stash placement (see StashKind). The multi-copy tables default to the
  /// paper's off-chip stash; the sim façade gives baselines kOnchipChs.
  StashKind stash_kind = StashKind::kOffchip;

  /// Ablation: use the on-chip counter rules and off-chip flags to screen
  /// stash probes. Off = probe the stash on every main-table miss.
  bool stash_screen_enabled = true;

  /// Ablation: use the partition rules (paper §III.B.2) to skip candidate
  /// buckets during lookup. Off = read every non-empty candidate.
  bool lookup_pruning_enabled = true;

  /// Auto-growth (src/core/growth.h, whose constants fix the triggers,
  /// factor and backoff). Off by default: the paper's experiments measure
  /// fixed-size tables, and they must stay reproducible.
  bool growth_enabled = false;

  /// 1-in-N sampling period for the wall-clock op-latency recorder
  /// (src/obs/latency_recorder.h), rounded up to a power of two; 0
  /// disables sampling (no clock reads on any op). Ignored under
  /// -DMCCUCKOO_NO_METRICS.
  uint32_t latency_sample_period = 32;

  /// Which tag-probe kernel the lookup paths use (src/core/bucket_header.h).
  /// kAuto resolves to SIMD when the build carries a vector kernel and the
  /// portable SWAR kernel otherwise; forcing kScalar lets one binary run
  /// both variants for differential testing and the `.scalar.` bench keys.
  /// Purely a software-execution knob: probe results and AccessStats are
  /// identical across kinds.
  ProbeKind probe = ProbeKind::kAuto;

  /// Validates ranges; returns InvalidArgument describing the problem.
  Status Validate() const {
    if (num_hashes < 2 || num_hashes > kMaxHashes) {
      return Status::InvalidArgument("num_hashes must be in [2, 4]");
    }
    if (buckets_per_table == 0) {
      return Status::InvalidArgument("buckets_per_table must be positive");
    }
    if (slots_per_bucket == 0 || slots_per_bucket > 8) {
      return Status::InvalidArgument("slots_per_bucket must be in [1, 8]");
    }
    if (probe == ProbeKind::kSimd && !kSimdProbeAvailable) {
      return Status::InvalidArgument(
          "probe=kSimd but this build has no SIMD probe kernel "
          "(non-SSE2 target or MCCUCKOO_PORTABLE_PROBE)");
    }
    return Status::OK();
  }

  /// Total key capacity (slots across all sub-tables).
  uint64_t capacity() const {
    return static_cast<uint64_t>(num_hashes) * buckets_per_table *
           slots_per_bucket;
  }
};

}  // namespace mccuckoo

#endif  // MCCUCKOO_CORE_CONFIG_H_
