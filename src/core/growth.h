// Load-adaptive auto-growth policy for the hash tables.
//
// The paper treats the table size as fixed and absorbs insertion failures
// into the off-chip stash (§III.E); a long-lived deployment instead wants
// the table to *grow itself* before the stash degrades into a linear
// overflow list — the standard remedy in production cuckoo stores (MemC3,
// Fan et al., NSDI 2013). The mechanism already exists: Rehash() rebuilds
// into a larger bucket count and, when a seqlock is attached, commits
// safely under live optimistic readers. This header supplies the *policy*
// around it:
//
//  * Triggers. Growth fires on any of three pressure signals, checked
//    after every insertion:
//      - load factor above `kGrowthMaxLoadFactor` (the target band's
//        ceiling);
//      - stash occupancy above `kGrowthStashSoftLimit` (each stashed item
//        costs a charged off-chip probe on the lookups that reach it);
//      - a streak of `kGrowthPressureStreakLimit` consecutive "hard"
//        inserts (a stash spill, or a kick chain that ran at least half
//        of maxloop) — the leading indicator that the current geometry
//        is nearly saturated even when the load factor still looks
//        healthy.
//  * Seed rotation. A pathological key set (or simple bad luck) can choke
//    a table well below its nominal capacity. When pressure fires without
//    the load-factor ceiling, the policy first retries the *same* size
//    under a freshly rotated hash seed, up to `kGrowthMaxReseedsPerSize`
//    times, before conceding that the table is genuinely full.
//  * Exponential backoff. Every committed or failed attempt starts a
//    cooldown measured in insertions; the window doubles after each
//    reseed or failure (capped at `kGrowthBackoffMaxInserts`) so a key set
//    that defeats every seed cannot cause a rehash storm. A successful
//    capacity grow resets the window.
//  * Graceful degradation. When growth is disabled, the size cap is hit,
//    or the rebuild allocation fails, the policy reports kSuppressed: the
//    table keeps absorbing inserts into the stash exactly as the paper
//    prescribes, and surfaces the state through the `growth_suppressed`
//    metrics gauge instead of erroring.
//
// The policy itself is pure bookkeeping — it never touches a table. The
// tables feed it ObserveInsert() from their insert paths, ask Decide()
// whether to act, and report the outcome back via OnRehashSuccess() /
// OnRehashFailure(). Keeping it table-agnostic makes it unit-testable
// without building a table (growth_soak_test.cc exercises both).

#ifndef MCCUCKOO_CORE_GROWTH_H_
#define MCCUCKOO_CORE_GROWTH_H_

#include <algorithm>
#include <cstdint>

#include "src/common/movable_atomic.h"
#include "src/common/rng.h"

namespace mccuckoo {

// The policy's fixed tuning. A table switches growth on or off with
// TableOptions::growth_enabled; everything else is one of these values.

/// Load-factor ceiling (TotalItems / capacity) that triggers a capacity
/// grow. 0.85 leaves the random walk enough slack that chains stay short;
/// the post-grow floor is kGrowthMaxLoadFactor / kGrowthFactor.
inline constexpr double kGrowthMaxLoadFactor = 0.85;

/// Bucket-count multiplier per capacity grow. An integer factor lets
/// McCuckooTable grow by splitting buckets (see McCuckooTable::SplitGrow).
inline constexpr uint64_t kGrowthFactor = 2;

/// Stashed items tolerated before growth is triggered.
inline constexpr uint64_t kGrowthStashSoftLimit = 8;

/// Consecutive hard inserts (stash spill or chain >= maxloop/2) that
/// trigger growth.
inline constexpr uint32_t kGrowthPressureStreakLimit = 8;

/// Seed rotations attempted at the current size before growing anyway.
inline constexpr uint32_t kGrowthMaxReseedsPerSize = 1;

/// Size cap per sub-table; at the cap the policy suppresses instead of
/// growing.
inline constexpr uint64_t kGrowthMaxBucketsPerTable = uint64_t{1} << 32;

/// Initial cooldown after a rehash attempt, in insertions.
inline constexpr uint64_t kGrowthBackoffInitialInserts = 64;

/// Cooldown ceiling for the exponential backoff.
inline constexpr uint64_t kGrowthBackoffMaxInserts = uint64_t{1} << 20;

/// What the policy wants done after an insertion.
enum class GrowthAction : uint8_t {
  kNone,        ///< No pressure (or still cooling down): do nothing.
  kGrow,        ///< Grow to `new_buckets_per_table`: a rebuild under a
                ///< fresh seed, or a split of every bucket under the same
                ///< seed where the table supports it (see
                ///< McCuckooTable::SplitGrow).
  kReseed,      ///< Rehash at the current size under a rotated seed.
  kSuppressed,  ///< Pressure exists but growth cannot act (disabled or at
                ///< the size cap): degrade to the stash and raise the gauge.
};

struct GrowthDecision {
  GrowthAction action = GrowthAction::kNone;
  uint64_t new_buckets_per_table = 0;  ///< Valid for kGrow / kReseed.
};

/// Occupancy snapshot a table hands to Decide().
struct GrowthInputs {
  uint64_t total_items = 0;         ///< Live keys, main table + stash.
  uint64_t capacity_slots = 0;      ///< Total slots.
  uint64_t stash_items = 0;         ///< Keys currently stashed.
  uint64_t buckets_per_table = 0;   ///< Current geometry.
};

/// The state machine. One instance per table. With growth on, all but
/// ObserveQuietInsert need the table's writer exclusion (one writer, or a
/// multi-writer shard's aux stripe). The fields racing writers may touch
/// are relaxed atomics: at worst a count or a streak step is lost.
class GrowthPolicy {
 public:
  /// `enabled` off: the table never rehashes on its own; pressure that
  /// would have triggered growth raises the growth_suppressed gauge.
  explicit GrowthPolicy(bool enabled = false) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Feeds one insertion outcome into the pressure tracker. `overflowed`
  /// is true when the insert spilled to the stash (kStashed); a chain of
  /// at least maxloop/2 also counts as a hard insert. BFS-driven
  /// tables additionally report the search effort: a search that expanded
  /// at least half its node budget (`2 * search_nodes >= search_budget`)
  /// is a near-dead-end and counts as hard even when the path it finally
  /// found (the relocation chain) was short — under BFS the chain length
  /// stays small right up to saturation, so raw chain length is no longer
  /// the leading pressure indicator.
  void ObserveInsert(bool overflowed, uint32_t chain_len, uint32_t maxloop,
                     uint32_t search_nodes = 0, uint32_t search_budget = 0) {
    ++inserts_since_attempt_;
    const bool hard =
        IsHard(overflowed, chain_len, maxloop, search_nodes, search_budget);
    pressure_streak_ = hard ? pressure_streak_ + 1 : 0;
  }

  /// Whether ObserveInsert counts an insertion as hard.
  static bool IsHard(bool overflowed, uint32_t chain_len, uint32_t maxloop,
                     uint32_t search_nodes, uint32_t search_budget) {
    return overflowed || (chain_len > 0 && 2 * chain_len >= maxloop) ||
           (search_budget > 0 && 2 * search_nodes >= search_budget);
  }

  /// Concurrent writers' fast path: for an easy insert (`hard` false) with
  /// no streak and no trigger firing on `in`, ObserveInsert plus Decide
  /// would only bump the cooldown count and answer kNone, so this bumps it
  /// (a relaxed RMW) and returns true. Otherwise false, touching nothing.
  bool ObserveQuietInsert(bool hard, const GrowthInputs& in) {
    if (hard || pressure_streak_ != 0 || Triggered(in)) return false;
    if (enabled_) inserts_since_attempt_.FetchAdd(1);
    return true;
  }

  /// Evaluates the triggers against the table's current occupancy. Cheap
  /// enough to call after every insertion (a handful of compares).
  GrowthDecision Decide(const GrowthInputs& in) {
    if (!Triggered(in)) return {};
    if (!enabled_) {
      suppressed_ = true;
      return {GrowthAction::kSuppressed, 0};
    }
    if (attempts_ > 0 && inserts_since_attempt_ < backoff_window_) return {};
    // Pressure without the load-factor ceiling smells like a bad seed, not
    // a full table: rotate first, grow once rotations are spent.
    if (!OverLoad(in) && reseeds_at_size_ < kGrowthMaxReseedsPerSize) {
      return {GrowthAction::kReseed, in.buckets_per_table};
    }
    const uint64_t target = std::min(in.buckets_per_table * kGrowthFactor,
                                     kGrowthMaxBucketsPerTable);
    if (target <= in.buckets_per_table) {
      suppressed_ = true;  // at the size cap
      return {GrowthAction::kSuppressed, 0};
    }
    return {GrowthAction::kGrow, target};
  }

  /// Rotates the seed for the next rehash (monotone across the policy's
  /// lifetime, so a reseed never replays an already-defeated seed).
  uint64_t NextSeed(uint64_t current_seed) {
    return SplitMix64(current_seed ^
                      (0x9E3779B97F4A7C15ull * ++seed_rotations_));
  }

  /// A Rehash committed. Grows reset the reseed quota and the backoff;
  /// reseeds consume quota and double the backoff (the same keys are
  /// about to contend with a new seed of unknown quality).
  void OnRehashSuccess(GrowthAction action) {
    ++attempts_;
    inserts_since_attempt_ = 0;
    pressure_streak_ = 0;
    suppressed_ = false;
    if (action == GrowthAction::kReseed) {
      ++reseeds_at_size_;
      backoff_window_ = NextBackoff();
    } else {
      reseeds_at_size_ = 0;
      backoff_window_ = kGrowthBackoffInitialInserts;
    }
  }

  /// A Rehash attempt failed (validation or allocation): back off and
  /// degrade to the stash until the window passes.
  void OnRehashFailure() {
    ++attempts_;
    inserts_since_attempt_ = 0;
    pressure_streak_ = 0;
    suppressed_ = true;
    backoff_window_ = NextBackoff();
  }

  // Introspection (tests / diagnostics).
  bool suppressed() const { return suppressed_; }
  uint32_t pressure_streak() const { return pressure_streak_; }
  uint32_t reseeds_at_size() const { return reseeds_at_size_; }
  uint64_t attempts() const { return attempts_; }
  uint64_t backoff_window() const { return backoff_window_; }
  uint64_t seed_rotations() const { return seed_rotations_; }

 private:
  static bool OverLoad(const GrowthInputs& in) {
    return in.capacity_slots > 0 &&
           static_cast<double>(in.total_items) >
               kGrowthMaxLoadFactor * static_cast<double>(in.capacity_slots);
  }

  /// The load ceiling, the stash limit or the pressure streak.
  bool Triggered(const GrowthInputs& in) const {
    return OverLoad(in) || in.stash_items > kGrowthStashSoftLimit ||
           pressure_streak_ >= kGrowthPressureStreakLimit;
  }

  uint64_t NextBackoff() const {
    const uint64_t base =
        backoff_window_ > 0 ? backoff_window_ : kGrowthBackoffInitialInserts;
    return base >= kGrowthBackoffMaxInserts / 2 ? kGrowthBackoffMaxInserts
                                                : base * 2;
  }

  bool enabled_;
  MovableAtomic<uint32_t> pressure_streak_ = 0;
  uint32_t reseeds_at_size_ = 0;
  uint64_t attempts_ = 0;
  MovableAtomic<uint64_t> inserts_since_attempt_ = 0;
  uint64_t backoff_window_ = 0;
  uint64_t seed_rotations_ = 0;
  MovableAtomic<bool> suppressed_ = false;
};

}  // namespace mccuckoo

#endif  // MCCUCKOO_CORE_GROWTH_H_
