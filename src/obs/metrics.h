// Low-overhead runtime metrics for the hash tables (the observability layer).
//
// AccessStats answers "how much memory traffic, total"; this module answers
// the *distributional* questions the paper's figures are actually about:
// how long do kick-out chains get near full load (Fig 11), how many bucket
// probes does a lookup spend in each counter-value partition (Table II,
// §III.B.2's "at most S - V + 1"), and how often does the stash screen let
// a probe through. Every table owns a TableMetrics and bumps it from its
// hot paths.
//
// Design constraints, in order:
//  1. Correct under concurrency. The sharded/concurrent front-ends run many
//     readers through one table at once, so every cell is a std::atomic
//     updated with relaxed ordering — increments never tear, totals are
//     exact, and TSan is clean. Relaxed is enough: cells are independent
//     monotone counters and snapshots only need per-cell atomicity.
//  2. Near-zero hot-path cost. A scalar lookup records ONE uncontended
//     relaxed fetch_add (the fused outcome grid — on x86 every atomic RMW
//     is a full barrier, so the count of RMWs per operation matters more
//     than their individual cost); histograms keep no derived counters
//     that Snapshot() can compute.
//  3. Compiled out entirely with -DMCCUCKOO_NO_METRICS: TableMetrics
//     becomes an empty type whose methods are no-ops, so every recording
//     call site folds to nothing. MetricsSnapshot and the exporters stay
//     available in both modes (they just see zeros) so tooling compiles
//     unconditionally.
//
// AccessStats is deliberately NOT folded in here: the paper's access
// accounting is part of the *algorithm model* (batched and scalar paths
// must produce identical AccessStats, tests enforce it), while metrics are
// an observational side channel that must never perturb it. Recording uses
// only uncharged accessors.

#ifndef MCCUCKOO_OBS_METRICS_H_
#define MCCUCKOO_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>

#include "src/obs/timing.h"

namespace mccuckoo {

/// True when the recording side is compiled in. Tables may use this to
/// `if constexpr` away metric-only bookkeeping that no-op calls would not
/// eliminate on their own (e.g. building a trace event).
#ifndef MCCUCKOO_NO_METRICS
inline constexpr bool kMetricsEnabled = true;
#else
inline constexpr bool kMetricsEnabled = false;
#endif

/// Fixed bucket count of every Log2Histogram. Bucket 0 holds exact value
/// 0; bucket i >= 1 holds [2^(i-1), 2^i - 1]; the last bucket additionally
/// absorbs everything larger. 20 buckets cover kick chains up to any
/// plausible maxloop and insert latencies up to ~0.5 ms before saturating.
inline constexpr size_t kHistogramBuckets = 20;

/// Partition-indexed metric arrays: counter values 0..4 (index 0 is the
/// "no partition" slot used by the baseline tables; kMaxHashes == 4 bounds
/// real counter values — static_asserted where the tables record).
inline constexpr size_t kMetricsPartitions = 5;

/// Eviction-policy-indexed metric arrays (one slot per EvictionPolicy
/// enumerator, in declaration order: random_walk, min_counter, bfs,
/// bubble). Kept as a plain count so this header stays independent of
/// core/config.h.
inline constexpr size_t kMetricsPolicies = 4;

/// Rows of the fused lookup-outcome grid: row 0 records misses, row 1 + v
/// records a hit resolved in the counter-value-v partition (v <
/// kMetricsPartitions).
inline constexpr size_t kLookupOutcomeRows = 1 + kMetricsPartitions;

/// Operation kinds the sampled LatencyRecorder (src/obs/latency_recorder.h)
/// times. Batch entries time the whole batch call, not per key.
enum class LatencyOp : uint8_t {
  kInsert = 0,
  kFind,
  kErase,
  kFindBatch,
  kInsertBatch,
};
inline constexpr size_t kLatencyOps = 5;

/// Stable label values for LatencyOp, enumerator order.
inline constexpr const char* kLatencyOpNames[kLatencyOps] = {
    "insert", "find", "erase", "find_batch", "insert_batch"};

/// Span kinds the SpanRecorder (src/obs/span_recorder.h) captures: the
/// rare, long table events that dominate tail latency.
enum class SpanKind : uint8_t {
  kGrowth = 0,     ///< Whole growth decision + rehash (wraps kRehash).
  kRehash,         ///< One table rebuild (manual or growth-triggered).
  kReseed,         ///< Same-size rebuild under a rotated seed.
  kBfsDeadEnd,     ///< BFS eviction search exhausted without a path.
  kStashSpill,     ///< An insert failed to place and went to the stash.
};
inline constexpr size_t kSpanKinds = 5;

/// Stable label values for SpanKind, enumerator order.
inline constexpr const char* kSpanKindNames[kSpanKinds] = {
    "growth", "rehash", "reseed", "bfs_dead_end", "stash_spill"};

/// Columns of the fused lookup-outcome grid, indexed by the lookup's total
/// bucket-probe count. Probes per lookup are bounded by the hash count
/// (d <= 4 everywhere in this codebase), so 8 columns hold every value
/// exactly; the last column saturates defensively, which would only skew
/// the derived probe histogram for probe counts that cannot occur.
inline constexpr size_t kLookupOutcomeCols = 8;

/// Inclusive upper bound of histogram bucket `i` (Prometheus "le" value);
/// the last bucket's bound is conceptually +Inf.
constexpr uint64_t HistogramBucketUpperBound(size_t i) {
  if (i == 0) return 0;
  if (i >= kHistogramBuckets - 1) return ~uint64_t{0};
  return (uint64_t{1} << i) - 1;
}

/// Bucket index a value lands in (floor(log2(v)) + 1, clamped).
constexpr size_t HistogramBucketOf(uint64_t v) {
  const size_t b = static_cast<size_t>(std::bit_width(v));  // 0 for v == 0
  return b < kHistogramBuckets ? b : kHistogramBuckets - 1;
}

// --- Snapshot types (plain data, available in both build modes) -----------

/// Point-in-time copy of one histogram. Addable for shard merging.
struct HistogramSnapshot {
  std::array<uint64_t, kHistogramBuckets> bucket{};
  uint64_t count = 0;  ///< Total recordings (== sum of bucket counts).
  uint64_t sum = 0;    ///< Sum of recorded values.

  double Mean() const {
    return count ? static_cast<double>(sum) / static_cast<double>(count) : 0.0;
  }

  /// Upper bound of the bucket containing the p-quantile (p in [0, 1]) —
  /// the standard conservative estimate for a log-bucketed histogram.
  uint64_t PercentileUpperBound(double p) const {
    if (count == 0) return 0;
    const double target = p * static_cast<double>(count);
    uint64_t seen = 0;
    for (size_t i = 0; i < kHistogramBuckets; ++i) {
      seen += bucket[i];
      if (static_cast<double>(seen) >= target) {
        return HistogramBucketUpperBound(i);
      }
    }
    return HistogramBucketUpperBound(kHistogramBuckets - 1);
  }

  HistogramSnapshot& operator+=(const HistogramSnapshot& o) {
    for (size_t i = 0; i < kHistogramBuckets; ++i) bucket[i] += o.bucket[i];
    count += o.count;
    sum += o.sum;
    return *this;
  }

  bool operator==(const HistogramSnapshot&) const = default;
};

/// Point-in-time copy of one table's metrics. operator+= merges shards
/// component-wise (gauges sum too: aggregate occupancy over aggregate
/// capacity is the meaningful whole-structure view).
struct MetricsSnapshot {
  uint64_t inserts = 0;  ///< Insert operations (== kick_chain_len.count).
  uint64_t lookups = 0;  ///< Find operations (== lookup_probes.count).
  uint64_t erases = 0;

  /// Kick-outs per insertion (0 for the collision-free common case).
  HistogramSnapshot kick_chain_len;
  /// Kick-outs per *colliding* insertion, split by the eviction policy
  /// that resolved it (index = EvictionPolicy enumerator order). The
  /// aggregate kick_chain_len answers "how often do inserts collide";
  /// these answer "how long a chain does each policy build when they do".
  std::array<HistogramSnapshot, kMetricsPolicies> policy_chain_len;
  /// Wall-clock nanoseconds per insertion, from the sampled insert timer:
  /// each timed insert counts as the inserts it stands for (its sampling
  /// weight), so count and sum estimate every insertion's (exact at
  /// sample period 1, empty at period 0).
  HistogramSnapshot insert_ns;
  /// Off-chip bucket probes per lookup (0 = Bloom-pruned miss).
  HistogramSnapshot lookup_probes;

  /// Interior nodes the BFS eviction engine expanded (each expansion reads
  /// one occupant off-chip); zero outside EvictionPolicy::kBfs.
  uint64_t bfs_nodes_expanded = 0;

  /// Bucket probes spent in the counter-value-V partition (single-slot
  /// multi-copy tables; baselines use slot 0). §III.B.2 bounds the value-V
  /// partition of size S to S - V + 1 probes.
  std::array<uint64_t, kMetricsPartitions> partition_probes{};
  /// Lookups resolved in the value-V partition.
  std::array<uint64_t, kMetricsPartitions> partition_hits{};

  uint64_t stash_hits = 0;    ///< Stash probes that found the key.
  uint64_t stash_misses = 0;  ///< Stash probes that came back empty.

  /// Optimistic read path (concurrent front-ends; zero outside
  /// ReadMode::kOptimistic): attempts discarded by seqlock validation, and
  /// reads that exhausted their retries and took the shared lock.
  uint64_t optimistic_retries = 0;
  uint64_t optimistic_fallbacks = 0;

  /// Multi-writer path (zero outside WriteMode::kMultiWriter): striped
  /// writer-lock acquisitions, the subset that contended (a blocking wait
  /// or a failed mid-chain try-lock), and successful kick-chain bucket
  /// claims (the claim-then-move hand-offs).
  uint64_t writer_lock_acquisitions = 0;
  uint64_t writer_lock_contended = 0;
  uint64_t writer_chain_handoffs = 0;
  /// Nanoseconds per *contended* blocking stripe acquisition (uncontended
  /// acquisitions never read the clock and are not recorded).
  HistogramSnapshot writer_lock_wait_ns;

  /// Auto-growth engine (zero while growth is disabled and unpressured).
  uint64_t growth_rehashes = 0;   ///< Rehashes the engine committed.
  uint64_t growth_reseeds = 0;    ///< Subset that rotated the seed in place.
  uint64_t growth_failures = 0;   ///< Attempts that failed (e.g. bad_alloc).
  /// Gauge: 1 while the table is degraded to stash-backed inserts because
  /// growth cannot act (disabled, size cap, or a failed attempt backing
  /// off). Shard merges sum it: the count of degraded shards.
  uint64_t growth_suppressed = 0;
  /// Wall-clock nanoseconds per rehash (manual Rehash() calls included).
  HistogramSnapshot rehash_ns;

  /// Sampled end-to-end wall-clock nanoseconds per operation, indexed by
  /// LatencyOp enumerator order (src/obs/latency_recorder.h). Counts are
  /// sample counts, not operation counts: with 1-in-N sampling each entry
  /// stands for ~N operations.
  std::array<HistogramSnapshot, kLatencyOps> op_latency_ns;
  /// The 1-in-N sampling period op_latency_ns was recorded with (0 =
  /// sampling disabled). A configuration echo, not a counter: shard merges
  /// keep the max so mixed configurations surface the coarsest period.
  uint64_t latency_sample_period = 0;

  /// Spans recorded per SpanKind (enumerator order). Totals survive the
  /// span ring's wrap-around (SpanRecorder::Totals()).
  std::array<uint64_t, kSpanKinds> span_counts{};

  /// Gauges, filled by the table at snapshot time (no hot-path cost).
  uint64_t occupancy_items = 0;  ///< Live items (main table + stash).
  uint64_t capacity_slots = 0;   ///< Total slots.

  double LoadFactor() const {
    return capacity_slots ? static_cast<double>(occupancy_items) /
                                static_cast<double>(capacity_slots)
                          : 0.0;
  }

  MetricsSnapshot& operator+=(const MetricsSnapshot& o) {
    inserts += o.inserts;
    lookups += o.lookups;
    erases += o.erases;
    kick_chain_len += o.kick_chain_len;
    for (size_t i = 0; i < kMetricsPolicies; ++i) {
      policy_chain_len[i] += o.policy_chain_len[i];
    }
    insert_ns += o.insert_ns;
    lookup_probes += o.lookup_probes;
    bfs_nodes_expanded += o.bfs_nodes_expanded;
    for (size_t i = 0; i < kMetricsPartitions; ++i) {
      partition_probes[i] += o.partition_probes[i];
      partition_hits[i] += o.partition_hits[i];
    }
    stash_hits += o.stash_hits;
    stash_misses += o.stash_misses;
    optimistic_retries += o.optimistic_retries;
    optimistic_fallbacks += o.optimistic_fallbacks;
    writer_lock_acquisitions += o.writer_lock_acquisitions;
    writer_lock_contended += o.writer_lock_contended;
    writer_chain_handoffs += o.writer_chain_handoffs;
    writer_lock_wait_ns += o.writer_lock_wait_ns;
    growth_rehashes += o.growth_rehashes;
    growth_reseeds += o.growth_reseeds;
    growth_failures += o.growth_failures;
    growth_suppressed += o.growth_suppressed;
    rehash_ns += o.rehash_ns;
    for (size_t i = 0; i < kLatencyOps; ++i) {
      op_latency_ns[i] += o.op_latency_ns[i];
    }
    if (o.latency_sample_period > latency_sample_period) {
      latency_sample_period = o.latency_sample_period;
    }
    for (size_t i = 0; i < kSpanKinds; ++i) span_counts[i] += o.span_counts[i];
    occupancy_items += o.occupancy_items;
    capacity_slots += o.capacity_slots;
    return *this;
  }

  bool operator==(const MetricsSnapshot&) const = default;
};

// --- Live primitives ------------------------------------------------------

/// Monotone counter. Relaxed atomics: exact totals, no ordering.
class Counter {
 public:
  void Inc(uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t Value() const { return v_.load(std::memory_order_relaxed); }
  void Reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> v_{0};
};

/// Last-writer-wins instantaneous value.
class Gauge {
 public:
  void Set(uint64_t v) { v_.store(v, std::memory_order_relaxed); }
  void Add(int64_t d) {
    v_.fetch_add(static_cast<uint64_t>(d), std::memory_order_relaxed);
  }
  uint64_t Value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> v_{0};
};

/// Fixed-bucket log2 histogram. Record() is two relaxed fetch_adds; the
/// total count is derived from the buckets at snapshot time instead of
/// being a third hot-path atomic.
class Log2Histogram {
 public:
  /// Records `v` as `w` observations (a 1-in-w sample standing for the w
  /// values it was drawn from): bucket count += w, sum += v * w.
  void Record(uint64_t v, uint64_t w = 1) {
    bucket_[HistogramBucketOf(v)].fetch_add(w, std::memory_order_relaxed);
    sum_.fetch_add(v * w, std::memory_order_relaxed);
  }

  /// Consistent-enough copy: cells are read individually (relaxed), which
  /// is exact once concurrent recorders are quiescent and at worst a few
  /// in-flight recordings off otherwise.
  HistogramSnapshot Snapshot() const {
    HistogramSnapshot s;
    for (size_t i = 0; i < kHistogramBuckets; ++i) {
      s.bucket[i] = bucket_[i].load(std::memory_order_relaxed);
      s.count += s.bucket[i];
    }
    s.sum = sum_.load(std::memory_order_relaxed);
    return s;
  }

  void MergeFrom(const Log2Histogram& o) {
    for (size_t i = 0; i < kHistogramBuckets; ++i) {
      bucket_[i].fetch_add(o.bucket_[i].load(std::memory_order_relaxed),
                           std::memory_order_relaxed);
    }
    sum_.fetch_add(o.sum_.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
  }

  void Reset() {
    for (auto& b : bucket_) b.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
  }

 private:
  std::array<std::atomic<uint64_t>, kHistogramBuckets> bucket_{};
  std::atomic<uint64_t> sum_{0};
};

// --- The per-table metric set ---------------------------------------------

#ifndef MCCUCKOO_NO_METRICS

/// All metrics one table records. Not copyable/movable (atomics) — tables
/// hold it behind a unique_ptr, exactly like their AccessStats.
struct TableMetrics {
  Log2Histogram kick_chain_len;
  std::array<Log2Histogram, kMetricsPolicies> policy_chain_len;
  Log2Histogram insert_ns;
  /// Fused (outcome row x probe count) cells: the lookup hot paths record
  /// probe histogram and partition hit with ONE relaxed fetch_add instead
  /// of three. On x86 every atomic RMW is a full barrier that stalls the
  /// next iteration's loads, so this is a measurable share of lookup
  /// latency. Snapshot() folds the grid into lookup_probes /
  /// partition_hits exactly; the grid is their only record.
  std::array<std::atomic<uint64_t>, kLookupOutcomeRows * kLookupOutcomeCols>
      lookup_outcome{};
  Counter bfs_nodes_expanded;
  std::array<Counter, kMetricsPartitions> partition_probes;
  Counter erases;
  Counter stash_hits;
  Counter stash_misses;
  Log2Histogram rehash_ns;
  Counter growth_rehashes;
  Counter growth_reseeds;
  Counter growth_failures;
  Gauge growth_suppressed;
  Counter writer_lock_acquisitions;
  Counter writer_lock_contended;
  Counter writer_chain_handoffs;
  Log2Histogram writer_lock_wait_ns;

  /// One insert: its kick-chain length, always, and its wall-clock time
  /// `ns` when it was timed, as `weight` observations (the insert timer's
  /// sampling weight; 0 = untimed).
  void RecordInsert(uint64_t chain_len, uint64_t ns, uint64_t weight = 1) {
    kick_chain_len.Record(chain_len);
    if (weight != 0) insert_ns.Record(ns, weight);
  }

  /// A colliding insert was resolved by the policy at index `policy`
  /// (EvictionPolicy enumerator order) with a `chain_len`-move chain.
  void RecordPolicyChain(uint32_t policy, uint64_t chain_len) {
    policy_chain_len[policy < kMetricsPolicies ? policy
                                               : kMetricsPolicies - 1]
        .Record(chain_len);
  }

  /// The BFS engine expanded `n` interior nodes during one search.
  void RecordBfsNodes(uint64_t n) { bfs_nodes_expanded.Inc(n); }

  /// Fused hot-path recording: one lookup's probe count plus its outcome
  /// (`hit_value` < 0 for a miss, else the resolving partition value) in a
  /// single relaxed fetch_add.
  void RecordLookupOutcome(uint64_t total_probes, int32_t hit_value) {
    const size_t row =
        hit_value < 0 ? 0
                      : 1 + (static_cast<size_t>(hit_value) < kMetricsPartitions
                                 ? static_cast<size_t>(hit_value)
                                 : kMetricsPartitions - 1);
    const size_t col = total_probes < kLookupOutcomeCols
                           ? static_cast<size_t>(total_probes)
                           : kLookupOutcomeCols - 1;
    lookup_outcome[row * kLookupOutcomeCols + col].fetch_add(
        1, std::memory_order_relaxed);
  }

  void RecordPartitionProbes(uint32_t value, uint64_t probes) {
    if (probes == 0) return;
    partition_probes[value < kMetricsPartitions ? value
                                                : kMetricsPartitions - 1]
        .Inc(probes);
  }

  void RecordStashProbe(bool hit) { (hit ? stash_hits : stash_misses).Inc(); }

  void RecordErase() { erases.Inc(); }

  /// Any rehash's wall-clock duration (manual or growth-triggered).
  void RecordRehash(uint64_t ns) { rehash_ns.Record(ns); }

  /// A growth-engine rehash committed (`reseed`: in-place seed rotation).
  void RecordGrowthRehash(bool reseed) {
    growth_rehashes.Inc();
    if (reseed) growth_reseeds.Inc();
  }

  void RecordGrowthFailure() { growth_failures.Inc(); }

  void SetGrowthSuppressed(bool on) { growth_suppressed.Set(on ? 1 : 0); }

  /// One operation's striped writer-lock tallies, flushed in a single call
  /// (LockStripeSet::ReleaseAll) so the uncontended lock/unlock fast path
  /// carries no per-stripe atomic RMWs.
  void RecordWriterLocks(uint64_t acquired, uint64_t contended,
                         uint64_t chain_handoffs) {
    if (acquired != 0) writer_lock_acquisitions.Inc(acquired);
    if (contended != 0) writer_lock_contended.Inc(contended);
    if (chain_handoffs != 0) writer_chain_handoffs.Inc(chain_handoffs);
  }

  /// One contended blocking stripe acquisition took `ns` wall-clock.
  void RecordWriterLockWait(uint64_t ns) { writer_lock_wait_ns.Record(ns); }

  /// Operation counters are derived, not separately maintained, so the
  /// "count" invariants in MetricsSnapshot hold by construction. Gauges
  /// (occupancy/capacity) are left zero — the owning table fills them.
  MetricsSnapshot Snapshot() const {
    MetricsSnapshot s;
    s.kick_chain_len = kick_chain_len.Snapshot();
    for (size_t i = 0; i < kMetricsPolicies; ++i) {
      s.policy_chain_len[i] = policy_chain_len[i].Snapshot();
    }
    s.insert_ns = insert_ns.Snapshot();
    s.bfs_nodes_expanded = bfs_nodes_expanded.Value();
    for (size_t i = 0; i < kMetricsPartitions; ++i) {
      s.partition_probes[i] = partition_probes[i].Value();
    }
    // Fold the fused grid into the probe histogram and hit counters; the
    // column index IS the probe count, so the fold is exact.
    for (size_t row = 0; row < kLookupOutcomeRows; ++row) {
      for (size_t col = 0; col < kLookupOutcomeCols; ++col) {
        const uint64_t n = lookup_outcome[row * kLookupOutcomeCols + col].load(
            std::memory_order_relaxed);
        if (n == 0) continue;
        s.lookup_probes.bucket[HistogramBucketOf(col)] += n;
        s.lookup_probes.count += n;
        s.lookup_probes.sum += n * col;
        if (row > 0) s.partition_hits[row - 1] += n;
      }
    }
    s.inserts = s.kick_chain_len.count;
    s.lookups = s.lookup_probes.count;
    s.erases = erases.Value();
    s.stash_hits = stash_hits.Value();
    s.stash_misses = stash_misses.Value();
    s.rehash_ns = rehash_ns.Snapshot();
    s.growth_rehashes = growth_rehashes.Value();
    s.growth_reseeds = growth_reseeds.Value();
    s.growth_failures = growth_failures.Value();
    s.growth_suppressed = growth_suppressed.Value();
    s.writer_lock_acquisitions = writer_lock_acquisitions.Value();
    s.writer_lock_contended = writer_lock_contended.Value();
    s.writer_chain_handoffs = writer_chain_handoffs.Value();
    s.writer_lock_wait_ns = writer_lock_wait_ns.Snapshot();
    return s;
  }

  /// Accumulates another instance's cells (Rehash carries metrics across
  /// the rebuild, mirroring how AccessStats survive it).
  void MergeFrom(const TableMetrics& o) {
    kick_chain_len.MergeFrom(o.kick_chain_len);
    for (size_t i = 0; i < kMetricsPolicies; ++i) {
      policy_chain_len[i].MergeFrom(o.policy_chain_len[i]);
    }
    insert_ns.MergeFrom(o.insert_ns);
    for (size_t i = 0; i < lookup_outcome.size(); ++i) {
      lookup_outcome[i].fetch_add(
          o.lookup_outcome[i].load(std::memory_order_relaxed),
          std::memory_order_relaxed);
    }
    bfs_nodes_expanded.Inc(o.bfs_nodes_expanded.Value());
    for (size_t i = 0; i < kMetricsPartitions; ++i) {
      partition_probes[i].Inc(o.partition_probes[i].Value());
    }
    erases.Inc(o.erases.Value());
    stash_hits.Inc(o.stash_hits.Value());
    stash_misses.Inc(o.stash_misses.Value());
    rehash_ns.MergeFrom(o.rehash_ns);
    growth_rehashes.Inc(o.growth_rehashes.Value());
    growth_reseeds.Inc(o.growth_reseeds.Value());
    growth_failures.Inc(o.growth_failures.Value());
    // Sticky OR: merging a fresh rebuild's metrics must not clear a
    // degraded state this table already reported.
    if (o.growth_suppressed.Value() != 0) growth_suppressed.Set(1);
    writer_lock_acquisitions.Inc(o.writer_lock_acquisitions.Value());
    writer_lock_contended.Inc(o.writer_lock_contended.Value());
    writer_chain_handoffs.Inc(o.writer_chain_handoffs.Value());
    writer_lock_wait_ns.MergeFrom(o.writer_lock_wait_ns);
  }

  void Reset() {
    kick_chain_len.Reset();
    for (auto& h : policy_chain_len) h.Reset();
    insert_ns.Reset();
    for (auto& c : lookup_outcome) c.store(0, std::memory_order_relaxed);
    bfs_nodes_expanded.Reset();
    for (auto& c : partition_probes) c.Reset();
    erases.Reset();
    stash_hits.Reset();
    stash_misses.Reset();
    rehash_ns.Reset();
    growth_rehashes.Reset();
    growth_reseeds.Reset();
    growth_failures.Reset();
    growth_suppressed.Set(0);
    writer_lock_acquisitions.Reset();
    writer_lock_contended.Reset();
    writer_chain_handoffs.Reset();
    writer_lock_wait_ns.Reset();
  }
};

/// Monotone nanosecond tick for latency metrics (the shared clock of
/// src/obs/timing.h; compiled-out builds never read it).
inline uint64_t MetricsNowNs() { return NowNs(); }

/// Stack-local accumulator for the lookup-side metrics of one batch. The
/// batched paths record every lookup here in plain integers and call
/// FlushTo once, so a B-key batch costs O(touched cells) atomic RMWs
/// instead of O(B) — this is what keeps metrics-on FindBatch throughput
/// within a few percent of the compiled-out build. Aggregate totals are
/// exactly what per-lookup recording would have produced; only the flush
/// granularity differs. Exposes the same recording interface as
/// TableMetrics so the per-key lookup code is generic over its sink.
class LookupTally {
 public:
  /// Plain-integer mirror of TableMetrics::RecordLookupOutcome; flushed
  /// into the shared grid cell-for-cell.
  void RecordLookupOutcome(uint64_t total_probes, int32_t hit_value) {
    const size_t row =
        hit_value < 0 ? 0
                      : 1 + (static_cast<size_t>(hit_value) < kMetricsPartitions
                                 ? static_cast<size_t>(hit_value)
                                 : kMetricsPartitions - 1);
    const size_t col = total_probes < kLookupOutcomeCols
                           ? static_cast<size_t>(total_probes)
                           : kLookupOutcomeCols - 1;
    ++lookup_outcome_[row * kLookupOutcomeCols + col];
  }

  void RecordPartitionProbes(uint32_t value, uint64_t probes) {
    if (probes == 0) return;
    partition_probes_[value < kMetricsPartitions ? value
                                                 : kMetricsPartitions - 1] +=
        probes;
  }

  void RecordStashProbe(bool hit) { ++(hit ? stash_hits_ : stash_misses_); }

  /// Publishes the tallies into `m` (one fetch_add per non-zero cell) and
  /// resets this tally for reuse.
  void FlushTo(TableMetrics& m) {
    for (size_t i = 0; i < lookup_outcome_.size(); ++i) {
      if (lookup_outcome_[i] != 0) {
        m.lookup_outcome[i].fetch_add(lookup_outcome_[i],
                                      std::memory_order_relaxed);
      }
    }
    for (size_t i = 0; i < kMetricsPartitions; ++i) {
      if (partition_probes_[i] != 0) {
        m.partition_probes[i].Inc(partition_probes_[i]);
      }
    }
    if (stash_hits_ != 0) m.stash_hits.Inc(stash_hits_);
    if (stash_misses_ != 0) m.stash_misses.Inc(stash_misses_);
    *this = LookupTally{};
  }

 private:
  std::array<uint64_t, kLookupOutcomeRows * kLookupOutcomeCols>
      lookup_outcome_{};
  std::array<uint64_t, kMetricsPartitions> partition_probes_{};
  uint64_t stash_hits_ = 0;
  uint64_t stash_misses_ = 0;
};

#else  // MCCUCKOO_NO_METRICS

/// No-op stand-in: every recording call site compiles to nothing and the
/// struct occupies no meaningful space.
struct TableMetrics {
  void RecordInsert(uint64_t, uint64_t, uint64_t = 1) {}
  void RecordPolicyChain(uint32_t, uint64_t) {}
  void RecordBfsNodes(uint64_t) {}
  void RecordLookupOutcome(uint64_t, int32_t) {}
  void RecordPartitionProbes(uint32_t, uint64_t) {}
  void RecordStashProbe(bool) {}
  void RecordErase() {}
  void RecordRehash(uint64_t) {}
  void RecordGrowthRehash(bool) {}
  void RecordGrowthFailure() {}
  void SetGrowthSuppressed(bool) {}
  void RecordWriterLocks(uint64_t, uint64_t, uint64_t) {}
  void RecordWriterLockWait(uint64_t) {}
  MetricsSnapshot Snapshot() const { return {}; }
  void MergeFrom(const TableMetrics&) {}
  void Reset() {}
};

/// Compiled-out builds never read the clock.
inline uint64_t MetricsNowNs() { return 0; }

/// No-op batch tally matching the enabled interface.
struct LookupTally {
  void RecordLookupOutcome(uint64_t, int32_t) {}
  void RecordPartitionProbes(uint32_t, uint64_t) {}
  void RecordStashProbe(bool) {}
  void FlushTo(TableMetrics&) {}
};

#endif  // MCCUCKOO_NO_METRICS

}  // namespace mccuckoo

#endif  // MCCUCKOO_OBS_METRICS_H_
