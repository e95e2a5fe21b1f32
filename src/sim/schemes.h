// Runtime façade over the four evaluated schemes.
//
// The paper compares "Cuckoo" (ternary), "McCuckoo", "BCHT" (3-hash 3-slot)
// and "B-McCuckoo". The bench binaries sweep all four through identical
// workloads; this type-erased interface lets them do it in one loop while
// the underlying tables stay zero-overhead templates. All schemes are
// normalized to the same total slot capacity so "load ratio" means the same
// thing everywhere.

#ifndef MCCUCKOO_SIM_SCHEMES_H_
#define MCCUCKOO_SIM_SCHEMES_H_

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "src/common/status.h"
#include "src/core/config.h"
#include "src/mem/access_stats.h"
#include "src/obs/metrics.h"

namespace mccuckoo {

/// The four schemes of §IV.
enum class SchemeKind { kCuckoo, kMcCuckoo, kBcht, kBMcCuckoo };

/// All schemes in the paper's presentation order.
inline constexpr std::array<SchemeKind, 4> kAllSchemes = {
    SchemeKind::kCuckoo, SchemeKind::kMcCuckoo, SchemeKind::kBcht,
    SchemeKind::kBMcCuckoo};

/// Paper name of a scheme ("Cuckoo", "McCuckoo", "BCHT", "B-McCuckoo").
const char* SchemeName(SchemeKind kind);

/// True for the multi-copy schemes.
inline bool IsMultiCopy(SchemeKind k) {
  return k == SchemeKind::kMcCuckoo || k == SchemeKind::kBMcCuckoo;
}

/// True for the blocked (3-slot) schemes.
inline bool IsBlocked(SchemeKind k) {
  return k == SchemeKind::kBcht || k == SchemeKind::kBMcCuckoo;
}

/// Shared experiment configuration. total_slots is rounded up so all
/// schemes get identical capacity (divisible by d * l).
struct SchemeConfig {
  uint64_t total_slots = 9 * 100'000;
  uint32_t num_hashes = 3;
  uint32_t slots_per_bucket = 3;  ///< For the blocked schemes.
  uint32_t maxloop = 500;
  uint64_t seed = 0x5EEDC0DE;
  DeletionMode deletion_mode = DeletionMode::kDisabled;
  EvictionPolicy eviction_policy = EvictionPolicy::kRandomWalk;
  /// Baselines model the classic on-chip CHS stash [22] (free probes, tiny
  /// capacity); the multi-copy schemes keep the paper's off-chip stash.
  bool baseline_onchip_stash = true;
  bool stash_screen_enabled = true;
  bool lookup_pruning_enabled = true;
  /// Tag-probe kernel for the lookup paths (kAuto = best compiled in).
  /// Results and AccessStats are identical across kinds; only wall-clock
  /// time differs. Baselines have no tag probes and ignore it.
  ProbeKind probe = ProbeKind::kAuto;
  /// 1-in-N op-latency sampling period (TableOptions::latency_sample_period;
  /// 0 disables, 1 samples every op — bench latency keys use 1).
  uint32_t latency_sample_period = 32;
};

/// Type-erased uint64 -> uint64 hash table.
class SchemeTable {
 public:
  virtual ~SchemeTable() = default;

  virtual InsertResult Insert(uint64_t key, uint64_t value) = 0;
  virtual InsertResult InsertOrAssign(uint64_t key, uint64_t value) = 0;
  virtual bool Find(uint64_t key, uint64_t* out) const = 0;
  virtual bool Erase(uint64_t key) = 0;

  // Batched (prefetch-pipelined) counterparts. Results and AccessStats are
  // identical to the scalar loops; only wall-clock time differs.
  virtual size_t FindBatch(std::span<const uint64_t> keys, uint64_t* out,
                           bool* found) const = 0;
  virtual void InsertBatch(std::span<const uint64_t> keys,
                           std::span<const uint64_t> values,
                           InsertResult* results) = 0;

  virtual size_t size() const = 0;
  virtual size_t stash_size() const = 0;
  virtual size_t TotalItems() const = 0;
  virtual uint64_t capacity() const = 0;
  virtual double load_factor() const = 0;

  virtual const AccessStats& stats() const = 0;
  virtual void ResetStats() = 0;

  /// Runtime metrics snapshot (kick-chain/probe histograms, partitions,
  /// stash hit rates, gauges); zeros under -DMCCUCKOO_NO_METRICS.
  virtual MetricsSnapshot SnapshotMetrics() const = 0;
  virtual void ResetMetrics() = 0;

  virtual uint64_t first_collision_items() const = 0;
  virtual uint64_t first_failure_items() const = 0;
  virtual uint64_t forced_rehash_events() const = 0;
  virtual size_t onchip_memory_bytes() const = 0;
  virtual Status ValidateInvariants() const = 0;

  /// Probe kernel the underlying table's lookups use ("simd" / "scalar");
  /// "none" for the baselines, which carry no tag probes. Bench keys embed
  /// it so recorded numbers say which kernel produced them.
  virtual const char* probe_variant() const = 0;
};

/// Builds a scheme instance; dies on invalid configuration (bench-level
/// code wants loud failure).
std::unique_ptr<SchemeTable> MakeScheme(SchemeKind kind,
                                        const SchemeConfig& config);

}  // namespace mccuckoo

#endif  // MCCUCKOO_SIM_SCHEMES_H_
