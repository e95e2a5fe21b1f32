// Occupancy / counter-value heatmap — the introspection snapshot behind
// the cache server's /heatmap route.
//
// Aggregate load factor hides *where* a table is full: cuckoo inserts
// degrade when some neighbourhood saturates with sole-copy items even
// while global load looks fine, and the multi-copy scheme's whole bet is
// that counter values stay skewed toward 1. This snapshot answers both
// at a glance: slot occupancy per contiguous bucket region (a coarse
// spatial heatmap suitable for a terminal or a dashboard bar chart) and
// the distribution of on-chip counter values across buckets.
//
// Built by the core tables' Heatmap() method from state that exists in
// every build mode (the slot array and the on-chip counters are the
// algorithm, not the metrics layer), so this header has no
// MCCUCKOO_NO_METRICS split. Producing one is a full table scan —
// scrape-time cost, never hot-path cost.

#ifndef MCCUCKOO_OBS_HEATMAP_H_
#define MCCUCKOO_OBS_HEATMAP_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/obs/metrics.h"

namespace mccuckoo {

/// Point-in-time occupancy/counter introspection of one table.
struct HeatmapSnapshot {
  /// Occupied slots per region; regions are contiguous runs of global
  /// bucket indices, so sub-table boundaries fall at fixed offsets
  /// (regions.size() is the requested resolution, capped by bucket count).
  std::vector<uint64_t> region_occupied;
  /// Total slots per region (the last region may be short).
  std::vector<uint64_t> region_slots;

  /// Slots by on-chip counter value 0..4 (index clamped like the
  /// partition metrics; one counter per slot in every layout).
  /// Empty/zero-counter slots land in index 0.
  std::array<uint64_t, kMetricsPartitions> counter_values{};

  uint64_t total_buckets = 0;
  uint64_t occupied_slots = 0;
  uint64_t total_slots = 0;

  double LoadFactor() const {
    return total_slots ? static_cast<double>(occupied_slots) /
                             static_cast<double>(total_slots)
                       : 0.0;
  }
};

}  // namespace mccuckoo

#endif  // MCCUCKOO_OBS_HEATMAP_H_
